//! End-to-end transcript replay (ISSUE satellite, next to
//! `determinism.rs`): recorded `(target, seed)` pairs must replay to
//! byte-identical transcripts, and — because trial seeds are pure
//! functions of the trial index — the replay must not care how many
//! worker threads re-execute the run.

use fair_bench::runner::BASE_SEED;
use fair_bench::tracecli::{record, replay_file, trace_files};
use fair_simlab::with_jobs;

/// Records ten `(target, seed)` pairs, then replays each under one and four
/// workers.
#[test]
fn recorded_transcripts_replay_identically_under_any_job_count() {
    let dir = std::env::temp_dir().join(format!("fair-trace-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Ten (target, seed) pairs across both protocol targets; the trial
    // counts span several scheduler tiles.
    let mut recorded = record("exp_coin_toss", 70, 6, BASE_SEED, &dir).expect("record coin toss");
    recorded.extend(record("exp_gordon_katz", 40, 4, BASE_SEED, &dir).expect("record gordon katz"));
    assert_eq!(recorded.len(), 10, "ten sampled (target, seed) pairs");

    let listed = trace_files(&dir, None).expect("list trace files");
    assert_eq!(listed.len(), 10);

    for path in &recorded {
        for jobs in [1usize, 4] {
            let diff = with_jobs(jobs, || replay_file(path).expect("replay runs"));
            assert!(
                diff.is_none(),
                "{} diverged under jobs={jobs}:\n{}",
                path.display(),
                diff.expect("diff present")
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
