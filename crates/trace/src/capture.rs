//! The transcript collector of one run.
//!
//! A [`Capture`] is a value: whoever starts a recording run builds one
//! with a filter and a per-trial ring capacity, hands it to the estimator
//! (inside `fair_core::RunCtx`), and takes the collected transcripts back
//! with [`Capture::finish`]. The estimator asks [`Capture::wants`] per
//! trial seed and submits the finished transcripts; workers share the
//! collector by reference, so its state sits behind one mutex touched only
//! for trials a capture is running for.
//!
//! Determinism: [`CaptureFilter::Seeds`] selects trials by their seed, a
//! pure function of the trial index, so it collects the same transcripts
//! under any worker count. [`CaptureFilter::FirstN`] depends on trial
//! completion order and is only deterministic under `jobs = 1`; the
//! `fair-trace record` CLI forces single-job scheduling for exactly this
//! reason.

use std::collections::BTreeSet;
use std::sync::Mutex;

use crate::transcript::Transcript;

/// Default ring-buffer capacity for captured transcripts (events kept per
/// trial before eviction).
pub const DEFAULT_RING: usize = 4096;

/// Which trials to capture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaptureFilter {
    /// The first `n` trials to finish (deterministic only under one job).
    FirstN(usize),
    /// Trials with exactly these seeds (deterministic under any jobs).
    Seeds(BTreeSet<u64>),
}

#[derive(Debug, Default)]
struct State {
    seen: BTreeSet<u64>,
    transcripts: Vec<Transcript>,
}

/// A transcript collector armed with a filter and a ring capacity.
#[derive(Debug)]
pub struct Capture {
    filter: CaptureFilter,
    ring: usize,
    state: Mutex<State>,
}

impl Capture {
    /// A collector keeping the trials `filter` selects, each with a ring of
    /// `ring` events.
    pub fn new(filter: CaptureFilter, ring: usize) -> Capture {
        Capture {
            filter,
            ring,
            state: Mutex::new(State::default()),
        }
    }

    /// The ring capacity captured transcripts use.
    pub fn ring(&self) -> usize {
        self.ring
    }

    /// Whether this capture wants the trial with this seed. Each seed is
    /// claimed at most once (`FirstN` also stops after `n` claims).
    pub fn wants(&self, seed: u64) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let want = !st.seen.contains(&seed)
            && match &self.filter {
                CaptureFilter::FirstN(n) => st.seen.len() < *n,
                CaptureFilter::Seeds(set) => set.contains(&seed),
            };
        if want {
            st.seen.insert(seed);
        }
        want
    }

    /// Submits a finished transcript.
    pub fn submit(&self, t: Transcript) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.transcripts.push(t);
    }

    /// The captured transcripts sorted by seed (submission order is
    /// schedule-dependent; seed order is not).
    pub fn finish(self) -> Vec<Transcript> {
        let mut out = self
            .state
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .transcripts;
        out.sort_by_key(|t| t.seed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecStats;

    fn transcript(seed: u64) -> Transcript {
        Transcript {
            seed,
            stats: ExecStats::default(),
            dropped: 0,
            events: Vec::new(),
        }
    }

    #[test]
    fn first_n_claims_each_seed_once_up_to_n() {
        let capture = Capture::new(CaptureFilter::FirstN(2), 16);
        assert_eq!(capture.ring(), 16);
        assert!(capture.wants(10));
        assert!(!capture.wants(10), "a seed is claimed at most once");
        assert!(capture.wants(7));
        assert!(!capture.wants(3), "FirstN stops after n claims");
        capture.submit(transcript(10));
        capture.submit(transcript(7));
        assert_eq!(
            capture.finish().iter().map(|t| t.seed).collect::<Vec<_>>(),
            vec![7, 10],
            "finish() returns transcripts sorted by seed"
        );
    }

    #[test]
    fn seeds_filter_selects_by_membership() {
        let capture = Capture::new(CaptureFilter::Seeds([4u64, 8].into_iter().collect()), 0);
        assert!(!capture.wants(5));
        assert!(capture.wants(8));
        assert!(capture.wants(4));
        assert!(!capture.wants(8));
        capture.submit(transcript(8));
        capture.submit(transcript(4));
        assert_eq!(
            capture.finish().iter().map(|t| t.seed).collect::<Vec<_>>(),
            vec![4, 8]
        );
    }
}
