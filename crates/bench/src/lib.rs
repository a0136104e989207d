#![forbid(unsafe_code)]
#![allow(clippy::print_stdout, clippy::print_stderr)] // the experiment reporters print their tables
#![warn(missing_docs)]
//! Experiment harness for the `fair-protocols` workspace: every table the
//! reproduction generates (experiments E1–E13 from DESIGN.md) plus the
//! report rendering used by the `exp_*` binaries and `reproduce`.

pub mod experiments;
pub mod partial_exp;
pub mod runner;
pub mod scenario_exp;
pub mod servecli;
pub mod table;
pub mod tracecli;

pub use table::{Report, Row};

use fair_core::RunCtx;

/// Number of Monte-Carlo trials used by the experiment binaries (override
/// with the `FAIR_TRIALS` environment variable). A malformed value is
/// reported on stderr, then the default of 1000 applies. Routed through
/// `fair-simlab`'s sanctioned env entry point ([`fair_simlab::config`]).
pub fn default_trials() -> usize {
    fair_simlab::config::env_usize("FAIR_TRIALS", 1000)
}

/// Runs an experiment by id in the run context `ctx`; `None` for an
/// unknown id.
pub fn run_experiment(ctx: &RunCtx, id: &str, trials: usize, seed: u64) -> Option<Vec<Report>> {
    let reports = match id {
        "e1" => vec![experiments::e1(ctx, trials, seed)],
        "e2" => vec![experiments::e2(ctx, trials, seed)],
        "e3" => vec![experiments::e3(ctx, trials, seed)],
        "e4" => vec![experiments::e4(ctx, trials, seed)],
        "e5" => vec![experiments::e5(ctx, trials, seed, &[3, 4, 5])],
        "e6" => vec![experiments::e6(ctx, trials, seed, 4)],
        "e7" => vec![experiments::e7(ctx, trials, seed, 4)],
        "e8" => vec![experiments::e8(ctx, trials, seed, &[4, 5])],
        "e9" => vec![experiments::e9(ctx, trials, seed, 4)],
        "e10" => vec![experiments::e10(ctx, trials, seed, 4)],
        "e11" => vec![experiments::e11(ctx, trials, seed)],
        "e12" => vec![partial_exp::e12(ctx, trials, seed)],
        "e13" => vec![experiments::e13(ctx, trials, seed)],
        "e14" => vec![experiments::e14(ctx, trials, seed)],
        "e15" => vec![experiments::e15(ctx, trials, seed)],
        "e16" => vec![experiments::e16(ctx, trials, seed)],
        "e17" => vec![partial_exp::e17(ctx, trials, seed)],
        // Not a static id: fall through to the scenario-derived leg of
        // the registry (compiled from scenarios/*.toml).
        _ => return scenario_exp::run(ctx, id, trials, seed),
    };
    Some(reports)
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17",
];

/// The experiment registry as `(id, title)` pairs: the static entries in
/// [`ALL_EXPERIMENTS`] order, then the scenario-derived entries in
/// file-name order — the single listing behind `reproduce --list`,
/// `fair-trace list`, and `fair-serve`, so every tool names experiments
/// identically.
pub fn experiment_listing() -> Vec<(String, String)> {
    // Every id has a title by construction: rule R1 keeps the static
    // registry and the titles in lockstep (the expect below is the
    // compile-adjacent backstop — there is no "(untitled)" fallback),
    // and the scenario compiler rejects files without a title.
    let mut listing: Vec<(String, String)> = ALL_EXPERIMENTS
        .iter()
        .map(|id| {
            let title = experiment_title(id).expect("registered id has a title");
            (id.to_string(), title.to_string())
        })
        .collect();
    listing.extend(scenario_exp::listing());
    listing
}

/// Every runnable experiment id: static registry order, then the
/// scenario-derived ids (what `reproduce` runs when invoked bare).
pub fn all_experiment_ids() -> Vec<String> {
    experiment_listing().into_iter().map(|(id, _)| id).collect()
}

/// One-line description of each experiment (for `reproduce --list`).
pub fn experiment_title(id: &str) -> Option<&'static str> {
    Some(match id {
        "e1" => "contract signing: coin-tossed order halves the attacker's edge",
        "e2" => "Π^Opt_2SFE upper bound: u_A ≤ (γ10+γ11)/2 for every strategy",
        "e3" => "Π^Opt_2SFE lower bound: A1/A2/A_gen achieve (γ10+γ11)/2",
        "e4" => "reconstruction-round optimality (Lemmas 9/10)",
        "e5" => "Π^Opt_nSFE per-coalition utilities (Lemma 11, tight by Lemma 13)",
        "e6" => "multi-party lower bound via the A_ī strategies (Lemmas 12/13)",
        "e7" => "Π^Opt_nSFE is utility-balanced (Lemma 14, tight by Lemma 16)",
        "e8" => "Π^{1/2}_GMW: fair below n/2, unfair at n/2, unbalanced for even n (Lemma 17)",
        "e9" => "optimal fairness does not imply utility balance (Lemma 18)",
        "e10" => "utility balance ⇔ optimal corruption-cost function (Theorem 6)",
        "e11" => "Gordon–Katz protocols: payoff ≤ 1/p with O(p·|Y|) / O(p²·|Z|) rounds",
        "e12" => "Π̃ separates 1/p-security from utility-based fairness (Lemmas 25–27)",
        "e13" => "composability: replacing the hybrid by real GMW/Yao preserves utilities",
        "e14" => {
            "Section 4.1 remark: 1/p-secure functions admit fairness beyond the generic optimum"
        }
        "e15" => "the attack game: uniform i* is the designer's minimax move (Remark 1)",
        "e16" => "utility-balanced and optimal fairness are incomparable (Appendix B.1)",
        "e17" => {
            "Theorem 23: the GK protocol realizes F^{∧,$} — real and ideal observables coincide"
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_static_id_is_titled_and_listed() {
        for id in crate::ALL_EXPERIMENTS {
            assert!(
                crate::experiment_title(id).is_some(),
                "{id} has no title — the listing has no untitled fallback"
            );
        }
        let listing = crate::experiment_listing();
        assert_eq!(
            listing.len(),
            crate::ALL_EXPERIMENTS.len() + crate::scenario_exp::specs().len()
        );
        assert!(listing.iter().all(|(_, title)| !title.trim().is_empty()));
    }
}
