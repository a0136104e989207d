//! Measuring reconstruction rounds (Definition 8).
//!
//! A protocol with m rounds has ℓ reconstruction rounds when an adversary
//! aborting in any of rounds 1..m−ℓ leaves the execution fair (the fair
//! functionality is still implemented), while aborting in round m−ℓ+1
//! breaks it. Empirically: sweep abort-at-round adversaries over every
//! round and find the first round whose abort produces an unfair event
//! (E₁₀).

use crate::ctx::RunCtx;
use crate::event::Event;
use crate::payoff::Payoff;
use crate::utility::{estimate, Scenario, UtilityEstimate};

/// The result of a reconstruction-round sweep.
#[derive(Clone, Debug)]
pub struct ReconstructionReport {
    /// Total protocol rounds m (1-based count).
    pub total_rounds: usize,
    /// `fair[r]` = aborting at (0-based engine) round r left the execution
    /// fair across all trials.
    pub fair: Vec<bool>,
    /// Per-round estimates (for inspection).
    pub estimates: Vec<UtilityEstimate>,
}

impl ReconstructionReport {
    /// First unfair abort round (0-based), if any.
    pub fn first_unfair_round(&self) -> Option<usize> {
        self.fair.iter().position(|&f| !f)
    }

    /// ℓ per Definition 8: m − (first unfair 1-based round − 1). Returns 0
    /// when no abort round is unfair (the protocol is fully fair).
    pub fn reconstruction_rounds(&self) -> usize {
        match self.first_unfair_round() {
            Some(r0) => self.total_rounds - r0, // r0 is 0-based: m − ((r0+1) − 1)
            None => 0,
        }
    }
}

/// Sweeps abort rounds `0..total_rounds`; `make(r)` builds the scenario
/// whose adversary aborts at engine round `r`. An abort round is *fair*
/// when no trial produced the event E₁₀.
pub fn sweep<S: Scenario + Sync, F: Fn(usize) -> S>(
    ctx: &RunCtx,
    total_rounds: usize,
    make: F,
    payoff: &Payoff,
    trials: usize,
    seed: u64,
) -> ReconstructionReport {
    let mut fair = Vec::with_capacity(total_rounds);
    let mut estimates = Vec::with_capacity(total_rounds);
    for r in 0..total_rounds {
        let est = estimate(
            ctx,
            &make(r),
            payoff,
            trials,
            seed.wrapping_add((r as u64) << 24),
        );
        fair.push(crate::stats::approx_zero(est.event_rate(Event::E10)));
        estimates.push(est);
    }
    ReconstructionReport {
        total_rounds,
        fair,
        estimates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(fair: Vec<bool>) -> ReconstructionReport {
        let total_rounds = fair.len();
        ReconstructionReport {
            total_rounds,
            fair,
            estimates: vec![],
        }
    }

    #[test]
    fn fully_fair_protocol_has_zero_reconstruction_rounds() {
        let r = report(vec![true, true, true]);
        assert_eq!(r.first_unfair_round(), None);
        assert_eq!(r.reconstruction_rounds(), 0);
    }

    #[test]
    fn unfair_last_round_means_one_reconstruction_round() {
        let r = report(vec![true, true, false]);
        assert_eq!(r.reconstruction_rounds(), 1);
    }

    #[test]
    fn unfair_final_two_rounds_means_two() {
        let r = report(vec![true, true, false, false]);
        assert_eq!(r.first_unfair_round(), Some(2));
        assert_eq!(r.reconstruction_rounds(), 2);
    }

    #[test]
    fn unfair_from_the_start_counts_every_round() {
        let r = report(vec![false, false]);
        assert_eq!(r.reconstruction_rounds(), 2);
    }
}
