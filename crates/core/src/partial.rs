//! Machinery for the 1/p-security ("partial fairness") comparisons of
//! Section 5.
//!
//! 1/p-security allows the real and ideal ensembles to be distinguished
//! with advantage up to 1/p. The experiments estimate acceptance
//! probabilities of an environment/distinguisher against the real protocol
//! and against an ideal world (dummy parties + F^$ + simulator), and report
//! the advantage with confidence bounds. Lemma 26's separation (the leaky
//! protocol Π̃ is 1/2-secure yet fails the F^$-based notion) is asserted on
//! exactly these reports.

use crate::ctx::RunCtx;

/// An estimated acceptance probability.
#[derive(Clone, Copy, Debug)]
pub struct Acceptance {
    /// Empirical acceptance rate.
    pub rate: f64,
    /// 95% confidence half-width.
    pub ci: f64,
    /// Trials.
    pub trials: usize,
}

/// Estimates the acceptance probability of a boolean experiment over
/// seeded runs.
///
/// Per-trial seeds come from [`fair_simlab::trial_seed`] and trials are
/// sharded across the simlab scheduler; like [`crate::utility::estimate`],
/// the result is bit-identical for every worker count (hit counts are
/// integers, so shard merges are exact). The run's observer, if any,
/// counts the trials (they carry no latency or protocol metrics).
///
/// # Examples
///
/// ```
/// use fair_core::partial::acceptance;
/// use fair_core::RunCtx;
///
/// // trial_seed output is uniform over u64, so `seed % 4 == 0` accepts a
/// // quarter of the time.
/// let a = acceptance(&RunCtx::default(), |seed| seed % 4 == 0, 1000, 0);
/// assert!((a.rate - 0.25).abs() < 0.05);
/// ```
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn acceptance<F: Fn(u64) -> bool + Sync>(
    ctx: &RunCtx,
    run: F,
    trials: usize,
    seed: u64,
) -> Acceptance {
    assert!(trials > 0, "need at least one trial");
    let hits: usize = fair_simlab::run_tiled(trials, |range| {
        ctx.count_trials(range.len());
        range
            .filter(|&t| run(fair_simlab::trial_seed(seed, t as u64)))
            .count()
    })
    .into_iter()
    .sum();
    let p = hits as f64 / trials as f64;
    // Wilson half-width: well-behaved at rates near 0 or 1 (a plain normal
    // approximation reports zero uncertainty there).
    let ci = crate::stats::wilson(hits, trials, crate::stats::Z_95).half_width();
    Acceptance {
        rate: p,
        ci,
        trials,
    }
}

/// A distinguishing experiment: the same environment run against the real
/// protocol and against an ideal world.
#[derive(Clone, Copy, Debug)]
pub struct Distinguish {
    /// Acceptance against the real protocol.
    pub real: Acceptance,
    /// Acceptance against the ideal world (with the candidate simulator).
    pub ideal: Acceptance,
}

impl Distinguish {
    /// The estimated advantage `|Pr(real) − Pr(ideal)|`.
    pub fn advantage(&self) -> f64 {
        (self.real.rate - self.ideal.rate).abs()
    }

    /// Combined CI half-width of the advantage.
    pub fn ci(&self) -> f64 {
        self.real.ci + self.ideal.ci
    }

    /// Whether the advantage is statistically above `bound` (a *failure*
    /// of simulation at quality `bound`).
    pub fn exceeds(&self, bound: f64) -> bool {
        self.advantage() - self.ci() > bound
    }

    /// Whether the advantage is statistically at most `bound`.
    pub fn within(&self, bound: f64) -> bool {
        self.advantage() - self.ci() <= bound
    }
}

/// Runs a distinguishing experiment.
pub fn distinguish<R: Fn(u64) -> bool + Sync, I: Fn(u64) -> bool + Sync>(
    ctx: &RunCtx,
    real: R,
    ideal: I,
    trials: usize,
    seed: u64,
) -> Distinguish {
    Distinguish {
        real: acceptance(ctx, real, trials, seed),
        // Decorrelate the ideal runs from the real runs.
        ideal: acceptance(ctx, ideal, trials, seed ^ 0x9e37_79b9_7f4a_7c15),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_of_constant_experiments() {
        let a = acceptance(&RunCtx::default(), |_| true, 100, 0);
        assert_eq!(a.rate, 1.0);
        // Wilson intervals stay honest at the extremes: the uncertainty is
        // small but *not* zero after only 100 trials.
        assert!(a.ci > 0.0 && a.ci < 0.04, "ci = {}", a.ci);
        let b = acceptance(&RunCtx::default(), |_| false, 100, 0);
        assert_eq!(b.rate, 0.0);
    }

    #[test]
    fn acceptance_of_biased_coin() {
        // Deterministic pseudo-coin from the seed.
        let a = acceptance(
            &RunCtx::default(),
            |s| s.wrapping_mul(0x9e3779b97f4a7c15) % 4 == 0,
            4000,
            7,
        );
        assert!((a.rate - 0.25).abs() < 0.05, "rate = {}", a.rate);
        assert!(a.ci > 0.0);
    }

    #[test]
    fn identical_worlds_have_no_advantage() {
        let d = distinguish(&RunCtx::default(), |s| s % 2 == 0, |s| s % 2 == 0, 2000, 3);
        assert!(d.within(0.05));
        assert!(!d.exceeds(0.05));
    }

    #[test]
    fn separated_worlds_show_advantage() {
        let d = distinguish(&RunCtx::default(), |_| true, |s| s % 2 == 0, 2000, 4);
        assert!((d.advantage() - 0.5).abs() < 0.05);
        assert!(d.exceeds(0.3));
        assert!(!d.within(0.3));
    }
}
