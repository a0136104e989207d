//! Statistical invariants of the utility estimator.

use fair_core::{estimate, Event, Payoff, RunCtx, Scenario, Trial};
use fair_runtime::{Envelope, Instance, OutMsg, Party, Passive, RoundCtx, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

/// A protocol whose outcome is a coin flip between "honest get output"
/// (E01) and "nobody does" (E00) — enough structure to stress the
/// estimator's accounting.
#[derive(Clone, Debug)]
struct CoinOutcome {
    deliver: bool,
    done: Option<Value>,
}

impl Party<()> for CoinOutcome {
    fn round(&mut self, _: &RoundCtx, _: &[Envelope<()>]) -> Vec<OutMsg<()>> {
        self.done = Some(if self.deliver {
            Value::Scalar(1)
        } else {
            Value::Bot
        });
        vec![]
    }
    fn output(&self) -> Option<Value> {
        self.done.clone()
    }
    fn clone_box(&self) -> Box<dyn Party<()>> {
        Box::new(self.clone())
    }
}

struct CoinScenario {
    p_deliver: f64,
}

impl Scenario for CoinScenario {
    type Msg = ();
    fn name(&self) -> String {
        "coin-outcome".into()
    }
    fn n(&self) -> usize {
        1
    }
    fn build(&self, rng: &mut StdRng) -> Trial<()> {
        let deliver = rng.random_bool(self.p_deliver);
        Trial {
            instance: Instance {
                parties: vec![Box::new(CoinOutcome {
                    deliver,
                    done: None,
                })],
                funcs: vec![],
            },
            adversary: Box::new(Passive),
            truth: Some(Value::Scalar(1)),
            max_rounds: 4,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mean_is_bounded_by_payoff_range(p in 0.0f64..=1.0, seed: u64) {
        let payoff = Payoff::standard();
        let est = estimate(&RunCtx::default(), &CoinScenario { p_deliver: p }, &payoff, 200, seed);
        let lo = payoff.g00.min(payoff.g01).min(payoff.g10).min(payoff.g11);
        let hi = payoff.g00.max(payoff.g01).max(payoff.g10).max(payoff.g11);
        prop_assert!(est.mean >= lo && est.mean <= hi);
        prop_assert!(est.ci >= 0.0);
    }

    #[test]
    fn event_counts_sum_to_trials(p in 0.0f64..=1.0, seed: u64, trials in 1usize..300) {
        let est = estimate(&RunCtx::default(), &CoinScenario { p_deliver: p }, &Payoff::standard(), trials, seed);
        prop_assert_eq!(est.event_counts.iter().sum::<usize>(), trials);
    }

    #[test]
    fn estimates_are_reproducible(seed: u64) {
        let payoff = Payoff::standard();
        let a = estimate(&RunCtx::default(), &CoinScenario { p_deliver: 0.5 }, &payoff, 100, seed);
        let b = estimate(&RunCtx::default(), &CoinScenario { p_deliver: 0.5 }, &payoff, 100, seed);
        prop_assert_eq!(a.mean, b.mean);
        prop_assert_eq!(a.event_counts, b.event_counts);
    }
}

#[test]
fn estimator_tracks_the_true_mixture() {
    // Pr[E01] = 0.7 and Pr[E00] = 0.3 under γ = standard: expected payoff
    // 0.7·γ01 + 0.3·γ00 = 0.075.
    let payoff = Payoff::standard();
    let est = estimate(
        &RunCtx::default(),
        &CoinScenario { p_deliver: 0.7 },
        &payoff,
        20_000,
        9,
    );
    assert!(
        (est.mean - 0.3 * payoff.g00).abs() < 0.01,
        "mean = {}",
        est.mean
    );
    assert!((est.event_rate(Event::E01) - 0.7).abs() < 0.02);
    assert!((est.event_rate(Event::E00) - 0.3).abs() < 0.02);
    assert_eq!(est.event_rate(Event::E10), 0.0);
}
