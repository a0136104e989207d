//! The relative-fairness partial order across the whole protocol zoo —
//! the paper's headline capability: "which of the two protocols is
//! fairer?" answered empirically.

use fair_core::fairness::{at_least_as_fair, compare, is_optimal_among, Assessment, FairnessOrder};
use fair_core::{best_of, Payoff, RunCtx};
use fair_protocols::scenarios::{contract_sweep, one_round_sweep, opt2_sweep};

const TRIALS: usize = 250;
const TOL: f64 = 0.06;

fn assess_pi1() -> Assessment {
    let (ests, _) = best_of(
        &RunCtx::default(),
        &contract_sweep(false),
        &Payoff::standard(),
        TRIALS,
        1,
    );
    Assessment::from_estimates("Pi1", ests)
}

fn assess_pi2() -> Assessment {
    let (ests, _) = best_of(
        &RunCtx::default(),
        &contract_sweep(true),
        &Payoff::standard(),
        TRIALS,
        2,
    );
    Assessment::from_estimates("Pi2", ests)
}

fn assess_opt2() -> Assessment {
    let (ests, _) = best_of(
        &RunCtx::default(),
        &opt2_sweep(),
        &Payoff::standard(),
        TRIALS,
        3,
    );
    Assessment::from_estimates("Opt2", ests)
}

fn assess_strawman() -> Assessment {
    let (ests, _) = best_of(
        &RunCtx::default(),
        &one_round_sweep(),
        &Payoff::standard(),
        TRIALS,
        4,
    );
    Assessment::from_estimates("OneRound", ests)
}

#[test]
fn pi2_strictly_fairer_than_pi1() {
    assert_eq!(
        compare(&assess_pi2(), &assess_pi1(), TOL),
        FairnessOrder::StrictlyFairer
    );
}

#[test]
fn opt2_and_pi2_are_equally_fair() {
    // Both reach exactly (γ10+γ11)/2 — the partial order cannot separate
    // them, and each is at least as fair as the other.
    let opt2 = assess_opt2();
    let pi2 = assess_pi2();
    assert_eq!(compare(&opt2, &pi2, TOL), FairnessOrder::Equivalent);
    assert!(at_least_as_fair(&opt2, &pi2, TOL));
    assert!(at_least_as_fair(&pi2, &opt2, TOL));
}

#[test]
fn strawman_and_pi1_sit_at_the_bottom() {
    let strawman = assess_strawman();
    let pi1 = assess_pi1();
    // Both fully unfair (γ10); and both strictly less fair than Π^Opt_2SFE.
    assert_eq!(compare(&strawman, &pi1, TOL), FairnessOrder::Equivalent);
    assert_eq!(
        compare(&strawman, &assess_opt2(), TOL),
        FairnessOrder::StrictlyLessFair
    );
}

#[test]
fn opt2_is_optimal_among_the_zoo() {
    let opt2 = assess_opt2();
    let others = vec![assess_pi1(), assess_pi2(), assess_strawman()];
    assert!(is_optimal_among(&opt2, &others, TOL));
    // …and the strawman is not.
    assert!(!is_optimal_among(&assess_strawman(), &[opt2], TOL));
}

#[test]
fn fairness_relation_is_reflexive_and_transitive_on_the_zoo() {
    let chain = [assess_opt2(), assess_pi2(), assess_pi1()];
    for a in &chain {
        assert!(
            at_least_as_fair(a, a, TOL),
            "reflexivity for {}",
            a.protocol
        );
    }
    // opt2 ⪰ pi2 and pi2 ⪰ pi1 imply opt2 ⪰ pi1.
    assert!(at_least_as_fair(&chain[0], &chain[1], TOL));
    assert!(at_least_as_fair(&chain[1], &chain[2], TOL));
    assert!(at_least_as_fair(&chain[0], &chain[2], TOL));
}
