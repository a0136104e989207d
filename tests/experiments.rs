//! End-to-end reproduction checks: every experiment report from DESIGN.md
//! must pass at integration-test scale.
//!
//! (The heavier per-experiment assertions also run as unit tests inside
//! `fair-bench`; these tests exercise the public `run_experiment` entry
//! point the way the `reproduce` binary does.)

use fair_bench::run_experiment;
use fair_core::RunCtx;

const TRIALS: usize = 150;

fn assert_experiment(id: &str, seed: u64) {
    let reports =
        run_experiment(&RunCtx::default(), id, TRIALS, seed).expect("known experiment id");
    for r in reports {
        assert!(r.pass(), "{} failed:\n{}", r.id, r.render());
    }
}

#[test]
fn e1_contract_signing() {
    assert_experiment("e1", 0xe1);
}

#[test]
fn e2_opt2_upper_bound() {
    assert_experiment("e2", 0xe2);
}

#[test]
fn e3_opt2_lower_bound() {
    assert_experiment("e3", 0xe3);
}

#[test]
fn e4_reconstruction_rounds() {
    assert_experiment("e4", 0xe4);
}

#[test]
fn e6_multiparty_lower_bound() {
    assert_experiment("e6", 0xe6);
}

#[test]
fn e7_utility_balance() {
    assert_experiment("e7", 0xe7);
}

#[test]
fn e9_artificial_protocol() {
    assert_experiment("e9", 0xe9);
}

#[test]
fn e10_corruption_costs() {
    assert_experiment("e10", 0xe10);
}

#[test]
fn e12_partial_fairness_separation() {
    assert_experiment("e12", 0xe12);
}

#[test]
fn e13_composability() {
    assert_experiment("e13", 0xe13);
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(run_experiment(&RunCtx::default(), "e99", 10, 0).is_none());
}
