//! The heavier experiments (many coalition sizes / long protocols), run at
//! reduced trial counts.

use fair_bench::run_experiment;
use fair_core::RunCtx;

#[test]
fn e5_lemma_11_profile() {
    // Restrict to n ∈ {3, 4} at this scale (the binary covers n = 5 too).
    let r = fair_bench::experiments::e5(&RunCtx::default(), 150, 0xe5, &[3, 4]);
    assert!(r.pass(), "{}", r.render());
}

#[test]
fn e8_gmw_half_cliff() {
    let r = fair_bench::experiments::e8(&RunCtx::default(), 150, 0xe8, &[4, 5]);
    assert!(r.pass(), "{}", r.render());
}

#[test]
fn e11_gordon_katz_bounds() {
    let reports = run_experiment(&RunCtx::default(), "e11", 250, 0xe11).expect("known id");
    for r in reports {
        assert!(r.pass(), "{}", r.render());
    }
}
