#![allow(clippy::print_stdout)] // an example reports its results on stdout
//! The Section 5 separation, live: the "leaky" protocol Π̃ passes the
//! Gordon–Katz 1/2-security and privacy definitions yet leaks an honest
//! input with probability 1/4 — and no F^{∧,$} simulator can hide it.
//!
//! Run with: `cargo run --release --example partial_fairness_gap`

use fair_bench::partial_exp::{ideal_acceptances, real_acceptances, simulator_grid};
use fair_core::RunCtx;
use fair_protocols::leaky::probe_real;

fn main() {
    let trials = 400;

    // Step 1: watch the leak happen.
    let mut leaks = 0;
    for seed in 0..trials {
        let obs = probe_real(1, 0, seed);
        if matches!(obs.reply, Some(Some(_))) {
            leaks += 1;
        }
    }
    println!(
        "A corrupted p2 opening with a deviant 1-bit extracts p1's input in {leaks}/{trials} runs \
         (the biased coin fires with probability 1/4)."
    );
    println!();

    // Step 2: the distinguishers of Lemma 26.
    let (rz1, rz2) = real_acceptances(&RunCtx::default(), trials as usize, 99);
    println!(
        "real world:  Pr[Z1] = {:.3}   Pr[Z2] = {:.3}",
        rz1.rate, rz2.rate
    );

    let mut best_gap = f64::INFINITY;
    for sim in simulator_grid() {
        let (iz1, iz2) = ideal_acceptances(&RunCtx::default(), &sim, 20_000, 7);
        let gap = (rz1.rate - iz1.rate).abs().max((rz2.rate - iz2.rate).abs());
        if gap < best_gap {
            best_gap = gap;
            println!(
                "  simulator {sim:?}: Pr[Z1] = {:.3}, Pr[Z2] = {:.3}  → worst gap {gap:.3}",
                iz1.rate, iz2.rate
            );
        }
    }
    println!();
    println!(
        "Even the best simulator in the grid is caught with advantage ≥ {best_gap:.3}: \
         Π̃ does not realize F^(∧,$) (Lemma 26), although it is 1/2-secure and fully \
         private in the Gordon–Katz sense (Lemma 27). Utility-based fairness closes \
         exactly this gap."
    );
}
