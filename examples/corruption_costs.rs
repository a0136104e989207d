#![allow(clippy::print_stdout)] // an example reports its results on stdout
//! Corruption costs and the Theorem 6 duality: when corrupting parties
//! costs the adversary something, utility-balanced protocols are exactly
//! the ones that are ideally fair under the cheapest admissible price
//! list.
//!
//! Run with: `cargo run --release --example corruption_costs`

use fair_core::cost::{cost_from_phi, is_ideally_fair, CostFn};
use fair_core::{analytic, best_of, Payoff, RunCtx};
use fair_protocols::scenarios::optn_sweep;

fn main() {
    let payoff = Payoff::standard();
    let trials = 800;
    let n = 4;

    // Measure φ(t): the best t-adversary utility against Π^Opt_nSFE.
    let phi: Vec<f64> = (1..n)
        .map(|t| {
            let (ests, b) = best_of(
                &RunCtx::default(),
                &optn_sweep(n, t),
                &payoff,
                trials,
                t as u64,
            );
            println!(
                "φ({t}) = {:.3}  (paper {:.3})",
                ests[b].mean,
                analytic::optn_t(&payoff, n, t)
            );
            ests[b].mean
        })
        .collect();
    println!();

    // Lemma 22: the unique cost function making the protocol ideally fair.
    let cost = cost_from_phi(&phi, &payoff, n);
    for t in 1..n {
        println!(
            "c({t}) = φ({t}) − s({t}) = {:.3}   (s({t}) = γ11 = {:.3})",
            cost.cost(t),
            analytic::ideal_fair_t(&payoff, n, t)
        );
    }
    println!();

    assert!(is_ideally_fair(&phi, &cost, &payoff, n, 0.05));
    println!("With price list C the protocol is ideally γ^C-fair: the attacker gains");
    println!("no more than it would against the incorruptible trusted party.");

    // Theorem 6(2): any strictly cheaper price list fails.
    let cheaper = CostFn::new(
        (0..n)
            .map(|t| if t == 0 { 0.0 } else { cost.cost(t) - 0.1 })
            .collect(),
    );
    assert!(!is_ideally_fair(&phi, &cheaper, &payoff, n, 0.02));
    println!("Dropping every price by 0.1 breaks ideal fairness: C is undominated (Theorem 6).");
}
