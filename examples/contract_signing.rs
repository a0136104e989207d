#![allow(clippy::print_stdout)] // an example reports its results on stdout
//! The paper's opening example: two ways to sign a contract.
//!
//! Runs the naive fixed-order exchange Π1 and the coin-tossed exchange Π2
//! against the same attack library and shows that Π2 is "twice as fair":
//! its best attacker gains (γ₁₀+γ₁₁)/2 instead of γ₁₀.
//!
//! Run with: `cargo run --release --example contract_signing`

use fair_core::fairness::{compare, Assessment, FairnessOrder};
use fair_core::{analytic, best_of, Payoff, RunCtx};
use fair_protocols::scenarios::contract_sweep;

fn main() {
    let payoff = Payoff::standard();
    let trials = 1500;

    let (e1, b1) = best_of(
        &RunCtx::default(),
        &contract_sweep(false),
        &payoff,
        trials,
        7,
    );
    let (e2, b2) = best_of(
        &RunCtx::default(),
        &contract_sweep(true),
        &payoff,
        trials,
        8,
    );

    println!("Π1 (fixed opening order):");
    println!("  best attack: {}", e1[b1]);
    println!(
        "  paper:       {:.4} (the attacker always wins: γ10)",
        analytic::pi1(&payoff)
    );
    println!();
    println!("Π2 (coin-tossed opening order):");
    println!("  best attack: {}", e2[b2]);
    println!("  paper:       {:.4} ((γ10+γ11)/2)", analytic::pi2(&payoff));
    println!();

    let a1 = Assessment::from_estimates("Pi1", e1);
    let a2 = Assessment::from_estimates("Pi2", e2);
    match compare(&a2, &a1, 0.02) {
        FairnessOrder::StrictlyFairer => {
            println!("Verdict: Π2 ≻ Π1 — the coin toss halves the attacker's edge, the")
        }
        other => println!("Verdict: unexpected order ({other})! the"),
    }
    println!("quantitative statement the classical all-or-nothing definitions cannot make.");
}
