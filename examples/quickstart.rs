#![allow(clippy::print_stdout)] // an example reports its results on stdout
//! Quickstart: measure how fair a protocol is.
//!
//! Builds the paper's optimally fair two-party protocol Π^Opt_2SFE for the
//! swap function, attacks it with the strategy library, and prints the
//! attacker utilities next to the paper's (γ₁₀+γ₁₁)/2 bound.
//!
//! Run with: `cargo run --release --example quickstart`

use fair_core::{analytic, best_of, Payoff, RunCtx};
use fair_protocols::scenarios::opt2_sweep;

fn main() {
    // An attacker's preferences: γ = (γ00, γ01, γ10, γ11) ∈ Γ⁺_fair.
    let payoff = Payoff::standard();
    println!(
        "payoff vector: γ00={}, γ01={}, γ10={}, γ11={}",
        payoff.g00, payoff.g01, payoff.g10, payoff.g11
    );
    println!();

    // Sweep the attack-strategy library over Π^Opt_2SFE (swap function).
    let trials = 1500;
    let (estimates, best) = best_of(&RunCtx::default(), &opt2_sweep(), &payoff, trials, 42);
    for e in &estimates {
        println!("{e}");
    }
    println!();
    println!("best attack:     {}", estimates[best]);
    println!(
        "paper's optimum: {:.4}  (Theorem 3: (γ10+γ11)/2)",
        analytic::opt2(&payoff)
    );
    println!();
    println!(
        "The best attacker gains {:.3}, matching the paper's optimal-fairness bound: \
         no protocol for generic functions can push it lower (Theorem 4).",
        estimates[best].mean
    );
}
