#![allow(clippy::print_stdout)] // an example reports its results on stdout
//! Fair random selection — the "future direction" flagged at the end of
//! Section 4.1: primitives like random selection, used inside larger
//! constructions, deserve optimally fair protocols of their own.
//!
//! Here the two parties jointly select a random 16-bit value by running
//! Π^Opt_2SFE on f(x₁, x₂) = x₁ ⊕ x₂ with uniformly random inputs: if both
//! parties follow the protocol the output is uniform, a corrupted party
//! cannot bias it (its input is fixed before the sharing is revealed), and
//! the *fairness* guarantee is the optimal (γ₁₀+γ₁₁)/2 of Theorem 3.
//!
//! Run with: `cargo run --release --example fair_random_selection`

use std::collections::BTreeMap;
use std::sync::Arc;

use fair_protocols::opt2::{opt2_instance, TwoPartyFn};
use fair_runtime::{execute, PartyId, Passive, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn xor_fn() -> TwoPartyFn {
    Arc::new(|a: &Value, b: &Value| {
        Value::Scalar(a.as_scalar().unwrap_or(0) ^ b.as_scalar().unwrap_or(0))
    })
}

fn main() {
    let trials = 2000;
    let mut buckets: BTreeMap<u64, usize> = BTreeMap::new();
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed);
        let x1 = rng.random_range(0u64..1 << 16);
        let x2 = rng.random_range(0u64..1 << 16);
        let inst = opt2_instance(
            "xor",
            xor_fn(),
            [Value::Scalar(x1), Value::Scalar(x2)],
            [Value::Scalar(0), Value::Scalar(0)],
        );
        let res = execute(inst, &mut Passive, &mut rng, 40).expect("execution succeeds");
        let out = res.outputs[&PartyId(0)]
            .as_scalar()
            .expect("selection value");
        assert_eq!(
            res.outputs[&PartyId(1)].as_scalar(),
            Some(out),
            "parties agree"
        );
        assert_eq!(out, x1 ^ x2);
        *buckets.entry(out >> 12).or_default() += 1; // 16 coarse buckets
    }
    println!("jointly selected {trials} random 16-bit values via Π^Opt_2SFE(xor):");
    for (bucket, count) in &buckets {
        println!("  bucket 0x{bucket:x}xxx: {count}");
    }
    let expect = trials as f64 / 16.0;
    let worst = buckets
        .values()
        .map(|&c| (c as f64 - expect).abs() / expect)
        .fold(0.0f64, f64::max);
    println!();
    println!(
        "worst bucket deviation {:.1}% — uniform as designed; and by Theorem 3 an \
         aborting party can steal the selection with probability at most 1/2, the \
         optimum for any two-party protocol.",
        worst * 100.0
    );
}
