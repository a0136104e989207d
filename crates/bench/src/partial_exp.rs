//! E12 — the Section 5 separation: Π̃ is 1/2-secure and fully private in
//! the Gordon–Katz sense (Lemma 27), yet no simulator can make its ideal
//! F^{∧,$} execution match the real one (Lemma 26).
//!
//! The real side runs the actual Π̃ protocol (probing adversary included)
//! on the engine; the ideal side samples the F^{∧,$} experiment directly
//! from its Figure-1 semantics for a grid of candidate simulators:
//!
//! * every simulator chooses the corrupted p₂'s substituted input
//!   x₂′ ∈ {0, 1}, whether to simulate a step-2 reply (probability q) and
//!   with what content (a uniform guess, or the output learned from F when
//!   x₂′ = 1), and whether to deliver p₁'s output or abort (replacing it by
//!   a sample of Y₁(x₁) = x₁ ∧ U).
//!
//! The environments are the paper's Z₁/Z₂ (Lemma 26): with x₁ uniform and
//! the dishonest p₂ opening with a 1-bit, Z₂ accepts on any non-empty
//! reply, Z₁ accepts when the reply equals x₁ *and* z₁ = 0.

use fair_core::partial::{acceptance, Acceptance};
use fair_core::RunCtx;
use fair_protocols::leaky::probe_real;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::table::{Report, Row};

/// Real-world acceptance probabilities of Z₁ and Z₂ against Π̃.
pub fn real_acceptances(ctx: &RunCtx, trials: usize, seed: u64) -> (Acceptance, Acceptance) {
    let z1 = acceptance(
        ctx,
        |s| {
            let mut rng = StdRng::seed_from_u64(s);
            let x1 = rng.random_range(0u64..2);
            let obs = probe_real(x1, 0, s ^ 0xabcd);
            obs.reply == Some(Some(x1)) && obs.z1 == fair_runtime::Value::Scalar(0)
        },
        trials,
        seed,
    );
    let z2 = acceptance(
        ctx,
        |s| {
            let mut rng = StdRng::seed_from_u64(s);
            let _x1 = rng.random_range(0u64..2);
            let obs = probe_real(_x1, 0, s ^ 0xabcd);
            matches!(obs.reply, Some(Some(_)))
        },
        trials,
        seed,
    );
    (z1, z2)
}

/// A candidate simulator for the ideal F^{∧,$} world.
#[derive(Clone, Copy, Debug)]
pub struct Simulator {
    /// Probability of simulating a non-empty step-2 reply.
    pub q: f64,
    /// Substituted input for the corrupted p₂ (learning x₁ requires 1).
    pub x2_sub: u64,
    /// Reply content: `true` = the value learned from F (only meaningful
    /// with `x2_sub = 1`), `false` = a uniform guess.
    pub reply_learned: bool,
    /// Abort after learning (replacing p₁'s output by Y₁(x₁) = x₁ ∧ U)
    /// instead of delivering.
    pub abort_replace: bool,
}

/// Samples one ideal-world run of the Lemma 26 experiment under `sim`,
/// returning (Z₁ accepts, Z₂ accepts).
pub fn ideal_run(sim: &Simulator, rng: &mut StdRng) -> (bool, bool) {
    let x1 = rng.random_range(0u64..2);
    // F^{∧,$} computes y against the substituted input.
    let y = x1 & sim.x2_sub;
    // z1: delivered or randomized per Figure 1.
    let z1 = if sim.abort_replace {
        x1 & rng.random_range(0u64..2) // Y1(x1): f(x1, uniform)
    } else {
        y
    };
    // Simulated step-2 reply.
    let reply: Option<u64> = if rng.random_bool(sim.q) {
        Some(if sim.reply_learned {
            y
        } else {
            rng.random_range(0u64..2)
        })
    } else {
        None
    };
    let z1_ok = reply == Some(x1) && z1 == 0;
    let z2_ok = reply.is_some();
    (z1_ok, z2_ok)
}

/// Ideal-world acceptance probabilities for a simulator.
pub fn ideal_acceptances(
    ctx: &RunCtx,
    sim: &Simulator,
    trials: usize,
    seed: u64,
) -> (Acceptance, Acceptance) {
    let z1 = acceptance(
        ctx,
        |s| {
            let mut rng = StdRng::seed_from_u64(s);
            ideal_run(sim, &mut rng).0
        },
        trials,
        seed,
    );
    let z2 = acceptance(
        ctx,
        |s| {
            let mut rng = StdRng::seed_from_u64(s);
            ideal_run(sim, &mut rng).1
        },
        trials,
        seed ^ 1,
    );
    (z1, z2)
}

/// The simulator grid searched in the Lemma 26 experiment.
pub fn simulator_grid() -> Vec<Simulator> {
    let mut out = Vec::new();
    for qi in 0..=10 {
        let q = qi as f64 * 0.05;
        // Guessing simulator (x2' = 0 keeps z1 = 0).
        out.push(Simulator {
            q,
            x2_sub: 0,
            reply_learned: false,
            abort_replace: false,
        });
        // Learning simulator, delivering.
        out.push(Simulator {
            q,
            x2_sub: 1,
            reply_learned: true,
            abort_replace: false,
        });
        // Learning simulator, aborting with randomized replacement.
        out.push(Simulator {
            q,
            x2_sub: 1,
            reply_learned: true,
            abort_replace: true,
        });
        // Learning simulator that guesses the reply anyway.
        out.push(Simulator {
            q,
            x2_sub: 1,
            reply_learned: false,
            abort_replace: true,
        });
    }
    out
}

/// E12 — the full separation experiment.
pub fn e12(ctx: &RunCtx, trials: usize, seed: u64) -> Report {
    // Leak statistics (the protocol's defect, and the privacy side).
    // Probed through the simlab scheduler: integer per-tile counts make the
    // result bit-identical for every worker count.
    let probe_trials = trials.min(600);
    let probe_tiles = fair_simlab::run_tiled(probe_trials, |range| {
        let mut leaks = 0usize;
        let mut correct = true;
        for t in range {
            let s = fair_simlab::trial_seed(seed, t as u64);
            let mut rng = StdRng::seed_from_u64(s);
            let x1 = rng.random_range(0u64..2);
            let obs = probe_real(x1, 0, s ^ 0x7777);
            if let Some(Some(b)) = obs.reply {
                leaks += 1;
                correct &= b == x1;
            }
        }
        (leaks, correct)
    });
    let leaks: usize = probe_tiles.iter().map(|t| t.0).sum();
    let leak_correct = probe_tiles.iter().all(|t| t.1);
    let leak_rate = leaks as f64 / probe_trials as f64;

    // The Lemma 26 separation constant is small (the best simulator in the
    // grid still misses one distinguisher by ≈ 1/20), so the acceptance
    // estimates it rests on need resolution well below that regardless of
    // the caller's trial budget — at 150 trials the per-rate noise (±0.06)
    // would swamp the gap entirely.
    let sep_trials = trials.max(2500);

    // Real-world Z1/Z2 acceptance.
    let (rz1, rz2) = real_acceptances(ctx, sep_trials, seed ^ 0x5151);

    // Lemma 26: minimum over the simulator grid of the worst distinguisher
    // advantage.
    let mut min_max_gap = f64::INFINITY;
    let mut best_sim = None;
    for sim in simulator_grid() {
        let (iz1, iz2) = ideal_acceptances(ctx, &sim, sep_trials, seed ^ 0x2626);
        let gap = (rz1.rate - iz1.rate).abs().max((rz2.rate - iz2.rate).abs());
        if gap < min_max_gap {
            min_max_gap = gap;
            best_sim = Some(sim);
        }
    }

    // Lemma 27 (1/2-security): the explicit simulator — q = 1/4, guessing
    // reply, honest-input ideal AND — keeps both distinguishers within 1/2.
    let explicit = Simulator {
        q: 0.25,
        x2_sub: 0,
        reply_learned: false,
        abort_replace: false,
    };
    let (ez1, ez2) = ideal_acceptances(ctx, &explicit, sep_trials, seed ^ 0x2727);
    let half_gap = (rz1.rate - ez1.rate).abs().max((rz2.rate - ez2.rate).abs());

    // Lemma 27 (privacy): the view simulator substitutes x2' = 1, learns
    // x1 from F, and reproduces the reply distribution exactly. Compare
    // the three-symbol view distribution (no reply / empty / leak content).
    let view_gap = {
        let real_view = |s: u64| {
            let mut rng = StdRng::seed_from_u64(s);
            let x1 = rng.random_range(0u64..2);
            let obs = probe_real(x1, 0, s ^ 0x99);
            match obs.reply {
                Some(Some(b)) => 2 + b as usize, // leak of bit b
                Some(None) => 1,                 // explicit empty message
                None => 0,
            }
        };
        let sim_view = |s: u64| {
            let mut rng = StdRng::seed_from_u64(s ^ 0xfeed);
            let x1 = rng.random_range(0u64..2);
            // Simulator learned x1 via x2' = 1 and mimics p1 exactly.
            if rng.random_bool(0.25) {
                2 + x1 as usize
            } else {
                1
            }
        };
        let (real_counts, sim_counts) = fair_simlab::run_tiled(probe_trials, |range| {
            let mut real = [0usize; 4];
            let mut sim = [0usize; 4];
            for t in range {
                real[real_view(fair_simlab::trial_seed(seed ^ 0x3100, t as u64))] += 1;
                sim[sim_view(fair_simlab::trial_seed(seed ^ 0x6200, t as u64))] += 1;
            }
            (real, sim)
        })
        .into_iter()
        .fold(([0usize; 4], [0usize; 4]), |(mut ra, mut sa), (r, s)| {
            for i in 0..4 {
                ra[i] += r[i];
                sa[i] += s[i];
            }
            (ra, sa)
        });
        let n = probe_trials as f64;
        (0..4)
            .map(|i| (real_counts[i] as f64 / n - sim_counts[i] as f64 / n).abs())
            .fold(0.0f64, f64::max)
    };

    let rows = vec![
        Row::vs_paper(
            "Pr[input leak] (= 1/4·Pr[C=1])",
            0.25,
            leak_rate,
            0.05,
            0.02,
        ),
        Row::check("every leak reveals the true x1", 1.0, leak_correct),
        Row::vs_paper("real Pr[Z1 = 1]", 0.25, rz1.rate, rz1.ci, 0.05),
        Row::vs_paper("real Pr[Z2 = 1]", 0.25, rz2.rate, rz2.ci, 0.05),
        Row::check(
            format!(
                "Lemma 26: min over simulators of max distinguisher gap (best sim {:?})",
                best_sim
            ),
            min_max_gap,
            min_max_gap > 0.02,
        ),
        Row::upper_bound(
            "Lemma 27: explicit simulator's gap ≤ 1/2",
            0.5,
            half_gap,
            0.03,
            0.0,
        ),
        Row::upper_bound(
            "Lemma 27: privacy — view simulation gap",
            0.06,
            view_gap,
            0.03,
            0.0,
        ),
    ];
    Report::new(
        "E12",
        "Π̃ separates 1/p-security from utility-based fairness (Lemmas 25–27)",
        rows,
    )
}

/// E17 — Theorem 23, the realization statement: the Gordon–Katz protocol's
/// real observable distribution (what the adversary learned, what the
/// honest party output) is statistically indistinguishable from the
/// F^{∧,$} ideal world with the paper's simulator. Measured as total
/// variation distance over the joint outcome space.
pub fn e17(ctx: &RunCtx, trials: usize, seed: u64) -> Report {
    use fair_protocols::gordon_katz::{
        gk_instance, ideal_observables, AbortRule, GkAttack, GkConfig, ValueSampler,
    };
    use fair_protocols::opt2::TwoPartyFn;
    use fair_runtime::{execute, PartyId, Value};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let and_fn: TwoPartyFn = Arc::new(|a: &Value, b: &Value| {
        Value::Scalar((a.as_scalar().unwrap_or(0) & 1) & (b.as_scalar().unwrap_or(0) & 1))
    });
    let bit: ValueSampler = Arc::new(|rng: &mut StdRng| Value::Scalar(rng.random_range(0..2)));
    let cfg = GkConfig::poly_domain(Arc::clone(&and_fn), 2, 2, Arc::clone(&bit), bit);

    let symbol = |learned: &Option<Value>, honest: &Value| -> String {
        format!(
            "learned={:?},honest={honest}",
            learned.as_ref().map(|v| v.to_string())
        )
    };

    let mut rows = Vec::new();
    for rule in [
        AbortRule::AtRound(2),
        AbortRule::OnValue(Value::Scalar(1)),
        AbortRule::Never,
    ] {
        // Symbol counting is sharded across the simlab scheduler; per-tile
        // BTreeMaps merge by integer addition, so the joint distribution is
        // bit-identical for every worker count.
        let (real_counts, ideal_counts) = fair_simlab::run_tiled(trials, |range| {
            let mut real: BTreeMap<String, usize> = BTreeMap::new();
            let mut ideal: BTreeMap<String, usize> = BTreeMap::new();
            ctx.count_trials(range.len());
            for t in range {
                let s = fair_simlab::trial_seed(seed, t as u64);
                // Shared environment: uniform bit inputs.
                let mut env = StdRng::seed_from_u64(s);
                let x1 = Value::Scalar(env.random_range(0..2));
                let x2 = Value::Scalar(env.random_range(0..2));
                // Real world.
                let mut rng = StdRng::seed_from_u64(s ^ 0x5eed);
                let inst = gk_instance("and", cfg.clone(), [x1.clone(), x2.clone()]);
                let mut adv = GkAttack::new(rule.clone());
                let res =
                    execute(inst, &mut adv, &mut rng, 3 * cfg.m + 20).expect("execution succeeds");
                let honest = res.outputs.get(&PartyId(1)).cloned().unwrap_or(Value::Bot);
                *real.entry(symbol(&res.learned, &honest)).or_default() += 1;
                // Ideal world (decorrelated randomness).
                let mut irng = StdRng::seed_from_u64(s ^ 0xdead_0000);
                let (il, ih) = ideal_observables(&cfg, &rule, &x1, &x2, &mut irng);
                *ideal.entry(symbol(&il, &ih)).or_default() += 1;
            }
            (real, ideal)
        })
        .into_iter()
        .fold(
            (BTreeMap::new(), BTreeMap::new()),
            |(mut ra, mut ia): (BTreeMap<String, usize>, BTreeMap<String, usize>), (r, i)| {
                for (k, v) in r {
                    *ra.entry(k).or_default() += v;
                }
                for (k, v) in i {
                    *ia.entry(k).or_default() += v;
                }
                (ra, ia)
            },
        );
        let mut keys: Vec<String> = real_counts
            .keys()
            .chain(ideal_counts.keys())
            .cloned()
            .collect();
        keys.sort();
        keys.dedup();
        let n = trials as f64;
        let tv: f64 = keys
            .iter()
            .map(|k| {
                let r = *real_counts.get(k).unwrap_or(&0) as f64 / n;
                let i = *ideal_counts.get(k).unwrap_or(&0) as f64 / n;
                (r - i).abs()
            })
            .sum::<f64>()
            / 2.0;
        rows.push(Row::upper_bound(
            format!("TV(real, F^$-ideal) under {rule:?}"),
            0.06,
            tv,
            0.02,
            0.0,
        ));
    }
    Report::new(
        "E17",
        "Theorem 23: the GK protocol realizes F^{∧,$} — real and ideal observables coincide",
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_run_matches_closed_forms() {
        // S_A with q = 1/4: Z2 = 1/4, Z1 = q/2 = 1/8.
        let sim = Simulator {
            q: 0.25,
            x2_sub: 0,
            reply_learned: false,
            abort_replace: false,
        };
        let (z1, z2) = ideal_acceptances(&RunCtx::default(), &sim, 20_000, 5);
        assert!((z2.rate - 0.25).abs() < 0.02, "Z2 = {}", z2.rate);
        assert!((z1.rate - 0.125).abs() < 0.02, "Z1 = {}", z1.rate);
        // S_C (learning + abort-replace) with q = 1/4: Z1 = 3q/4 = 3/16.
        let sim_c = Simulator {
            q: 0.25,
            x2_sub: 1,
            reply_learned: true,
            abort_replace: true,
        };
        let (z1c, _) = ideal_acceptances(&RunCtx::default(), &sim_c, 20_000, 6);
        assert!((z1c.rate - 0.1875).abs() < 0.02, "Z1(C) = {}", z1c.rate);
    }

    #[test]
    fn e12_reproduces() {
        let r = e12(&RunCtx::default(), 400, 12);
        assert!(r.pass(), "{}", r.render());
    }

    #[test]
    fn e17_reproduces() {
        let r = e17(&RunCtx::default(), 600, 17);
        assert!(r.pass(), "{}", r.render());
    }
}
