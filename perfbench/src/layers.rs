//! Per-layer timings taken by calling each layer's public functions
//! directly, outside any workload: the primitives (`field`, `crypto`),
//! one engine execution per protocol family (`runtime` through
//! `fair_core::run_once`), the scheduler's fixed cost (`simlab`), the
//! scenario compiler (`scenario`) and the serving core's request path
//! (`serve`). Each figure is the median of several timed repetitions.

use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use fair_bench::servecli::ExperimentBackend;
use fair_core::strategy::CorruptionPlan;
use fair_core::{run_once, Payoff, Scenario};
use fair_field::Fp;
use fair_protocols::scenarios::{HalfScenario, HalfStrategy, OptnScenario, Strategy};
use fair_serve::service::Verdict;
use fair_serve::{Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Metrics;
use crate::{stats, RunContext};

/// Timed repetitions per figure.
const REPS: usize = 7;

/// Median over [`REPS`] repetitions of `f`, which returns the seconds one
/// operation took in that repetition.
fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| f()).collect();
    stats::median(&samples).unwrap_or(f64::NAN)
}

/// Seconds per call of `op`, timed over `iters` calls.
fn per_op(iters: u32, mut op: impl FnMut(u32)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t0.elapsed().as_secs_f64() / f64::from(iters)
}

fn field(metrics: &mut Metrics) {
    let mul = median_of(|| {
        let mut acc = Fp::new(3);
        let x = black_box(Fp::new(0x1234_5678_9abc));
        let s = per_op(1_000_000, |_| acc *= x);
        black_box(acc);
        s
    });
    let inv = median_of(|| {
        per_op(2_000, |i| {
            black_box(Fp::new(u64::from(i) + 2).inverse());
        })
    });
    metrics.insert("field.mul_ns".into(), mul * 1e9);
    metrics.insert("field.inv_ns".into(), inv * 1e9);
}

fn crypto(metrics: &mut Metrics) {
    let block = vec![0xa5u8; 1 << 20];
    let sha = median_of(|| {
        per_op(8, |_| {
            black_box(fair_crypto::sha256::sha256(black_box(&block)));
        })
    });
    metrics.insert("crypto.sha256_mib_s".into(), 1.0 / sha);
    let mut rng = StdRng::seed_from_u64(11);
    let keygen = median_of(|| {
        per_op(8, |_| {
            black_box(fair_crypto::sign::keygen(&mut rng));
        })
    });
    let (sk, vk) = fair_crypto::sign::keygen(&mut rng);
    let msg = b"fair-perfbench lamport message";
    let sig = fair_crypto::sign::sign(&sk, msg);
    let sign = median_of(|| per_op(32, |_| drop(black_box(fair_crypto::sign::sign(&sk, msg)))));
    let verify = median_of(|| {
        per_op(32, |_| {
            assert!(black_box(fair_crypto::sign::verify(&vk, msg, &sig)));
        })
    });
    metrics.insert("crypto.lamport_keygen_us".into(), keygen * 1e6);
    metrics.insert("crypto.lamport_sign_us".into(), sign * 1e6);
    metrics.insert("crypto.lamport_verify_us".into(), verify * 1e6);
}

fn run_once_ms<S: Scenario>(scenario: &S) -> f64 {
    let payoff = Payoff::standard();
    let mut seed = 0u64;
    median_of(|| {
        per_op(4, |_| {
            seed += 1;
            black_box(run_once(scenario, &payoff, seed));
        })
    }) * 1e3
}

fn runtime(metrics: &mut Metrics) {
    let half = HalfScenario {
        n: 5,
        strategy: HalfStrategy::Coalition(2),
    };
    let optn = OptnScenario {
        n: 5,
        strategy: Strategy::LockAbort(CorruptionPlan::RandomSubset(4)),
    };
    metrics.insert("runtime.run_once_ms.gmw_half_n5".into(), run_once_ms(&half));
    metrics.insert("runtime.run_once_ms.optn_n5".into(), run_once_ms(&optn));
}

fn simlab(metrics: &mut Metrics) {
    let fixed = fair_simlab::with_jobs(2, || {
        median_of(|| {
            per_op(200, |i| {
                black_box(fair_simlab::run_indexed(2, |k| black_box(k + i as usize)));
            })
        })
    });
    metrics.insert("simlab.run_indexed_us".into(), fixed * 1e6);
}

fn scenario(ctx: &RunContext, metrics: &mut Metrics) -> Result<(), String> {
    let dir = ctx.root.join("scenarios");
    let mut specs = 0;
    let load = median_of(|| {
        per_op(4, |_| {
            let loaded = fair_scenario::load_dir(&dir);
            specs = loaded.specs.len();
            black_box(loaded);
        })
    });
    if specs == 0 {
        return Err(format!("no scenarios compiled from {}", dir.display()));
    }
    metrics.insert("scenario.load_dir_ms".into(), load * 1e3);
    Ok(())
}

/// The serving core's inline path: parsing one request head, and
/// `Service::begin` answering a key already in the result cache.
fn serve(metrics: &mut Metrics) -> Result<(), String> {
    let head: &[u8] = b"GET /estimate?exp=e2&trials=64&seed=7 HTTP/1.1\r\nHost: 127.0.0.1";
    let parse = median_of(|| {
        per_op(20_000, |_| {
            black_box(fair_serve::http::parse_request(black_box(head)).is_ok());
        })
    });
    let req = fair_serve::http::parse_request(head).map_err(|e| format!("parse: {e:?}"))?;
    let service = Service::new(
        Arc::new(ExperimentBackend),
        ServiceConfig::default(),
        Arc::new(AtomicBool::new(false)),
    );
    if service.handle(&req).status != 200 {
        return Err("warming the serve micro-benchmark key failed".into());
    }
    let mut hits = true;
    let begin = median_of(|| {
        per_op(20_000, |_| {
            hits &=
                matches!(service.begin(black_box(&req)), Verdict::Reply(ref r) if r.status == 200);
        })
    });
    if !hits {
        return Err("Service::begin missed a cached key".into());
    }
    metrics.insert("serve.parse_ns".into(), parse * 1e9);
    metrics.insert("serve.begin_hit_ns".into(), begin * 1e9);
    Ok(())
}

/// Measures every layer figure above into `metrics`.
pub fn measure_all(ctx: &RunContext, metrics: &mut Metrics) -> Result<(), String> {
    field(metrics);
    crypto(metrics);
    runtime(metrics);
    simlab(metrics);
    scenario(ctx, metrics)?;
    serve(metrics)
}
