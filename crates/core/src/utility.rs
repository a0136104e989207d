//! Monte-Carlo estimation of the attacker's utility u_A(Π, A).
//!
//! The paper defines u_A(Π, A) as the expected payoff of the best simulator
//! for A in the F^⊥_sfe-ideal world under the least favorable environment
//! (Eq. 2). Our concrete analogue: a [`Scenario`] bundles a protocol, an
//! input environment and an attack strategy; [`estimate`] executes it many
//! times with seeded randomness, classifies each execution into its
//! fairness event with the protocol's canonical simulator decision function
//! (see [`crate::event`]), and averages the payoffs. The estimate comes
//! with a 95% confidence half-width so experiment assertions can be made
//! statistically honest.
//!
//! Trials are sharded across workers by `fair-simlab`'s deterministic
//! scheduler: each trial's seed is [`fair_simlab::trial_seed`]`(seed, t)`
//! — a pure function of the trial index — and shards produce integer
//! [`Tally`]s merged in schedule-independent order, so the estimate is
//! **bit-identical for every worker count** (including the sequential
//! `jobs = 1` path, which runs the same tiling code). Each individual
//! protocol execution stays single-threaded, preserving reproducible
//! adversary scheduling.

use fair_runtime::{execute, execute_traced, Adversary, ExecutionResult, Instance, Value};
use fair_trace::{ExecStats, ProtoBatch, RecordingTracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ctx::RunCtx;
use crate::event::{classify, truth_from_ledger, Event, HonestCriterion};
use crate::payoff::Payoff;
use crate::progressive::{Progressive, Update};
use crate::stats;

/// One prepared execution: instance, attack strategy, ground truth.
pub struct Trial<M> {
    /// The protocol instance (parties with inputs baked in, hybrids).
    pub instance: Instance<M>,
    /// The attack strategy.
    pub adversary: Box<dyn Adversary<M>>,
    /// Ground-truth output for event classification. `None` means "read
    /// the ledger fact `y` after execution" (hybrid-protocol case).
    pub truth: Option<Value>,
    /// Round budget (0 = engine default).
    pub max_rounds: usize,
}

/// A repeatable experiment: protocol × environment × attack strategy.
pub trait Scenario {
    /// The protocol's wire message type.
    type Msg: Clone + core::fmt::Debug;

    /// Short name for reports.
    fn name(&self) -> String;

    /// Builds a fresh trial (drawing inputs and strategy randomness).
    fn build(&self, rng: &mut StdRng) -> Trial<Self::Msg>;

    /// Number of parties.
    fn n(&self) -> usize;

    /// The honest-output criterion for classification.
    fn criterion(&self) -> HonestCriterion {
        HonestCriterion::NonBot
    }
}

/// A partial event tally from a shard of trials — the mergeable unit the
/// parallel scheduler produces per tile.
///
/// The payoff of a trial is a function of its fairness event alone, so the
/// whole estimate (mean, variance, confidence interval) is derivable from
/// these four integers; integer merges commute exactly, which is what makes
/// parallel estimates bit-identical to sequential ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Event occurrence counts, in [`Event::ALL`] order.
    pub event_counts: [usize; 4],
}

impl Tally {
    /// Records one classified trial.
    pub fn record(&mut self, event: Event) {
        let idx = Event::ALL
            .iter()
            .position(|x| *x == event)
            .expect("event in ALL");
        self.event_counts[idx] += 1;
    }

    /// Merges another shard's counts into this one (commutative, exact).
    pub fn merge(mut self, other: Tally) -> Tally {
        for (a, b) in self.event_counts.iter_mut().zip(other.event_counts) {
            *a += b;
        }
        self
    }

    /// Total trials tallied.
    pub fn trials(&self) -> usize {
        self.event_counts.iter().sum()
    }

    /// Finalizes the tally into a [`UtilityEstimate`] under a payoff
    /// vector, with a 95% normal-approximation interval from
    /// [`crate::stats`].
    pub fn into_estimate(self, name: String, payoff: &Payoff) -> UtilityEstimate {
        let trials = self.trials();
        assert!(trials > 0, "cannot finalize an empty tally");
        let n = trials as f64;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for (idx, &count) in self.event_counts.iter().enumerate() {
            let pay = payoff.value(Event::ALL[idx]);
            sum += count as f64 * pay;
            sum_sq += count as f64 * pay * pay;
        }
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        let ci = stats::mean_interval(mean, var, trials, stats::Z_95).half_width();
        UtilityEstimate {
            name,
            mean,
            ci,
            trials,
            event_counts: self.event_counts,
        }
    }
}

/// A Monte-Carlo utility estimate.
#[derive(Clone, Debug)]
pub struct UtilityEstimate {
    /// Scenario name.
    pub name: String,
    /// Mean payoff (the utility estimate).
    pub mean: f64,
    /// 95% confidence half-width (normal approximation).
    pub ci: f64,
    /// Trials executed.
    pub trials: usize,
    /// Event frequencies, in [`Event::ALL`] order.
    pub event_counts: [usize; 4],
}

impl UtilityEstimate {
    /// Empirical probability of an event.
    pub fn event_rate(&self, e: Event) -> f64 {
        let idx = Event::ALL
            .iter()
            .position(|x| *x == e)
            .expect("event in ALL");
        self.event_counts[idx] as f64 / self.trials as f64
    }

    /// Whether the estimate is consistent with `target` (within the CI plus
    /// an absolute tolerance).
    pub fn consistent_with(&self, target: f64, tol: f64) -> bool {
        (self.mean - target).abs() <= self.ci + tol
    }

    /// Whether the estimate is (statistically) at most `bound`.
    pub fn at_most(&self, bound: f64, tol: f64) -> bool {
        self.mean <= bound + self.ci + tol
    }

    /// Whether the estimate is (statistically) at least `bound`.
    pub fn at_least(&self, bound: f64, tol: f64) -> bool {
        self.mean >= bound - self.ci - tol
    }
}

impl core::fmt::Display for UtilityEstimate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: u = {:.4} ± {:.4} ({} trials; E00/E01/E10/E11 = {}/{}/{}/{})",
            self.name,
            self.mean,
            self.ci,
            self.trials,
            self.event_counts[0],
            self.event_counts[1],
            self.event_counts[2],
            self.event_counts[3]
        )
    }
}

/// Runs one trial of a scenario and returns the raw execution result plus
/// the classified event.
pub fn run_once<S: Scenario>(
    scenario: &S,
    payoff: &Payoff,
    seed: u64,
) -> (ExecutionResult, Event, f64) {
    let (res, event, pay, _) = run_once_traced(&RunCtx::default(), scenario, payoff, seed);
    (res, event, pay)
}

/// [`run_once`] with observability: when the run has an observer or a
/// capture that wants this seed, the trial runs through a recording
/// tracer and returns its [`ExecStats`] (submitting the transcript to the
/// capture); otherwise it takes the plain [`execute`] path.
pub fn run_once_traced<S: Scenario>(
    ctx: &RunCtx,
    scenario: &S,
    payoff: &Payoff,
    seed: u64,
) -> (ExecutionResult, Event, f64, Option<ExecStats>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trial = scenario.build(&mut rng);
    let capture = ctx.capture.as_ref().filter(|c| c.wants(seed));
    let (res, stats) = if ctx.observer.is_some() || capture.is_some() {
        let mut tracer = RecordingTracer::with_ring(capture.map_or(0, |c| c.ring()));
        let res = execute_traced(
            trial.instance,
            trial.adversary.as_mut(),
            &mut rng,
            trial.max_rounds,
            &mut tracer,
        )
        .expect("scenario builds a well-formed instance");
        let stats = tracer.stats();
        if let Some(capture) = capture {
            capture.submit(tracer.into_transcript(seed));
        }
        (res, Some(stats))
    } else {
        let res = execute(
            trial.instance,
            trial.adversary.as_mut(),
            &mut rng,
            trial.max_rounds,
        )
        .expect("scenario builds a well-formed instance");
        (res, None)
    };
    let truth = trial.truth.unwrap_or_else(|| truth_from_ledger(&res));
    let event = classify(&res, scenario.n(), &truth, &scenario.criterion());
    let pay = payoff.value(event);
    (res, event, pay, stats)
}

/// Tiles per adaptive batch: the stopper re-checks the confidence interval
/// every `4 × TILE = 256` trials.
const ADAPTIVE_CHUNK_TILES: usize = 4;

/// Floor below which the adaptive stopper may not trigger — the normal
/// approximation behind the interval is meaningless on a handful of trials.
const ADAPTIVE_MIN_TRIALS: usize = 2 * fair_simlab::TILE;

/// Estimates the attacker's utility for a scenario by Monte Carlo.
///
/// Trials are sharded across the `fair-simlab` scheduler's workers; the
/// result is bit-identical for every `--jobs` value (see the module docs).
///
/// Two parts of the run's context refine the execution without changing
/// the result for a full-budget run:
///
/// - with a tile scope ([`RunCtx::tiles`]), full 64-trial tiles are
///   looked up before computing and recorded after, so repeat estimations
///   only pay for tiles they have never seen; merged results stay
///   byte-identical to a fresh run because the cache stores the same
///   integer tallies the fresh run would fold;
/// - with progressive settings ([`RunCtx::progressive`]), tiles run in
///   chunks and the call stops early once the 95% half-width reaches the
///   target epsilon, emitting a progress frame per chunk.
pub fn estimate<S: Scenario + Sync>(
    ctx: &RunCtx,
    scenario: &S,
    payoff: &Payoff,
    trials: usize,
    seed: u64,
) -> UtilityEstimate {
    assert!(trials > 0, "need at least one trial");
    let name = scenario.name();
    let total_tiles = trials.div_ceil(fair_simlab::TILE);
    if let Some(progressive) = &ctx.progressive {
        return estimate_adaptive(ctx, progressive, scenario, payoff, trials, seed, &name);
    }
    let tally = tally_tile_span(ctx, scenario, payoff, &name, seed, 0..total_tiles, trials);
    tally.into_estimate(name, payoff)
}

/// The chunked, CI-bounded estimation path. The stop rule is a pure
/// function of the integer tallies, so adaptive results are worker-count
/// independent too.
fn estimate_adaptive<S: Scenario + Sync>(
    ctx: &RunCtx,
    progressive: &Progressive,
    scenario: &S,
    payoff: &Payoff,
    trials: usize,
    seed: u64,
    name: &str,
) -> UtilityEstimate {
    let total_tiles = trials.div_ceil(fair_simlab::TILE);
    let mut tally = Tally::default();
    let mut next = 0usize;
    loop {
        let hi = (next + ADAPTIVE_CHUNK_TILES).min(total_tiles);
        tally = tally.merge(tally_tile_span(
            ctx,
            scenario,
            payoff,
            name,
            seed,
            next..hi,
            trials,
        ));
        next = hi;
        let est = tally.into_estimate(name.to_string(), payoff);
        let exhausted = next >= total_tiles;
        let converged = est.trials >= ADAPTIVE_MIN_TRIALS && est.ci <= progressive.epsilon();
        let done = exhausted || converged;
        progressive.emit(Update {
            scenario: name.to_string(),
            requested: trials,
            trials: est.trials,
            mean: est.mean,
            ci: est.ci,
            done,
        });
        if done {
            progressive.note(trials, est.trials, est.trials < trials);
            return est;
        }
    }
}

/// Computes the merged tally of the tile span `tiles` of the fixed tiling
/// of `[0, total)`: cached full tiles are resolved on the calling thread,
/// only the missing ones are fanned out to scheduler workers, and freshly
/// computed full tiles are recorded back. Partial tail tiles are never
/// cached — their geometry depends on `total`.
fn tally_tile_span<S: Scenario + Sync>(
    ctx: &RunCtx,
    scenario: &S,
    payoff: &Payoff,
    name: &str,
    seed: u64,
    tiles: core::ops::Range<usize>,
    total: usize,
) -> Tally {
    const TILE: usize = fair_simlab::TILE;
    let tile_range = |i: usize| i * TILE..((i + 1) * TILE).min(total);
    let full = |i: usize| (i + 1) * TILE <= total;
    // Transcript capture must observe every trial, so it bypasses the
    // cache entirely (and records nothing, keeping stored tallies pure).
    let cache = ctx.tiles.as_ref().filter(|_| ctx.capture.is_none());
    let mut slots: Vec<Option<Tally>> = tiles
        .clone()
        .map(|i| {
            cache
                .filter(|_| full(i))
                .and_then(|c| c.lookup(name, seed, i as u32))
                .and_then(tally_from_cached)
        })
        .collect();
    let missing: Vec<usize> = tiles
        .clone()
        .zip(slots.iter())
        .filter(|(_, slot)| slot.is_none())
        .map(|(i, _)| i)
        .collect();
    let computed = fair_simlab::run_indexed(missing.len(), |k| {
        compute_tile(ctx, scenario, payoff, name, seed, tile_range(missing[k]))
    });
    for (k, tally) in computed.into_iter().enumerate() {
        let i = missing[k];
        if let Some(cache) = cache.filter(|_| full(i)) {
            cache.record(name, seed, i as u32, tally_to_cached(&tally));
        }
        slots[i - tiles.start] = Some(tally);
    }
    slots
        .into_iter()
        .flatten()
        .fold(Tally::default(), Tally::merge)
}

/// Executes one tile of trials (the scheduler work unit).
fn compute_tile<S: Scenario + Sync>(
    ctx: &RunCtx,
    scenario: &S,
    payoff: &Payoff,
    name: &str,
    seed: u64,
    range: core::ops::Range<usize>,
) -> Tally {
    let mut tally = Tally::default();
    let observer = ctx.observer.as_ref();
    // Per-tile protocol-metric batch, submitted once per tile (same
    // one-mutex-touch-per-tile discipline as the latency batches).
    let mut proto = ProtoBatch::default();
    // Per-trial latency observation goes through simlab's timing
    // facade: fair-core itself never reads the wall clock (rule D1).
    let mut timer = fair_simlab::BatchTimer::start(observer, range.len());
    for t in range {
        let trial_seed = fair_simlab::trial_seed(seed, t as u64);
        let (_, event, _, stats) =
            timer.time(|| run_once_traced(ctx, scenario, payoff, trial_seed));
        tally.record(event);
        if let Some(stats) = stats {
            proto.record(&stats);
        }
    }
    timer.finish();
    if let Some(observer) = observer {
        observer.record_protocol(name, proto);
    }
    tally
}

/// Validates a cached tile before trusting it: exactly one full tile of
/// consistent counts. Anything else is treated as a miss.
fn tally_from_cached(cached: fair_tiles::TileTally) -> Option<Tally> {
    if cached.trials as usize != fair_simlab::TILE {
        return None;
    }
    let mut event_counts = [0usize; 4];
    for (dst, src) in event_counts.iter_mut().zip(cached.counts) {
        *dst = usize::try_from(src).ok()?;
    }
    let tally = Tally { event_counts };
    (tally.trials() == fair_simlab::TILE).then_some(tally)
}

fn tally_to_cached(tally: &Tally) -> fair_tiles::TileTally {
    let mut counts = [0u64; 4];
    for (dst, src) in counts.iter_mut().zip(tally.event_counts) {
        *dst = src as u64;
    }
    fair_tiles::TileTally {
        trials: tally.trials() as u32,
        counts,
    }
}

/// Estimates the utility of the *best* strategy among several scenarios
/// (the empirical analogue of `sup_A u_A(Π, A)` over a strategy library).
///
/// Returns the per-scenario estimates and the index of the maximizer.
pub fn best_of<S: Scenario + Sync>(
    ctx: &RunCtx,
    scenarios: &[S],
    payoff: &Payoff,
    trials: usize,
    seed: u64,
) -> (Vec<UtilityEstimate>, usize) {
    assert!(!scenarios.is_empty(), "need at least one scenario");
    let estimates: Vec<UtilityEstimate> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| estimate(ctx, s, payoff, trials, seed.wrapping_add((i as u64) << 32)))
        .collect();
    let best = estimates
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.mean.partial_cmp(&b.1.mean).expect("finite means"))
        .map(|(i, _)| i)
        .expect("nonempty");
    (estimates, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_runtime::{Envelope, OutMsg, Party, Passive, RoundCtx};

    /// A degenerate one-party protocol that outputs its input immediately.
    #[derive(Clone, Debug)]
    struct Echo(Value, bool);

    impl Party<()> for Echo {
        fn round(&mut self, _: &RoundCtx, _: &[Envelope<()>]) -> Vec<OutMsg<()>> {
            self.1 = true;
            vec![]
        }
        fn output(&self) -> Option<Value> {
            self.1.then(|| self.0.clone())
        }
        fn clone_box(&self) -> Box<dyn Party<()>> {
            Box::new(self.clone())
        }
    }

    struct EchoScenario;

    impl Scenario for EchoScenario {
        type Msg = ();
        fn name(&self) -> String {
            "echo".into()
        }
        fn n(&self) -> usize {
            1
        }
        fn build(&self, _rng: &mut StdRng) -> Trial<()> {
            Trial {
                instance: Instance {
                    parties: vec![Box::new(Echo(Value::Scalar(3), false))],
                    funcs: vec![],
                },
                adversary: Box::new(Passive),
                truth: Some(Value::Scalar(3)),
                max_rounds: 5,
            }
        }
    }

    fn plain() -> RunCtx {
        RunCtx::default()
    }

    #[test]
    fn passive_scenario_is_always_e01() {
        let est = estimate(&plain(), &EchoScenario, &Payoff::standard(), 50, 1);
        assert_eq!(est.mean, 0.0);
        assert_eq!(est.ci, 0.0);
        assert_eq!(est.event_rate(Event::E01), 1.0);
        assert!(est.consistent_with(0.0, 1e-9));
        assert!(est.at_most(0.0, 1e-9));
        assert!(est.at_least(0.0, 1e-9));
    }

    #[test]
    fn best_of_picks_the_maximum() {
        // Two copies of the same scenario — the tie is broken by max_by
        // (later element wins ties per max_by semantics); just check a
        // valid index and equal means.
        let (ests, best) = best_of(
            &plain(),
            &[EchoScenario, EchoScenario],
            &Payoff::standard(),
            10,
            2,
        );
        assert_eq!(ests.len(), 2);
        assert!(best < 2);
        assert_eq!(ests[0].mean, ests[1].mean);
    }

    #[test]
    fn display_contains_counts() {
        let est = estimate(&plain(), &EchoScenario, &Payoff::standard(), 4, 3);
        let s = est.to_string();
        assert!(s.contains("echo"));
        assert!(s.contains("0/4/0/0"));
    }

    #[test]
    fn tile_cache_hits_reproduce_fresh_results() {
        let fresh_640 = estimate(&plain(), &EchoScenario, &Payoff::standard(), 640, 11);
        let fresh_2000 = estimate(&plain(), &EchoScenario, &Payoff::standard(), 2000, 11);
        let store = std::sync::Arc::new(fair_tiles::Store::in_memory());
        let cached = RunCtx {
            tiles: Some(fair_tiles::Scope::new(
                std::sync::Arc::clone(&store),
                "unit",
                11,
            )),
            ..RunCtx::default()
        };
        let warm_640 = estimate(&cached, &EchoScenario, &Payoff::standard(), 640, 11);
        let warm_2000 = estimate(&cached, &EchoScenario, &Payoff::standard(), 2000, 11);
        let stats = store.stats();
        // 640 trials = tiles 0..10 (all full, all cold): 10 misses.
        // 2000 trials = tiles 0..32 (tile 31 partial): 10 prefix hits,
        // 21 full misses, the partial tile never consulted.
        assert_eq!((stats.hits, stats.misses, stats.inserts), (10, 31, 31));
        for (warm, fresh) in [(&warm_640, &fresh_640), (&warm_2000, &fresh_2000)] {
            assert_eq!(warm.event_counts, fresh.event_counts);
            assert_eq!(warm.trials, fresh.trials);
            assert_eq!(warm.mean.to_bits(), fresh.mean.to_bits());
            assert_eq!(warm.ci.to_bits(), fresh.ci.to_bits());
        }
    }

    #[test]
    fn capture_bypasses_the_tile_cache() {
        let store = std::sync::Arc::new(fair_tiles::Store::in_memory());
        let ctx = RunCtx {
            tiles: Some(fair_tiles::Scope::new(
                std::sync::Arc::clone(&store),
                "unit",
                5,
            )),
            capture: Some(fair_trace::Capture::new(
                fair_trace::CaptureFilter::FirstN(3),
                0,
            )),
            ..RunCtx::default()
        };
        let _ = estimate(&ctx, &EchoScenario, &Payoff::standard(), 128, 5);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (0, 0, 0));
        let captured = ctx.capture.expect("capture").finish();
        assert_eq!(captured.len(), 3);
    }

    #[test]
    fn observer_sees_every_trial_and_protocol() {
        let ctx = RunCtx {
            observer: Some(fair_simlab::Observer::new(None)),
            ..RunCtx::default()
        };
        let _ = estimate(&ctx, &EchoScenario, &Payoff::standard(), 100, 5);
        let (latency, protocols) = ctx.observer.expect("observer").finish();
        assert_eq!(latency.expect("timed").count, 100);
        let protocols = protocols.drain();
        assert_eq!(protocols.len(), 1);
        assert_eq!(
            (protocols[0].name.as_str(), protocols[0].trials),
            ("echo", 100)
        );
    }

    #[test]
    fn adaptive_stopper_converges_early_and_stays_exact() {
        // Zero-variance scenario: the half-width is 0 after the first
        // chunk, so a 1000-trial request stops at 256 trials.
        let (tx, rx) = std::sync::mpsc::channel();
        let ctx = RunCtx {
            progressive: Some(Progressive::new(0.05, Some(tx))),
            ..RunCtx::default()
        };
        let est = estimate(&ctx, &EchoScenario, &Payoff::standard(), 1000, 13);
        let summary = ctx.progressive.expect("progressive").summary();
        assert_eq!(est.trials, ADAPTIVE_CHUNK_TILES * fair_simlab::TILE);
        assert_eq!(est.event_rate(Event::E01), 1.0);
        assert_eq!(summary.estimates, 1);
        assert_eq!(summary.early_stops, 1);
        assert_eq!(summary.trials_requested, 1000);
        assert_eq!(summary.trials_used, 256);
        let frames: Vec<_> = rx.try_iter().collect();
        assert_eq!(frames.len(), 1);
        assert!(frames[0].done);
        assert_eq!(frames[0].trials, 256);
        assert_eq!(frames[0].requested, 1000);
    }

    #[test]
    fn adaptive_exhaustion_matches_fixed_budget_bit_for_bit() {
        // An unreachable epsilon forces the adaptive path to spend the
        // whole budget; the result must equal the plain path exactly.
        let fixed = estimate(&plain(), &EchoScenario, &Payoff::standard(), 500, 17);
        let ctx = RunCtx {
            progressive: Some(Progressive::new(-1.0, None)),
            ..RunCtx::default()
        };
        let adaptive = estimate(&ctx, &EchoScenario, &Payoff::standard(), 500, 17);
        let summary = ctx.progressive.expect("progressive").summary();
        assert_eq!(adaptive.event_counts, fixed.event_counts);
        assert_eq!(adaptive.mean.to_bits(), fixed.mean.to_bits());
        assert_eq!(adaptive.ci.to_bits(), fixed.ci.to_bits());
        assert_eq!(summary.trials_used, 500);
        assert_eq!(summary.early_stops, 0);
    }
}
