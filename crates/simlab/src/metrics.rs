//! Run observability: the [`Observer`] one run carries — its trial
//! counter (behind the live progress line), per-trial latency samples
//! (min/p50/p99/max summaries), and per-protocol metric batches.
//!
//! A run observes only if it owns an observer, so unit tests and library
//! consumers pay nothing. The `reproduce` runner gives each experiment a
//! fresh one and summarizes it afterwards. The counter is an atomic;
//! latency samples and protocol batches arrive once per tile, so their
//! mutexes are touched once per ~64 trials, never per trial.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fair_trace::{ProtoBatch, ProtoStore};

/// Everything one run observes. Shared by reference between the
/// scheduler's workers.
#[derive(Debug)]
pub struct Observer {
    /// Label of the stderr progress line (`None` = no progress line).
    label: Option<String>,
    trials: AtomicU64,
    samples: Mutex<Vec<u64>>,
    protocols: ProtoStore,
}

impl Observer {
    /// An observer. With a `label`, [`Observer::reporting`] prints
    /// `[simlab] <label>: N trials, R trials/s` progress lines.
    pub fn new(label: Option<&str>) -> Observer {
        Observer {
            label: label.map(str::to_string),
            trials: AtomicU64::new(0),
            samples: Mutex::default(),
            protocols: ProtoStore::new(),
        }
    }

    /// Counts `n` finished trials.
    pub fn count(&self, n: u64) {
        self.trials.fetch_add(n, Relaxed);
    }

    /// Runs `f` while a ticker thread prints the progress line every 2 s
    /// (just `f` without a label). The ticker is joined when its current
    /// sleep ends, so the call returns on a 2 s boundary (see ROADMAP).
    #[allow(clippy::print_stderr)] // the progress line is for the operator
    pub fn reporting<T>(&self, f: impl FnOnce() -> T) -> T {
        let Some(label) = &self.label else {
            return f();
        };
        // `running` drops when `f` returns or unwinds, ending the ticker.
        let (running, stopped) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let t0 = Instant::now();
                loop {
                    std::thread::sleep(Duration::from_secs(2));
                    if stopped.try_recv() != Err(TryRecvError::Empty) {
                        break;
                    }
                    let done = self.trials.load(Relaxed);
                    let rate = done as f64 / t0.elapsed().as_secs_f64();
                    if done > 0 {
                        eprintln!("[simlab] {label}: {done} trials, {rate:.0} trials/s");
                    }
                }
            });
            let _running = running;
            f()
        })
    }

    /// Records a finished batch of trials with their per-trial latencies.
    pub fn record_latencies(&self, latencies_ns: &[u64]) {
        if latencies_ns.is_empty() {
            return;
        }
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(latencies_ns);
        self.count(latencies_ns.len() as u64);
    }

    /// Merges one tile's per-protocol batch under a scenario name.
    pub fn record_protocol(&self, name: &str, batch: ProtoBatch) {
        self.protocols.record(name, batch);
    }

    /// Ends the observation: the latency summary (`None` when no trial
    /// was timed) and the per-protocol batches.
    pub fn finish(self) -> (Option<LatencySummary>, ProtoStore) {
        let samples = self.samples.into_inner().unwrap_or_else(|e| e.into_inner());
        (LatencySummary::from_samples(samples), self.protocols)
    }
}

/// Distribution summary of per-trial execution latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of trials measured.
    pub count: usize,
    /// Fastest trial, nanoseconds.
    pub min_ns: u64,
    /// Median trial, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile trial, nanoseconds.
    pub p99_ns: u64,
    /// Slowest trial, nanoseconds.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes a set of per-trial latencies (`None` when empty).
    ///
    /// Percentile indices come from `fair_trace::stats::percentile_index`
    /// — exact integer arithmetic shared with the trace histograms. The
    /// float formulation this replaces (`round((count − 1) as f64 * p)`)
    /// mis-indexed exact-halfway cases: `0.99` is not representable in
    /// binary, so `50 × 0.99` evaluated to `49.499…` and truncated the
    /// p99 of a 51-sample batch to index 49 instead of 50.
    pub fn from_samples(mut samples: Vec<u64>) -> Option<LatencySummary> {
        use fair_trace::stats::{percentile_index, P50, P99};
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let count = samples.len();
        Some(LatencySummary {
            count,
            min_ns: samples[0],
            p50_ns: samples[percentile_index(count, P50)],
            p99_ns: samples[percentile_index(count, P99)],
            max_ns: samples[count - 1],
        })
    }
}

impl core::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "min {} / p50 {} / p99 {} / max {}",
            fmt_ns(self.min_ns),
            fmt_ns(self.p50_ns),
            fmt_ns(self.p99_ns),
            fmt_ns(self.max_ns)
        )
    }
}

/// Renders a nanosecond count with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The per-trial timing facade: wall-clock reads stay inside `simlab`
/// (fairlint rule D1 keeps `Instant` out of the determinism-boundary
/// crates), and estimators just wrap each trial in [`BatchTimer::time`].
///
/// Without an observer the timer is a no-op: no clock is read and nothing
/// is allocated.
///
/// # Examples
///
/// ```
/// use fair_simlab::metrics::{BatchTimer, Observer};
///
/// let observer = Observer::new(None);
/// let mut timer = BatchTimer::start(Some(&observer), 8);
/// let answer = timer.time(|| 2 + 2);
/// assert_eq!(answer, 4);
/// timer.finish(); // records the batch into the observer
/// assert_eq!(observer.finish().0.map(|l| l.count), Some(1));
/// ```
#[derive(Debug)]
pub struct BatchTimer<'a> {
    observer: Option<&'a Observer>,
    samples: Vec<u64>,
}

impl<'a> BatchTimer<'a> {
    /// Creates a timer for a batch of up to `capacity` timed calls,
    /// reporting to `observer` (a no-op timer when `None`).
    pub fn start(observer: Option<&'a Observer>, capacity: usize) -> BatchTimer<'a> {
        BatchTimer {
            observer,
            samples: Vec::with_capacity(if observer.is_some() { capacity } else { 0 }),
        }
    }

    /// Runs `f`, recording its wall-clock latency when observed;
    /// transparent otherwise.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if self.observer.is_none() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.samples.push(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Submits the batch to the observer.
    pub fn finish(self) {
        if let Some(observer) = self.observer {
            observer.record_latencies(&self.samples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles_are_order_statistics() {
        let s = LatencySummary::from_samples((1..=100).collect()).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.p50_ns, 51); // index round(99*0.5)=50 → value 51
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
        assert!(LatencySummary::from_samples(vec![]).is_none());
    }

    #[test]
    fn summary_handles_tiny_batches_exactly() {
        // 0 elements: no summary.
        assert!(LatencySummary::from_samples(vec![]).is_none());
        // 1 element: every statistic is that element.
        let s1 = LatencySummary::from_samples(vec![42]).unwrap();
        assert_eq!(
            (s1.count, s1.min_ns, s1.p50_ns, s1.p99_ns, s1.max_ns),
            (1, 42, 42, 42, 42)
        );
        // 2 elements: the halfway median index rounds up to the larger.
        let s2 = LatencySummary::from_samples(vec![30, 10]).unwrap();
        assert_eq!(
            (s2.count, s2.min_ns, s2.p50_ns, s2.p99_ns, s2.max_ns),
            (2, 10, 30, 30, 30)
        );
    }

    #[test]
    fn summary_of_one_tile_matches_order_statistics() {
        // 64 samples — exactly one scheduler tile. Indices:
        // round(63·0.5) = 32 (31.5 rounds up), round(63·0.99) = 62.
        let s = LatencySummary::from_samples((1..=64).rev().collect()).unwrap();
        assert_eq!(s.count, 64);
        assert_eq!((s.min_ns, s.p50_ns, s.p99_ns, s.max_ns), (1, 33, 63, 64));
    }

    #[test]
    fn halfway_percentile_indices_are_exact() {
        // 51 samples: (51−1)·0.99 = 49.5 exactly → index 50. The float
        // formula this pins against computed 49.499… and picked 49.
        let s = LatencySummary::from_samples((1..=51).collect()).unwrap();
        assert_eq!(s.p99_ns, 51);
        assert_eq!(s.p50_ns, 26);
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.20s");
    }

    #[test]
    fn unobserved_timer_is_a_no_op() {
        let mut timer = BatchTimer::start(None, 8);
        assert_eq!(timer.time(|| 7), 7);
        assert!(timer.samples.is_empty());
        timer.finish();
    }

    #[test]
    fn observer_counts_trials_and_summarizes_latencies() {
        let observer = Observer::new(Some("unit"));
        observer.record_latencies(&[30, 10, 20]);
        observer.record_latencies(&[]);
        observer.count(5);
        assert_eq!(observer.trials.load(Relaxed), 8);
        let mut batch = ProtoBatch::default();
        batch.record(&fair_trace::ExecStats::default());
        observer.record_protocol("pi", batch);
        let (latency, protocols) = observer.finish();
        let lat = latency.expect("samples recorded");
        assert_eq!((lat.count, lat.min_ns, lat.max_ns), (3, 10, 30));
        assert_eq!(protocols.drain()[0].trials, 1);
        assert!(Observer::new(None).finish().0.is_none());
    }

    #[test]
    fn reporting_returns_the_result_and_stops_the_ticker() {
        assert_eq!(Observer::new(None).reporting(|| 7), 7);
        // A panicking run still stops and joins the ticker.
        let labelled = Observer::new(Some("unit"));
        let unwound = std::panic::catch_unwind(|| labelled.reporting(|| panic!("run failed")));
        assert!(unwound.is_err());
    }
}
