//! The run context: everything one Monte-Carlo run is configured with.
//!
//! Whoever owns a run (the batch runner, the serve backend, the trace
//! CLI, a test) builds a [`RunCtx`] and passes it by reference through the
//! experiment functions to [`crate::estimate`],
//! [`crate::partial::acceptance`] and [`crate::reconstruction::sweep`],
//! down to each trial's [`crate::run_once_traced`]; afterwards it takes
//! the parts back. `RunCtx::default()` is a plain run. Being a value, a
//! context cannot leak into a concurrent run. The worker count is not part
//! of it: that stays the process-wide `fair_simlab` scheduler setting.

use fair_simlab::Observer;
use fair_tiles::Scope;
use fair_trace::Capture;

use crate::progressive::Progressive;

/// The configuration of one run. Shared by reference between the
/// scheduler's workers.
#[derive(Default)]
pub struct RunCtx {
    /// Trial counter (and progress line), per-trial latencies, and
    /// per-protocol metrics. With an observer every trial runs through a
    /// recording tracer.
    pub observer: Option<Observer>,
    /// Transcript capture. While capturing, the tile cache is bypassed so
    /// every trial executes.
    pub capture: Option<Capture>,
    /// The tile store and `(exp, seed)` group full tiles are looked up in
    /// and recorded to.
    pub tiles: Option<Scope>,
    /// Adaptive estimation: stop each estimate once its 95% half-width
    /// reaches the target.
    pub progressive: Option<Progressive>,
}

impl RunCtx {
    /// Counts `n` trials toward the observer's progress line, for trials
    /// that run outside [`crate::estimate`] and so carry no latency or
    /// protocol metrics (no-op without an observer).
    pub fn count_trials(&self, n: usize) {
        if let Some(observer) = &self.observer {
            observer.count(n as u64);
        }
    }
}
