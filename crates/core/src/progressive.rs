//! Progressive (CI-bounded) estimation settings.
//!
//! An adaptive run trades a fixed trial budget for a precision target: the
//! estimator keeps executing tile batches until the 95% confidence
//! half-width drops to `epsilon` (or the budget runs out), emitting a
//! running [`Update`] after every batch. The stop rule is a pure function
//! of the integer tallies, so adaptive results are bit-identical for every
//! worker count — exactly like fixed-budget ones.
//!
//! The settings travel in the run's context: a run built with a
//! [`Progressive`] (`RunCtx::progressive`) sends every
//! [`crate::estimate`] call down its chunked adaptive path, and
//! [`Progressive::summary`] aggregates trials used versus requested over
//! all of them, as the record's [`AdaptiveSummary`] block. A run without
//! one is unchanged.
//!
//! Updates cross threads through an `mpsc` channel rather than a callback
//! so the consumer (e.g. the serve streaming endpoint, which must write
//! progress frames to a live socket) never needs a `'static` borrow of the
//! producer's state. The channel closes when the settings are dropped.

use std::sync::mpsc::Sender;
use std::sync::Mutex;

use fair_simlab::AdaptiveSummary;

/// One progress frame: the running estimate after a tile batch.
#[derive(Clone, Debug, PartialEq)]
pub struct Update {
    /// Scenario name of the `estimate()` call reporting.
    pub scenario: String,
    /// Trials the call was asked for.
    pub requested: usize,
    /// Trials tallied so far.
    pub trials: usize,
    /// Running mean payoff.
    pub mean: f64,
    /// Running 95% confidence half-width.
    pub ci: f64,
    /// Whether this is the call's final frame (converged or exhausted).
    pub done: bool,
}

/// The progressive settings of one run: the precision target, the
/// optional live-update channel, and the accounting so far.
#[derive(Debug)]
pub struct Progressive {
    tx: Option<Sender<Update>>,
    summary: Mutex<AdaptiveSummary>,
}

impl Progressive {
    /// Adaptive estimation at precision `epsilon`. Frames go to `tx` when
    /// provided (send failures are ignored — a hung-up consumer must not
    /// stop the computation).
    pub fn new(epsilon: f64, tx: Option<Sender<Update>>) -> Progressive {
        Progressive {
            tx,
            summary: Mutex::new(AdaptiveSummary {
                epsilon,
                ..AdaptiveSummary::default()
            }),
        }
    }

    /// The precision target.
    pub fn epsilon(&self) -> f64 {
        self.summary().epsilon
    }

    /// The accounting of every adaptive `estimate()` call so far.
    pub fn summary(&self) -> AdaptiveSummary {
        *self.summary.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Emits a progress frame to the channel (no-op without one).
    pub(crate) fn emit(&self, update: Update) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(update);
        }
    }

    /// Books one finished adaptive `estimate()` call into the summary.
    pub(crate) fn note(&self, requested: usize, used: usize, early: bool) {
        let mut summary = self.summary.lock().unwrap_or_else(|e| e.into_inner());
        summary.estimates += 1;
        summary.early_stops += u64::from(early);
        summary.trials_requested += requested as u64;
        summary.trials_used += used as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(trials: usize, done: bool) -> Update {
        Update {
            scenario: "s".into(),
            requested: 100,
            trials,
            mean: 0.5,
            ci: 0.2,
            done,
        }
    }

    #[test]
    fn notes_aggregate_into_the_summary() {
        let p = Progressive::new(0.25, None);
        assert_eq!(p.epsilon(), 0.25);
        p.emit(frame(1, true)); // no channel: no-op
        p.note(1000, 256, true);
        p.note(500, 500, false);
        let summary = p.summary();
        assert_eq!(summary.estimates, 2);
        assert_eq!(summary.early_stops, 1);
        assert_eq!(summary.trials_requested, 1500);
        assert_eq!(summary.trials_used, 756);
    }

    #[test]
    fn frames_cross_the_channel_until_the_settings_drop() {
        let (tx, rx) = std::sync::mpsc::channel();
        let p = Progressive::new(0.1, Some(tx));
        p.emit(frame(64, false));
        drop(p);
        let got = rx.recv().expect("one frame");
        assert_eq!(got.trials, 64);
        assert!(!got.done);
        assert!(rx.recv().is_err(), "the channel closed with the settings");
    }
}
