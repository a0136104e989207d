//! Deterministic per-protocol metrics: integer counters and histograms
//! of rounds, messages, bytes, corruptions, and aborts, keyed by scenario
//! name.
//!
//! Mirrors `fair-simlab`'s integer-tally discipline so the exported
//! summaries are **bit-identical for every `--jobs` value**: estimators
//! accumulate one [`ProtoBatch`] per scheduler tile (one mutex touch per
//! ~64 trials, never per trial) into a [`ProtoStore`]; batch merges are
//! commutative integer additions plus sample-multiset unions, and
//! [`ProtoStore::drain`] sorts every sample batch before taking order
//! statistics — so no observable output depends on which worker ran which
//! tile.
//!
//! A run collects only if it carries a store: the recorded experiment
//! runner gives each experiment its own and drains [`ProtoSummary`] rows
//! into the structured JSON records afterwards.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::event::TraceEvent;
use crate::stats::QuantileSummary;

/// Integer counters for one protocol execution, absorbed from the event
/// stream by a [`crate::RecordingTracer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rounds executed (from the `End` event).
    pub rounds: u64,
    /// Messages released into the network (broadcasts count once).
    pub msgs: u64,
    /// Total message bytes (debug-render length proxy).
    pub bytes: u64,
    /// Functionality invocations that consumed at least one message.
    pub func_calls: u64,
    /// Corruptions (initial and adaptive).
    pub corruptions: u64,
    /// Honest outputs delivered.
    pub outputs: u64,
    /// Honest outputs that were ⊥ (aborts).
    pub bots: u64,
}

impl ExecStats {
    /// Folds one event into the counters.
    pub fn absorb(&mut self, e: &TraceEvent) {
        match *e {
            TraceEvent::RoundStart { .. } => {}
            TraceEvent::Send { len, .. } => {
                self.msgs += 1;
                self.bytes += len as u64;
            }
            TraceEvent::FuncCall { .. } => self.func_calls += 1,
            TraceEvent::Corrupt { .. } => self.corruptions += 1,
            TraceEvent::Output { bot, .. } => {
                self.outputs += 1;
                if bot {
                    self.bots += 1;
                }
            }
            TraceEvent::End { rounds } => self.rounds = rounds as u64,
        }
    }
}

/// One tile's worth of per-protocol observations — the mergeable unit
/// estimators accumulate locally and submit once per tile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtoBatch {
    /// Trials observed.
    pub trials: u64,
    /// Total corruptions across the batch.
    pub corruptions: u64,
    /// Total functionality invocations across the batch.
    pub func_calls: u64,
    /// Trials in which some honest party ended with ⊥.
    pub aborts: u64,
    /// Per-trial round counts.
    pub rounds: Vec<u64>,
    /// Per-trial message counts.
    pub msgs: Vec<u64>,
    /// Per-trial byte totals.
    pub bytes: Vec<u64>,
}

impl ProtoBatch {
    /// Records one finished trial.
    pub fn record(&mut self, s: &ExecStats) {
        self.trials += 1;
        self.corruptions += s.corruptions;
        self.func_calls += s.func_calls;
        if s.bots > 0 {
            self.aborts += 1;
        }
        self.rounds.push(s.rounds);
        self.msgs.push(s.msgs);
        self.bytes.push(s.bytes);
    }

    /// Merges another batch into this one (commutative up to sample
    /// order, which [`ProtoStore::drain`] erases by sorting).
    pub fn merge(&mut self, mut other: ProtoBatch) {
        self.trials += other.trials;
        self.corruptions += other.corruptions;
        self.func_calls += other.func_calls;
        self.aborts += other.aborts;
        self.rounds.append(&mut other.rounds);
        self.msgs.append(&mut other.msgs);
        self.bytes.append(&mut other.bytes);
    }
}

/// The drained, exportable summary of one protocol's metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoSummary {
    /// Scenario name (the protocol × strategy label).
    pub name: String,
    /// Trials observed.
    pub trials: u64,
    /// Total corruptions.
    pub corruptions: u64,
    /// Total functionality invocations.
    pub func_calls: u64,
    /// Trials in which some honest party ended with ⊥.
    pub aborts: u64,
    /// Distribution of per-trial round counts.
    pub rounds: QuantileSummary,
    /// Distribution of per-trial message counts.
    pub msgs: QuantileSummary,
    /// Distribution of per-trial byte totals.
    pub bytes: QuantileSummary,
}

/// A per-protocol metrics store: [`ProtoBatch`]es merged by scenario
/// name behind one mutex, touched once per tile.
///
/// Flag-free: a run that wants metrics owns a store (inside its
/// observer) and one that does not has none, so nothing here is ever
/// switched on or off. `new` is `const`, so a long-lived service can keep
/// one in a `static`.
#[derive(Debug, Default)]
pub struct ProtoStore {
    batches: Mutex<BTreeMap<String, ProtoBatch>>,
}

impl ProtoStore {
    /// An empty store.
    pub const fn new() -> ProtoStore {
        ProtoStore {
            batches: Mutex::new(BTreeMap::new()),
        }
    }

    fn batches(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, ProtoBatch>> {
        self.batches.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Merges one tile's batch in under a scenario name (empty batches
    /// are ignored).
    pub fn record(&self, name: &str, batch: ProtoBatch) {
        if batch.trials == 0 {
            return;
        }
        let mut guard = self.batches();
        match guard.get_mut(name) {
            Some(acc) => acc.merge(batch),
            None => {
                guard.insert(name.to_string(), batch);
            }
        }
    }

    /// Merges every batch of `other` into this store.
    pub fn absorb(&self, other: ProtoStore) {
        let other = other
            .batches
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        for (name, batch) in other {
            self.record(&name, batch);
        }
    }

    /// Drains everything collected so far into per-protocol summaries,
    /// sorted by name. The output is a pure function of the recorded
    /// trial multiset — identical for every worker count.
    pub fn drain(&self) -> Vec<ProtoSummary> {
        summarize(std::mem::take(&mut *self.batches()))
    }

    /// Summarizes everything collected so far **without draining** — the
    /// live export behind `fair-serve`'s `/metrics` endpoint, which keeps
    /// accumulating across requests.
    pub fn snapshot(&self) -> Vec<ProtoSummary> {
        summarize(self.batches().clone())
    }
}

fn summarize(batches: BTreeMap<String, ProtoBatch>) -> Vec<ProtoSummary> {
    batches
        .into_iter()
        .map(|(name, b)| ProtoSummary {
            name,
            trials: b.trials,
            corruptions: b.corruptions,
            func_calls: b.func_calls,
            aborts: b.aborts,
            rounds: QuantileSummary::from_samples(b.rounds),
            msgs: QuantileSummary::from_samples(b.msgs),
            bytes: QuantileSummary::from_samples(b.bytes),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rounds: u64, msgs: u64, bytes: u64, bots: u64) -> ExecStats {
        ExecStats {
            rounds,
            msgs,
            bytes,
            func_calls: 1,
            corruptions: 1,
            outputs: 2,
            bots,
        }
    }

    #[test]
    fn empty_batches_are_ignored() {
        let store = ProtoStore::new();
        store.record("x", ProtoBatch::default());
        assert!(store.drain().is_empty());
    }

    #[test]
    fn merge_order_does_not_change_the_summary() {
        let mut b1 = ProtoBatch::default();
        b1.record(&stats(3, 5, 50, 0));
        b1.record(&stats(9, 2, 20, 1));
        let mut b2 = ProtoBatch::default();
        b2.record(&stats(6, 7, 70, 0));

        let store = ProtoStore::new();
        store.record("pi", b1.clone());
        store.record("pi", b2.clone());
        let ab = store.drain();

        store.record("pi", b2);
        store.record("pi", b1);
        let ba = store.drain();

        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 1);
        let p = &ab[0];
        assert_eq!(
            (p.trials, p.aborts, p.corruptions, p.func_calls),
            (3, 1, 3, 3)
        );
        assert_eq!((p.rounds.min, p.rounds.max, p.rounds.total), (3, 9, 18));
        assert_eq!(p.msgs.total, 14);
        assert_eq!(p.bytes.total, 140);
    }

    #[test]
    fn snapshot_reports_without_draining() {
        let mut b = ProtoBatch::default();
        b.record(&stats(3, 5, 50, 0));
        let store = ProtoStore::new();
        store.record("pi", b.clone());
        let snap = store.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].trials, 1);
        // The store still holds the batch: a later batch accumulates on
        // top of it, and drain sees both.
        store.record("pi", b);
        let drained = store.drain();
        assert_eq!(drained[0].trials, 2);
        assert!(store.snapshot().is_empty());
    }

    #[test]
    fn absorb_merges_another_store() {
        let mut b = ProtoBatch::default();
        b.record(&stats(3, 5, 50, 0));
        let long_lived = ProtoStore::new();
        long_lived.record("pi", b.clone());
        let run = ProtoStore::new();
        run.record("pi", b.clone());
        run.record("sigma", b);
        long_lived.absorb(run);
        let snap = long_lived.snapshot();
        assert_eq!(
            snap.iter()
                .map(|p| (p.name.as_str(), p.trials))
                .collect::<Vec<_>>(),
            vec![("pi", 2), ("sigma", 1)]
        );
    }

    #[test]
    fn absorb_folds_every_event_kind() {
        use crate::event::{Dst, Src};
        let mut s = ExecStats::default();
        s.absorb(&TraceEvent::RoundStart { round: 0 });
        s.absorb(&TraceEvent::Send {
            from: Src::Party(0),
            to: Dst::Func(0),
            len: 4,
        });
        s.absorb(&TraceEvent::FuncCall {
            func: 0,
            round: 0,
            msgs: 1,
        });
        s.absorb(&TraceEvent::Corrupt { party: 1, round: 0 });
        s.absorb(&TraceEvent::Output {
            party: 0,
            bot: true,
        });
        s.absorb(&TraceEvent::End { rounds: 2 });
        assert_eq!(
            s,
            ExecStats {
                rounds: 2,
                msgs: 1,
                bytes: 4,
                func_calls: 1,
                corruptions: 1,
                outputs: 1,
                bots: 1,
            }
        );
    }
}
