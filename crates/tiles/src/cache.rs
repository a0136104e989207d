//! The process-global store installation and the per-run tile [`Scope`].
//!
//! The estimator (`fair_core::utility::estimate`) keys its lookups under
//! the `(exp, base seed)` group of the run it belongs to. That pair is
//! known only to whoever starts the run (the batch runner, the serve
//! backend), so they build a [`Scope`] — a store handle plus the group —
//! and pass it down inside the run's context. A run without a scope never
//! touches a store; the cache is strictly opt-in.
//!
//! The one process-wide piece is the installed store: a server hands its
//! backend no per-request state, so [`install`]/[`installed`] are how a
//! run finds the store it should scope into.

use std::sync::{Arc, RwLock};

use crate::store::{GroupKey, StatsSnapshot, Store, TileKey, TileTally};

static STORE: RwLock<Option<Arc<Store>>> = RwLock::new(None);

/// Installs `store` as the process-global tile store, replacing (and
/// returning) any previous one.
pub fn install(store: Arc<Store>) -> Option<Arc<Store>> {
    let mut slot = STORE.write().unwrap_or_else(|e| e.into_inner());
    slot.replace(store)
}

/// Removes and returns the installed store.
pub fn uninstall() -> Option<Arc<Store>> {
    let mut slot = STORE.write().unwrap_or_else(|e| e.into_inner());
    slot.take()
}

/// The currently installed store, if any.
pub fn installed() -> Option<Arc<Store>> {
    STORE.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Flushes the installed store's dirty groups to disk. Returns the number
/// of files written (0 when no store, in-memory store, or nothing dirty);
/// I/O errors are swallowed — a cache that fails to persist is still a
/// working cache.
pub fn flush() -> usize {
    installed().and_then(|s| s.flush().ok()).unwrap_or(0)
}

/// Stats snapshot of the installed store, if any.
pub fn snapshot() -> Option<StatsSnapshot> {
    installed().map(|s| s.stats())
}

/// A store entered under one `(exp, base seed)` group: what one run looks
/// its tiles up in and records them to.
#[derive(Clone)]
pub struct Scope {
    store: Arc<Store>,
    group: GroupKey,
}

impl Scope {
    /// `store` scoped to the group `(exp, base_seed)`.
    pub fn new(store: Arc<Store>, exp: &str, base_seed: u64) -> Scope {
        Scope {
            store,
            group: GroupKey {
                exp: exp.to_string(),
                base_seed,
            },
        }
    }

    /// The [`installed`] store scoped to `(exp, base_seed)`; `None` when
    /// no store is installed.
    pub fn installed(exp: &str, base_seed: u64) -> Option<Scope> {
        installed().map(|store| Scope::new(store, exp, base_seed))
    }

    /// Looks up a tile of this group; hit/miss counters tick.
    pub fn lookup(&self, stream: &str, stream_seed: u64, index: u32) -> Option<TileTally> {
        self.store.get(
            &self.group,
            &TileKey {
                stream: stream.to_string(),
                stream_seed,
                index,
            },
        )
    }

    /// Records a freshly computed tile under this group.
    pub fn record(&self, stream: &str, stream_seed: u64, index: u32, tally: TileTally) {
        self.store.put(
            self.group.clone(),
            TileKey {
                stream: stream.to_string(),
                stream_seed,
                index,
            },
            tally,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TALLY: TileTally = TileTally {
        trials: 1,
        counts: [1, 0, 0, 0],
    };

    #[test]
    fn scopes_separate_groups_of_one_store() {
        let store = Arc::new(Store::in_memory());
        let e1 = Scope::new(Arc::clone(&store), "e1", 5);
        let e2 = Scope::new(Arc::clone(&store), "e2", 5);
        e1.record("s", 5, 0, TALLY);
        assert_eq!(e2.lookup("s", 5, 0), None, "e2 cannot see e1's tile");
        assert_eq!(e1.lookup("s", 5, 0), Some(TALLY));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
    }

    // The only test of this binary that touches the process-global slot.
    #[test]
    fn install_flush_and_snapshot_follow_the_installed_store() {
        assert!(uninstall().is_none());
        assert!(Scope::installed("s", 1).is_none());
        assert_eq!(flush(), 0);
        assert_eq!(snapshot(), None);

        install(Arc::new(Store::in_memory()));
        let scope = Scope::installed("s", 1).expect("installed");
        scope.record("s", 1, 0, TALLY);
        let stats = snapshot().expect("installed");
        assert_eq!((stats.hits, stats.misses, stats.inserts), (0, 0, 1));
        assert_eq!(flush(), 0, "an in-memory store writes no file");
        assert!(uninstall().is_some());
    }
}
