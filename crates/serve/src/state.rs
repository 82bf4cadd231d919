//! Hot-swappable snapshot state shared by every connection thread.
//!
//! The design goal is an allocation-free, contention-free warm read
//! path without an external `arc-swap` crate. The trick is a generation
//! counter published with release/acquire ordering:
//!
//! * [`ServeState`] holds the current `Arc<ServeSnapshot>` behind a
//!   `Mutex` **plus** an `AtomicU64` generation. The mutex is only ever
//!   locked on publish and on the first read after a publish.
//! * Each connection owns a [`ReaderHandle`] pinning one `Arc` clone and
//!   remembering the generation it saw. The warm path is a single
//!   `Acquire` load of the counter: equal generation means the pinned
//!   snapshot is current and queries proceed on it directly — no lock,
//!   no refcount traffic, no allocation.
//! * [`ServeState::publish`] installs the new `Arc` and bumps the
//!   counter (store inside the mutex, `Release` ordering), so a reader
//!   observing the new generation also observes the new pointer on its
//!   next mutex acquisition. Readers mid-query keep their pinned `Arc`:
//!   old snapshots stay fully valid (mapping and all) until the last
//!   pinned clone drops — hot swap never tears an in-flight query.

use crate::snapshot::ServeSnapshot;
use crate::source::ServeError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared server state: the current snapshot + its generation, and the
/// record of failed reloads and accepts.
#[derive(Debug)]
pub struct ServeState {
    current: Mutex<Arc<ServeSnapshot>>,
    generation: AtomicU64,
    reload_failures: Mutex<ReloadFailures>,
    accept_failures: AtomicU64,
}

/// Failed hot-swap loads since startup and the newest one's error text.
#[derive(Debug, Default)]
struct ReloadFailures {
    count: u64,
    last: Option<String>,
}

impl ServeState {
    /// Start serving `snapshot` as generation `snapshot.generation()`.
    pub fn new(snapshot: ServeSnapshot) -> ServeState {
        let generation = AtomicU64::new(snapshot.generation());
        ServeState {
            current: Mutex::new(Arc::new(snapshot)),
            generation,
            reload_failures: Mutex::default(),
            accept_failures: AtomicU64::new(0),
        }
    }

    fn failures(&self) -> std::sync::MutexGuard<'_, ReloadFailures> {
        // Each update below leaves the record valid after every step, so
        // a guard poisoned by a panicking holder still guards sound data.
        self.reload_failures
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Record one failed reload: the watcher found the cache changed but
    /// could not load it, and the current snapshot keeps serving.
    pub(crate) fn record_reload_failure(&self, error: &ServeError) {
        let mut failures = self.failures();
        failures.count += 1;
        failures.last = Some(error.to_string());
    }

    /// How many reloads have failed since startup. The watcher retries
    /// every tick while the cache stays unloadable, so a cache caught
    /// mid-rewrite may add one or two; a steadily rising count means the
    /// cache is broken and answers are stale.
    pub fn reload_failures(&self) -> u64 {
        self.failures().count
    }

    /// The error text of the most recent failed reload (it names the
    /// stage or file that failed), `None` if no reload has failed.
    // lint: allow(no-caller, the hot_swap tests read it; ROADMAP item 6 reports it through a serve `stats` verb)
    pub fn last_reload_error(&self) -> Option<String> {
        self.failures().last.clone()
    }

    /// Record one failed `accept` other than "no connection pending".
    pub(crate) fn record_accept_failure(&self) {
        self.accept_failures.fetch_add(1, Ordering::AcqRel);
    }

    /// How many `accept` calls have failed since startup — for example
    /// with `EMFILE` while the process is out of file descriptors. The
    /// listener backs off and retries, so a failure delays pending
    /// connections rather than dropping the listener; a steadily rising
    /// count means clients are waiting.
    pub fn accept_failures(&self) -> u64 {
        self.accept_failures.load(Ordering::Acquire)
    }

    /// The published generation (one `Acquire` load).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Clone the current snapshot pointer (locks briefly).
    pub fn current(&self) -> Arc<ServeSnapshot> {
        self.current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Atomically install `snapshot` as the new current generation.
    /// In-flight readers keep answering on their pinned snapshots and
    /// converge on the new one at their next query batch.
    pub fn publish(&self, snapshot: ServeSnapshot) {
        let generation = snapshot.generation();
        let next = Arc::new(snapshot);
        let mut guard = self
            .current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard = next;
        // Inside the lock so a reader that sees the new generation and
        // then takes the lock is guaranteed the new pointer.
        self.generation.store(generation, Ordering::Release);
    }

    /// Create a reader pinned to the current snapshot.
    pub fn reader(self: &Arc<Self>) -> ReaderHandle {
        let pinned = self.current();
        let seen = pinned.generation();
        ReaderHandle {
            state: Arc::clone(self),
            pinned,
            seen,
        }
    }
}

/// One connection's pinned view of the state. Cheap to create, `Send`;
/// each thread owns its own.
#[derive(Debug)]
pub struct ReaderHandle {
    state: Arc<ServeState>,
    pinned: Arc<ServeSnapshot>,
    seen: u64,
}

impl ReaderHandle {
    /// The current snapshot. Warm path (no swap since last call): one
    /// atomic load, zero allocation, returns the pinned snapshot.
    /// After a publish: re-pins under the state mutex, once.
    pub fn snapshot(&mut self) -> &ServeSnapshot {
        let live = self.state.generation.load(Ordering::Acquire);
        if live != self.seen {
            self.pinned = self.state.current();
            self.seen = self.pinned.generation();
        }
        &self.pinned
    }
}

#[cfg(test)]
mod tests {
    // ServeState construction needs a real ServeSnapshot (mapped
    // frames), so behavioral coverage lives in the crate's integration
    // tests (`hot_swap.rs`), which build real cache directories.
}
