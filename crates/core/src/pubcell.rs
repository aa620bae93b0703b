//! The generic **publication cell**: the lock-free snapshot publication
//! point extracted from `serving.rs` so the model checker
//! (`protocol_models`, behind the `model-check` feature) can drive it
//! directly.
//!
//! Every sync primitive here comes through the `rdfref_sync` facade: in
//! normal builds that is exactly `std::sync::atomic` + `parking_lot`; under
//! model-check each operation is a deterministic-scheduler yield point.
//!
//! The two `modelcheck_mutation` twins in this file and `answer.rs`
//! re-introduce seeded protocol bugs for checker self-tests; they are
//! compiled only under `--cfg modelcheck_mutation="..."` (never in normal
//! or release builds) and exist so CI can prove the checker still catches
//! them.

use rdfref_sync::atomic::{AtomicU64, Ordering};
use rdfref_sync::{Arc, Mutex};
use std::any::Any;
use std::cell::RefCell;

/// A published value: an immutable, cumulative state identified by a
/// monotonically increasing sequence number.
pub(crate) trait Published: Send + Sync + 'static {
    fn seq(&self) -> u64;
}

/// Per-thread snapshot cache capacity. Each thread retains at most this
/// many `(cell, value)` pairs; a retired cell's final value can therefore
/// outlive it by one cache slot per thread — bounded retention, traded for
/// a lock-free reader fast path without unsafe code.
pub(crate) const TLS_CACHE_CAP: usize = 8;

/// Process-wide id source for [`PubCell`]s; ids are never reused, so a
/// stale thread-local entry can never alias a different cell.
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(0);

/// One TLS cache entry: `(cell id, cached seq, value)`, type-erased so one
/// cache serves every `T`.
type TlsEntry = (u64, u64, Arc<dyn Any + Send + Sync>);

thread_local! {
    /// FIFO-evicted at [`TLS_CACHE_CAP`].
    static PUB_TLS: RefCell<Vec<TlsEntry>> = const { RefCell::new(Vec::new()) };
}

/// The publication point: readers resolve the current value with one
/// `Acquire` load plus a thread-local lookup; only the first read after a
/// publish (per thread) touches the slot mutex, and then only for the
/// duration of one `Arc` clone.
///
/// The crate forbids `unsafe`, so this is deliberately not a hand-rolled
/// `AtomicPtr` scheme: the version counter makes the mutex acquisition
/// *conditional* rather than eliminating it, which measures within noise of
/// an uncontended load at serving thread counts while keeping every line
/// borrow-checked.
#[derive(Debug)]
pub(crate) struct PubCell<T: Published> {
    /// Unique id keying the thread-local cache.
    id: u64,
    /// Sequence number of the value in `slot`, written last (Release) at
    /// publish; readers check it first (Acquire).
    version: AtomicU64,
    /// The current value. Locked briefly by publishers and by readers
    /// whose thread-local copy is behind `version`.
    slot: Mutex<Arc<T>>,
}

impl<T: Published> PubCell<T> {
    pub(crate) fn new(initial: Arc<T>) -> PubCell<T> {
        PubCell {
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            version: AtomicU64::new(initial.seq()),
            slot: Mutex::new(initial),
        }
    }

    /// The current value. Lock-free when this thread has already seen the
    /// latest publication.
    pub(crate) fn current(&self) -> Arc<T> {
        let version = self.version.load(Ordering::Acquire);
        PUB_TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            if let Some(entry) = tls.iter_mut().find(|e| e.0 == self.id) {
                if entry.1 >= version {
                    if let Ok(hit) = Arc::downcast::<T>(Arc::clone(&entry.2)) {
                        return hit;
                    }
                }
                let fresh = Arc::clone(&self.slot.lock());
                entry.1 = fresh.seq();
                entry.2 = Arc::clone(&fresh) as Arc<dyn Any + Send + Sync>;
                return fresh;
            }
            let fresh = Arc::clone(&self.slot.lock());
            if tls.len() >= TLS_CACHE_CAP {
                tls.remove(0);
            }
            tls.push((
                self.id,
                fresh.seq(),
                Arc::clone(&fresh) as Arc<dyn Any + Send + Sync>,
            ));
            fresh
        })
    }

    /// Install `value` as the current value. Publications are monotonic in
    /// `seq`: a publish racing behind a newer one is skipped (published
    /// values are cumulative states, so the newer value already contains
    /// the older one's changes). Returns whether the value was installed.
    ///
    /// Must be called with no writer lock held: the slot mutex here
    /// is the publication mechanism itself, held for two pointer writes.
    #[cfg(not(modelcheck_mutation = "relaxed_version"))]
    pub(crate) fn publish(&self, value: Arc<T>) -> bool {
        let mut slot = self.slot.lock();
        if value.seq() <= slot.seq() {
            return false;
        }
        #[cfg(feature = "strict-invariants")]
        assert!(
            value.seq() > self.version.load(Ordering::Acquire),
            "snapshot publication must be monotonic"
        );
        let seq = value.seq();
        *slot = Arc::clone(&value);
        self.version.store(seq, Ordering::Release);
        true
    }

    /// Seeded bug twin of [`PubCell::publish`]: the `version` store is
    /// downgraded to `Relaxed`, so readers that trust the Acquire load to
    /// have synchronized may act on an unsynchronized version value. The
    /// `publish_synchronizes` model scenario catches this.
    #[cfg(modelcheck_mutation = "relaxed_version")]
    pub(crate) fn publish(&self, value: Arc<T>) -> bool {
        let mut slot = self.slot.lock();
        if value.seq() <= slot.seq() {
            return false;
        }
        let seq = value.seq();
        *slot = Arc::clone(&value);
        self.version.store(seq, Ordering::Relaxed);
        true
    }

    /// Model-probe: the version an Acquire load observes right now, and
    /// whether that load synchronized with a Release store. Under the real
    /// protocol the second component is always true once the first is
    /// nonzero — that *is* the publication contract the TLS fast path
    /// depends on.
    #[cfg(feature = "model-check")]
    pub(crate) fn probe_version(&self) -> (u64, bool) {
        let v = self.version.load(Ordering::Acquire);
        (v, self.version.synchronized_last_load())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct V(u64);
    impl Published for V {
        fn seq(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn publish_is_monotonic_and_cached() {
        let cell = PubCell::new(Arc::new(V(1)));
        assert_eq!(cell.current().seq(), 1);
        assert!(cell.publish(Arc::new(V(3))));
        assert!(!cell.publish(Arc::new(V(2))), "stale publish must skip");
        assert_eq!(cell.current().seq(), 3);
        // Second read is served from the thread-local cache.
        assert_eq!(cell.current().seq(), 3);
    }

    #[test]
    fn cells_do_not_alias_in_the_tls_cache() {
        let a = PubCell::new(Arc::new(V(10)));
        let b = PubCell::new(Arc::new(V(20)));
        assert_eq!(a.current().seq(), 10);
        assert_eq!(b.current().seq(), 20);
        assert!(a.publish(Arc::new(V(11))));
        assert_eq!(a.current().seq(), 11);
        assert_eq!(b.current().seq(), 20);
    }
}
