//! A thread-safe, epoch-versioned plan cache shared across concurrent
//! [`Database::run_query`](crate::answer::Database::run_query) calls.
//!
//! Reformulation is the dominant planning cost of the Ref strategies: the
//! 13-rule fixpoint can produce hundreds of CQs, and GCov re-reformulates a
//! fragment per explored cover. None of that work depends on the *data* —
//! a UCQ/SCQ/JUCQ reformulation is a function of the query, the RDFS schema
//! and the reformulation limits only — so repeated queries (the common case
//! in the paper's workloads, and in any server setting) can reuse it.
//!
//! Design:
//!
//! * **Keying.** Entries are keyed by the *α-canonical* form of the query
//!   ([`rdfref_query::canonical::alpha_canonicalize`]) plus a [`StrategyTag`]
//!   fingerprinting everything else the plan depends on: the strategy, the
//!   `max_cqs` of its [`ReformulationLimits`], and the cover for JUCQ plans
//!   (GCov has no other option that changes its output).
//!   α-canonicalization means two queries differing only in variable names
//!   or atom order share one entry. The cached plan is evaluated as it is
//!   stored: its answer columns are the caller's by position, and GCov's
//!   covers are mapped back to the caller's atoms through
//!   [`AlphaCanonical::atom_map`](rdfref_query::canonical::AlphaCanonical::atom_map).
//! * **Locking.** One `parking_lot::Mutex` around one hash map. Every
//!   lookup and insert holds it for one map operation (and an insert into
//!   a full cache for one LRU scan).
//! * **Invalidation.** The cache carries two monotonic epochs. The *schema
//!   epoch* versions the RDFS constraints: every cached plan is a
//!   reformulation against a specific schema, so a schema change strands all
//!   entries. The *data epoch* versions the triples: reformulations stay
//!   valid across data-only updates, but GCov plans embed *cost-based*
//!   decisions (the chosen cover and its estimates come from data
//!   statistics), so they are additionally pinned to the data epoch at
//!   insertion. Stale entries are detected lazily at lookup and removed.
//! * **Eviction.** LRU by a logical tick, bounded by a fixed capacity.
//! * **Observability.** Hit/miss/eviction/invalidation counters, surfaced
//!   per-run through [`Explain`](crate::explain::Explain) and in aggregate
//!   through [`PlanCache::counters`].

use crate::gcov::{GcovOptions, GcovResult};
use crate::reformulate::ReformulationLimits;
use rdfref_model::fxhash::FxHashMap;
use rdfref_query::ast::{Cq, Jucq, Ucq};
use rdfref_query::Cover;
use rdfref_sync::atomic::{AtomicU64, Ordering};
use rdfref_sync::Arc;
use rdfref_sync::Mutex;

/// The non-query part of a cache key: which planner produced the plan, and
/// every option that changes its output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StrategyTag {
    /// A classic UCQ reformulation.
    Ucq { max_cqs: usize },
    /// A cover-induced JUCQ reformulation. SCQ plans are keyed here too,
    /// with the singleton cover — `reformulate_scq` *is* the singleton-cover
    /// JUCQ, so the two strategies share entries.
    Jucq { cover: Cover, max_cqs: usize },
    /// A GCov search result (cover choice + JUCQ + estimates).
    Gcov { max_cqs: usize },
}

impl StrategyTag {
    /// Tag for a `RefUcq` plan.
    pub fn ucq(limits: &ReformulationLimits) -> StrategyTag {
        StrategyTag::Ucq {
            max_cqs: limits.max_cqs,
        }
    }

    /// Tag for a `RefScq`/`RefJucq` plan under `cover` (over the canonical
    /// query's atoms).
    pub fn jucq(cover: Cover, limits: &ReformulationLimits) -> StrategyTag {
        StrategyTag::Jucq {
            cover,
            max_cqs: limits.max_cqs,
        }
    }

    /// Tag for a `RefGCov` plan.
    pub fn gcov(opts: &GcovOptions) -> StrategyTag {
        StrategyTag::Gcov {
            max_cqs: opts.limits.max_cqs,
        }
    }

    /// Does a plan with this tag embed data-dependent (cost-based)
    /// decisions, making it stale on data-only updates?
    fn depends_on_data(&self) -> bool {
        matches!(self, StrategyTag::Gcov { .. })
    }
}

/// A complete cache key: α-canonical query + strategy fingerprint + the
/// physical join-algorithm policy the request runs under.
///
/// The algorithm does not change the *reformulation*, but keying on it keeps
/// the cache contract simple and future-proof: a plan cached for a bind-join
/// request is never served to a WCOJ request (whose planner may someday
/// shape reformulations differently, e.g. prefer unexploded range atoms).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The α-canonical query (`alpha_canonicalize(q).query`).
    pub query: Cq,
    /// The strategy fingerprint.
    pub tag: StrategyTag,
    /// The physical join-algorithm policy of the requesting options.
    pub algo: rdfref_storage::JoinAlgorithm,
}

/// A cached plan, in the canonical query's variables.
#[derive(Debug, Clone)]
pub enum CachedPlan {
    /// `RefUcq` reformulation.
    Ucq(Ucq),
    /// `RefScq`/`RefJucq` reformulation.
    Jucq(Jucq),
    /// `RefGCov` search result.
    Gcov(GcovResult),
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CachedPlan>,
    /// Schema epoch the plan was computed under.
    schema_epoch: u64,
    /// Data epoch the plan was computed under, for data-dependent plans
    /// (`None` = valid across data-only updates).
    data_epoch: Option<u64>,
    /// Logical time of last use, for LRU.
    last_used: u64,
}

/// Aggregate cache counters (monotonic since cache creation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that returned a valid plan.
    pub hits: u64,
    /// Lookups that found nothing (including those that found a stale entry).
    pub misses: u64,
    /// Entries dropped to make room (LRU).
    pub evictions: u64,
    /// Stale entries dropped at lookup after an epoch bump.
    pub invalidations: u64,
}

/// The shared plan cache. Cheap to clone behind an [`Arc`]; all methods take
/// `&self` and are safe to call from many threads.
#[derive(Debug)]
pub struct PlanCache {
    entries: Mutex<FxHashMap<CacheKey, Entry>>,
    /// Maximum resident entries.
    capacity: usize,
    schema_epoch: AtomicU64,
    data_epoch: AtomicU64,
    /// Logical clock for LRU ordering.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

/// Default total capacity: generous for any workload in this repository
/// (the paper's query mixes are tens of queries).
const DEFAULT_CAPACITY: usize = 1024;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least one).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            entries: Mutex::new(FxHashMap::default()),
            capacity: capacity.max(1),
            schema_epoch: AtomicU64::new(0),
            data_epoch: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The current schema epoch (bumped when RDFS constraints change).
    pub fn schema_epoch(&self) -> u64 {
        self.schema_epoch.load(Ordering::SeqCst)
    }

    /// The current data epoch (bumped on any triple insert/delete).
    pub fn data_epoch(&self) -> u64 {
        self.data_epoch.load(Ordering::SeqCst)
    }

    /// Record a schema change: every cached plan becomes stale.
    pub fn bump_schema_epoch(&self) {
        self.schema_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Record a data-only change: cost-based (GCov) plans become stale;
    /// pure reformulations stay valid.
    pub fn bump_data_epoch(&self) {
        self.data_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Look up a plan valid under the *current* epochs. Returns `None` (and
    /// counts a miss) when absent; stale entries are removed on sight and
    /// additionally counted as invalidations.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<CachedPlan>> {
        self.lookup_at(key, self.schema_epoch(), self.data_epoch())
    }

    /// Look up a plan valid under the given epoch pair — the entry point
    /// for snapshot-pinned databases (see [`crate::serving`]): a reader on
    /// an older snapshot must neither reuse a plan computed against newer
    /// schema/statistics nor evict one. Entries are only dropped when they
    /// are stale relative to the *current* epochs (stale for everyone), not
    /// merely mismatched with a lagging reader's pinned epochs.
    pub fn lookup_at(&self, key: &CacheKey, schema: u64, data: u64) -> Option<Arc<CachedPlan>> {
        let mut entries = self.entries.lock();
        // Read the epochs under the lock: every entry was inserted under the
        // same lock at epochs that were current then, so it can never be
        // ahead of what is read here.
        let cur_schema = self.schema_epoch();
        let cur_data = self.data_epoch();
        if let Some(entry) = entries.get_mut(key) {
            #[cfg(feature = "strict-invariants")]
            {
                // Epoch monotonicity: counters only grow, so no cached entry
                // can carry an epoch ahead of the current one, and no reader
                // can be pinned ahead of the current one.
                debug_assert!(
                    entry.schema_epoch <= cur_schema,
                    "cache entry schema epoch {} ahead of current {cur_schema}",
                    entry.schema_epoch
                );
                debug_assert!(
                    entry.data_epoch.is_none_or(|d| d <= cur_data),
                    "cache entry data epoch {:?} ahead of current {cur_data}",
                    entry.data_epoch
                );
                debug_assert!(
                    schema <= cur_schema && data <= cur_data,
                    "reader pinned to epochs ({schema}, {data}) ahead of current \
                     ({cur_schema}, {cur_data})"
                );
            }
            if entry.schema_epoch == schema && entry.data_epoch.is_none_or(|d| d == data) {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(&entry.plan));
            }
            if entry.schema_epoch < cur_schema || entry.data_epoch.is_some_and(|d| d < cur_data) {
                entries.remove(key);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert a plan computed under the *current* epochs, evicting the
    /// least recently used entry if the cache is full. Returns the
    /// shared handle to the stored plan.
    pub fn insert(&self, key: CacheKey, plan: CachedPlan) -> Arc<CachedPlan> {
        self.insert_at(key, plan, self.schema_epoch(), self.data_epoch())
    }

    /// Insert a plan computed under the given epoch pair (snapshot-pinned
    /// databases tag entries with their snapshot's epochs so a lagging
    /// reader cannot publish a stale plan as current).
    pub fn insert_at(
        &self,
        key: CacheKey,
        plan: CachedPlan,
        schema: u64,
        data: u64,
    ) -> Arc<CachedPlan> {
        let data_epoch = key.tag.depends_on_data().then_some(data);
        let entry = Entry {
            plan: Arc::new(plan),
            schema_epoch: schema,
            data_epoch,
            last_used: self.tick.fetch_add(1, Ordering::Relaxed),
        };
        let handle = Arc::clone(&entry.plan);
        let mut entries = self.entries.lock();
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            if let Some(lru) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                entries.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        entries.insert(key, entry);
        handle
    }

    /// Snapshot of the aggregate counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Number of resident entries (valid or not-yet-noticed stale).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True iff no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::TermId;
    use rdfref_query::ast::Atom;
    use rdfref_query::Var;

    fn key(n: u32) -> CacheKey {
        let v = Var::new("cv0");
        let q = Cq::new_unchecked(
            vec![v.clone().into()],
            vec![Atom::new(v, TermId(n), TermId(0))],
        );
        CacheKey {
            query: q,
            tag: StrategyTag::ucq(&ReformulationLimits::default()),
            algo: rdfref_storage::JoinAlgorithm::BindJoin,
        }
    }

    #[test]
    fn keys_differing_only_in_algorithm_are_distinct() {
        let cache = PlanCache::new(8);
        let bind = key(1);
        let wcoj = CacheKey {
            algo: rdfref_storage::JoinAlgorithm::Wcoj,
            ..key(1)
        };
        cache.insert(bind.clone(), plan());
        assert!(cache.lookup(&bind).is_some());
        assert!(
            cache.lookup(&wcoj).is_none(),
            "a bind-join plan must never serve a WCOJ request"
        );
    }

    fn gcov_key(n: u32) -> CacheKey {
        CacheKey {
            tag: StrategyTag::gcov(&GcovOptions::default()),
            ..key(n)
        }
    }

    fn plan() -> CachedPlan {
        CachedPlan::Ucq(Ucq { cqs: vec![] })
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = PlanCache::new(8);
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), plan());
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(2)).is_none());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 2));
    }

    #[test]
    fn lru_eviction_order() {
        let cache = PlanCache::new(2);
        cache.insert(key(1), plan());
        cache.insert(key(2), plan());
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(3), plan());
        assert!(cache.lookup(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&key(1)).is_some(), "recently used survives");
        assert!(cache.lookup(&key(3)).is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_resident_key_does_not_evict() {
        let cache = PlanCache::new(2);
        cache.insert(key(1), plan());
        cache.insert(key(2), plan());
        cache.insert(key(2), plan());
        assert_eq!(cache.counters().evictions, 0);
        assert!(cache.lookup(&key(1)).is_some());
    }

    #[test]
    fn the_capacity_bounds_the_whole_cache() {
        let cache = PlanCache::new(16);
        for n in 0..16 {
            cache.insert(key(n), plan());
        }
        assert_eq!((cache.len(), cache.counters().evictions), (16, 0));
        cache.insert(key(16), plan());
        assert_eq!((cache.len(), cache.counters().evictions), (16, 1));
        assert!(cache.lookup(&key(0)).is_none(), "the oldest entry went");
    }

    #[test]
    fn data_epoch_invalidates_exactly_gcov_entries() {
        let cache = PlanCache::new(8);
        cache.insert(key(1), plan());
        cache.insert(gcov_key(1), CachedPlan::Ucq(Ucq { cqs: vec![] }));
        cache.bump_data_epoch();
        // The pure reformulation survives a data-only change…
        assert!(cache.lookup(&key(1)).is_some());
        // …the cost-based GCov plan does not.
        assert!(cache.lookup(&gcov_key(1)).is_none());
        assert_eq!(cache.counters().invalidations, 1);
    }

    #[test]
    fn schema_epoch_invalidates_everything() {
        let cache = PlanCache::new(8);
        cache.insert(key(1), plan());
        cache.insert(gcov_key(1), plan());
        cache.bump_schema_epoch();
        assert!(cache.lookup(&key(1)).is_none());
        assert!(cache.lookup(&gcov_key(1)).is_none());
        assert_eq!(cache.counters().invalidations, 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn insert_after_bump_is_valid_again() {
        let cache = PlanCache::new(8);
        cache.insert(gcov_key(1), plan());
        cache.bump_data_epoch();
        assert!(cache.lookup(&gcov_key(1)).is_none());
        cache.insert(gcov_key(1), plan());
        assert!(cache.lookup(&gcov_key(1)).is_some());
    }

    #[test]
    fn lookup_at_serves_only_the_exact_stamped_epoch_pair() {
        let cache = PlanCache::new(8);
        cache.bump_schema_epoch();
        cache.bump_data_epoch();
        cache.insert_at(gcov_key(1), plan(), 1, 1);
        cache.insert_at(key(1), plan(), 1, 1);
        // A cost-based plan is valid under exactly its (schema, data) pair…
        assert!(cache.lookup_at(&gcov_key(1), 1, 1).is_some());
        for (schema, data) in [(0, 0), (0, 1), (1, 0)] {
            assert!(
                cache.lookup_at(&gcov_key(1), schema, data).is_none(),
                "GCov plan stamped (1, 1) served at ({schema}, {data})"
            );
        }
        // …a pure reformulation under its schema epoch, at any data epoch.
        assert!(cache.lookup_at(&key(1), 1, 0).is_some());
        assert!(cache.lookup_at(&key(1), 1, 1).is_some());
        assert!(cache.lookup_at(&key(1), 0, 1).is_none());
    }

    #[test]
    fn a_lagging_reader_s_miss_never_evicts_a_current_entry() {
        let cache = PlanCache::new(8);
        cache.bump_schema_epoch();
        cache.bump_data_epoch();
        cache.insert(key(1), plan());
        cache.insert(gcov_key(1), plan());
        // Readers pinned behind the current (1, 1) miss…
        assert!(cache.lookup_at(&key(1), 0, 1).is_none());
        assert!(cache.lookup_at(&gcov_key(1), 1, 0).is_none());
        assert!(cache.lookup_at(&gcov_key(1), 0, 0).is_none());
        // …without dropping what is valid for everyone else.
        assert_eq!(cache.counters().invalidations, 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&gcov_key(1)).is_some());
    }

    #[test]
    fn concurrent_hammering_is_consistent() {
        let cache = Arc::new(PlanCache::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let k = key(i % 16);
                        if cache.lookup(&k).is_none() {
                            cache.insert(k, plan());
                        }
                        if t == 0 && i % 50 == 0 {
                            cache.bump_data_epoch();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let c = cache.counters();
        assert_eq!(c.hits + c.misses, 4 * 200);
        assert!(cache.len() <= 64);
    }
}
