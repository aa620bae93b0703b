//! Snapshot-isolated concurrent serving: readers never wait on
//! maintenance — the one write-side engine.
//!
//! The static [`Database`] answers queries over a frozen
//! graph. This module is everything that changes: the dynamic-RDF scenario
//! of the paper's introduction (Goasdoué, Manolescu & Roatiş, EDBT'13),
//! where updates arrive *while* queries are being answered and the
//! saturation is kept current incrementally instead of being recomputed.
//!
//! * **[`Snapshot`]** — an immutable, `Arc`-shared quadruple of (explicit
//!   store, maintained saturation, statistics, plan-cache epochs), tagged
//!   with a monotonic publication sequence number. All heavyweight parts
//!   are shared copy-on-write with the writer's working state (the store's
//!   index buckets, the dictionary, schema closure and statistics), so a
//!   snapshot costs a handful of `Arc` bumps.
//! * **`SnapshotCell`** (private) — the publication point: one mutex
//!   around the current `Arc<Snapshot>`. A reader holds it for one `Arc`
//!   clone, the writer for one pointer swap; nobody holds it while
//!   applying a batch, building a snapshot or answering a query, so
//!   readers never block behind maintenance.
//! * **`WriterCore`** (private) — the single-writer maintenance pipeline:
//!   interns terms, applies insert/delete batches through
//!   [`rdfref_reasoning::IncrementalReasoner`] (one-step insertion, a
//!   one-step support check on deletion, schema changes via
//!   resaturation-with-diff), folds the exact
//!   [`MaintenanceDelta`] into the copy-on-write stores and incremental
//!   statistics, and bumps the plan cache's epochs.
//! * **[`ServingDatabase`]** — the concurrent façade: `&self` reads via
//!   [`ServingDatabase::snapshot`] / the request builder, `&self` writes via
//!   [`ServingDatabase::submit`] which enqueues an [`UpdateBatch`] to a
//!   background maintenance thread and returns a [`BatchTicket`]; the
//!   ticket resolves to a [`BatchReport`] of per-batch maintenance metrics
//!   *after* the containing snapshot is published (read-your-writes for
//!   anyone who waits on the ticket). A synchronous caller is simply one
//!   that waits on every ticket.
//!
//! Consistency contract: every answer is computed against exactly one
//! snapshot — one `(graph, saturation, stats, cache-epoch)` state — and
//! snapshots advance atomically, one applied batch prefix at a time. The
//! proptest suite checks prefix linearizability: each concurrent read
//! equals the answer over *some* prefix of the applied batches.
//!
//! Memory reclamation is pure `Arc` reference counting: a retired snapshot
//! survives exactly as long as some reader still holds it, then its
//! unshared index buckets are freed. There is no epoch-based reclamation
//! machinery to misuse and no unsafe code.

use crate::answer::{
    build_encoder, encode_store, AnswerOptions, Database, QueryAnswer, SaturatedPart, Strategy,
};
use crate::builder::EngineBuilder;
use crate::cache::PlanCache;
use crate::engine::{QueryEngine, QueryRequest};
use crate::error::{CoreError, Result};
use crate::explain::SnapshotInfo;
use rdfref_model::{
    schema::ConstraintKind, DictEncoding, EncodedTriple, Graph, HierarchyEncoder, Schema,
    SchemaClosure, Triple,
};
use rdfref_obs::Obs;
use rdfref_query::Cq;
use rdfref_reasoning::{IncrementalReasoner, MaintenanceDelta};
use rdfref_storage::{Stats, StatsMaintainer, Store};
use rdfref_sync::{mpsc, thread, Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// An immutable published state of a [`ServingDatabase`]: explicit store,
/// maintained saturation, statistics and plan-cache epochs, all consistent
/// with one prefix of the applied update batches.
///
/// A snapshot is obtained from [`ServingDatabase::snapshot`] and
/// stays valid — and byte-identical — for as long as the `Arc` is held,
/// regardless of concurrent maintenance. Queries run with `&self`.
#[derive(Debug)]
pub struct Snapshot {
    /// Pre-assembled database over the snapshot's parts: explicit store,
    /// stats, schema closure, the maintained saturation installed as
    /// [`SaturatedPart`] so `Sat` never saturates from scratch, and the
    /// snapshot's identity ([`SnapshotInfo`]: publication sequence number
    /// and the plan-cache epochs it is pinned to), which stamps its answers.
    db: Database,
    /// When this snapshot was built (snapshot-age metrics).
    created: Instant,
}

impl Snapshot {
    /// Monotonic publication sequence number (0 = initial snapshot).
    pub fn seq(&self) -> u64 {
        self.info().map_or(0, |info| info.seq())
    }

    /// Identity of this snapshot, as every answer it gives carries it in
    /// [`crate::Explain::snapshot`]. Always `Some`: the serving layer
    /// assembles a snapshot's database with its identity.
    pub fn info(&self) -> Option<SnapshotInfo> {
        self.db.snapshot
    }

    /// The underlying prepared database (store, stats, schema accessors).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The dictionary this snapshot's triples are encoded against. Parse
    /// queries against a clone of it ([`rdfref_query::parse_select`] interns
    /// new constants); terms reach the engine's own dictionary only through
    /// write batches.
    pub fn dictionary(&self) -> &rdfref_model::Dictionary {
        self.db.dictionary()
    }

    /// Number of explicit triples.
    pub fn explicit_len(&self) -> usize {
        self.db.source().len()
    }

    /// Number of triples in the maintained saturation.
    pub fn saturation_len(&self) -> usize {
        self.db
            .installed_saturation()
            .map_or(0, |sat| sat.store.len())
    }

    /// Time since this snapshot was built.
    pub fn age(&self) -> Duration {
        self.created.elapsed()
    }

    /// Start building a query request against this snapshot.
    pub fn query<'q>(&self, cq: &'q Cq) -> QueryRequest<'q, &Snapshot> {
        QueryRequest::new(self, cq)
    }
}

impl QueryEngine for Snapshot {
    fn run_query(&self, cq: &Cq, strategy: &Strategy, opts: &AnswerOptions) -> Result<QueryAnswer> {
        self.db.run_query(cq, strategy, opts)
    }
}

/// The snapshot publication point. Only `writer_loop` replaces the
/// snapshot, and its lock hold is one pointer swap; readers hold it for
/// one `Arc` clone.
type SnapshotCell = Mutex<Arc<Snapshot>>;

// ---------------------------------------------------------------------------
// WriterCore: the single-writer maintenance pipeline
// ---------------------------------------------------------------------------

/// Per-batch maintenance metrics, delivered through a [`BatchTicket`] after
/// the snapshot containing the batch is published.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct BatchReport {
    pub(crate) seq: u64,
    pub(crate) explicit_added: usize,
    pub(crate) explicit_removed: usize,
    pub(crate) saturation_added: usize,
    pub(crate) saturation_removed: usize,
    pub(crate) schema_changed: bool,
    pub(crate) resaturated: bool,
    pub(crate) apply_wall: Duration,
    pub(crate) queue_wait: Duration,
}

impl BatchReport {
    /// Sequence number of the first published snapshot containing this
    /// batch (coalesced batches share one publication).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Triples added to the explicit graph (requested minus duplicates).
    pub fn explicit_added(&self) -> usize {
        self.explicit_added
    }

    /// Triples removed from the explicit graph.
    pub fn explicit_removed(&self) -> usize {
        self.explicit_removed
    }

    /// Triples added to the saturation (explicit and derived).
    pub fn saturation_added(&self) -> usize {
        self.saturation_added
    }

    /// Triples removed from the saturation (the deletion candidates no
    /// remaining explicit triple still derives).
    pub fn saturation_removed(&self) -> usize {
        self.saturation_removed
    }

    /// Did the batch touch RDFS constraints (forcing resaturation and a
    /// schema-epoch bump)?
    pub fn schema_changed(&self) -> bool {
        self.schema_changed
    }

    /// Was the saturation rebuilt from scratch (schema path)?
    pub fn resaturated(&self) -> bool {
        self.resaturated
    }

    /// Wall time spent applying this batch (reasoning + store/stats COW).
    pub fn apply_wall(&self) -> Duration {
        self.apply_wall
    }

    /// Time the batch spent queued before the writer picked it up.
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }
}

/// One working store with its incrementally maintained statistics: the
/// unit every delta is folded into. The store evolves via
/// [`Store::apply_delta`] (bucket-level copy-on-write) and the statistics
/// via [`StatsMaintainer`] — no full rebuild on the data path.
#[derive(Debug)]
struct MaintainedStore {
    store: Store,
    stats: Arc<Stats>,
}

impl MaintainedStore {
    fn from_store(store: Store) -> MaintainedStore {
        MaintainedStore {
            stats: Arc::new(Stats::compute(&store)),
            store,
        }
    }

    /// Install `next`, the store after an exact delta (in store id space),
    /// and fold the delta into the statistics.
    fn apply(&mut self, next: Store, added: &[EncodedTriple], removed: &[EncodedTriple]) {
        self.stats = Arc::new(StatsMaintainer.apply(&self.stats, &next, added, removed));
        #[cfg(feature = "strict-invariants")]
        assert_eq!(
            *self.stats,
            Stats::compute(&next),
            "maintained statistics diverged from a recompute"
        );
        self.store = next;
    }
}

/// The explicit triples and their saturation, side by side.
#[derive(Debug)]
struct Partition {
    explicit: MaintainedStore,
    sat: MaintainedStore,
}

impl Partition {
    /// Encode the reasoner's (base-space) graphs into fresh working stores.
    fn encode(reasoner: &IncrementalReasoner, encoder: &HierarchyEncoder) -> Partition {
        Partition {
            explicit: MaintainedStore::from_store(encode_store(reasoner.explicit(), encoder)),
            sat: MaintainedStore::from_store(encode_store(reasoner.saturated(), encoder)),
        }
    }

    /// Fold a batch's net delta (in base id space) into both working
    /// stores: first the stores' copy-on-write edits, then their
    /// statistics, timed as `maintain.store_delta` and `maintain.stats`.
    fn apply(&mut self, obs: &Obs, encoder: &HierarchyEncoder, delta: &MaintenanceDelta) {
        if delta.is_empty() {
            return;
        }
        let store_delta = obs.span("maintain.store_delta");
        let explicit = [&delta.explicit_added, &delta.explicit_removed];
        let sat = [&delta.saturation_added, &delta.saturation_removed];
        let parts = [(&mut self.explicit, explicit), (&mut self.sat, sat)]
            .map(|(part, lists)| (part, lists.map(|l| encoder.encode_triples(l))));
        let next = parts
            .each_ref()
            .map(|(part, [added, removed])| part.store.apply_delta(added, removed));
        drop(store_delta);
        let _span = obs.span("maintain.stats");
        for ((part, [added, removed]), next) in parts.into_iter().zip(next) {
            part.apply(next, &added, &removed);
        }
    }
}

/// The single-writer maintenance state: the incremental reasoner plus
/// copy-on-write working copies of everything a snapshot shares. Owned by
/// the [`ServingDatabase`] background maintenance thread.
#[derive(Debug)]
struct WriterCore {
    /// The reasoner. Every snapshot publishes its dictionary, which a batch
    /// adding a term copies only while an older snapshot still holds it.
    reasoner: IncrementalReasoner,
    schema: Arc<Schema>,
    closure: Arc<SchemaClosure>,
    stores: Partition,
    /// Saturation triples touched by the last batch (added + removed);
    /// surfaces as `Explain::saturation_added` on Sat answers.
    last_delta: usize,
    /// Sequence number of the next snapshot (number of applied batches).
    seq: u64,
    cache: Arc<PlanCache>,
    obs: Obs,
    /// The encoding the engine was built with: `reencode` rebuilds the
    /// encoder on a schema change only for [`DictEncoding::Interval`].
    encoding: DictEncoding,
    /// The working stores' encoder. The reasoner, dictionary and deltas
    /// always speak base ids; deltas are remapped on the way into the
    /// stores (a no-op under the classic identity).
    encoder: Arc<HierarchyEncoder>,
}

impl WriterCore {
    /// Saturate `graph` once and build the working stores.
    fn new(graph: Graph, cache: Arc<PlanCache>, b: &EngineBuilder) -> WriterCore {
        let mut reasoner = IncrementalReasoner::new(graph);
        reasoner.set_obs(b.obs.clone());
        let schema = Arc::new(Schema::from_graph(reasoner.explicit()));
        let closure = Arc::new(schema.closure());
        let universe = reasoner.explicit().dictionary().len();
        let encoder = build_encoder(b.encoding, &schema, &closure, universe);
        let stores = Partition::encode(&reasoner, &encoder);
        let last_delta = stores
            .sat
            .store
            .len()
            .saturating_sub(stores.explicit.store.len());
        WriterCore {
            reasoner,
            schema,
            closure,
            stores,
            last_delta,
            seq: 0,
            cache,
            obs: b.obs.clone(),
            encoding: b.encoding,
            encoder,
        }
    }

    /// Intern a term-level batch against the reasoner's dictionary.
    fn intern_batch(&mut self, batch: &UpdateBatch) -> (Vec<EncodedTriple>, Vec<EncodedTriple>) {
        let encode = |r: &mut IncrementalReasoner, ts: &[Triple]| {
            ts.iter()
                .map(|t| r.intern_triple(&t.subject, &t.property, &t.object))
                .collect()
        };
        let inserts = encode(&mut self.reasoner, &batch.inserts);
        let deletes = encode(&mut self.reasoner, &batch.deletes);
        (inserts, deletes)
    }

    /// Does this batch change the RDFS constraints (as opposed to data
    /// only)? Decides whether the whole plan cache goes stale or just the
    /// cost-based entries.
    fn touches_schema(triples: &[EncodedTriple]) -> bool {
        triples
            .iter()
            .any(|t| ConstraintKind::from_property_id(t.p).is_some())
    }

    /// Apply one batch: inserts first, then deletes, maintaining the
    /// saturation incrementally and folding the exact deltas into the
    /// copy-on-write stores and statistics. Bumps the plan cache's data
    /// epoch (and schema epoch on constraint changes) and advances the
    /// snapshot sequence number.
    fn apply(&mut self, inserts: &[EncodedTriple], deletes: &[EncodedTriple]) -> BatchReport {
        // Clone the handle so the span guard doesn't pin `self.obs` across
        // the `&mut self` calls below.
        let obs = self.obs.clone();
        let _span = obs.span("maintain.batch");
        let start = Instant::now();
        let schema_changed = Self::touches_schema(inserts) || Self::touches_schema(deletes);

        let ins_delta = if inserts.is_empty() {
            MaintenanceDelta::default()
        } else {
            self.reasoner.insert_batch(inserts)
        };
        let del_delta = if deletes.is_empty() {
            MaintenanceDelta::default()
        } else {
            self.reasoner.delete_batch(deletes)
        };

        // The reasoner's deltas arrive in base id space and are remapped at
        // the store boundary, as one net delta for the batch.
        self.stores
            .apply(&obs, &self.encoder, &ins_delta.then(&del_delta));
        if schema_changed {
            // Constraints changed: the Ref strategies' rewrite context must
            // be rebuilt (the data-path artifacts were still maintained
            // incrementally — the deltas are exact even across
            // resaturation).
            self.schema = Arc::new(Schema::from_graph(self.reasoner.explicit()));
            self.closure = Arc::new(self.schema.closure());
            // Interval mode: the hierarchy changed, so the id clustering is
            // stale — rebuild the encoder and re-encode the stores from the
            // reasoner's (base-space) graphs. The schema-epoch bump below
            // strands every plan cached against the old encoding.
            self.reencode();
        }
        #[cfg(feature = "strict-invariants")]
        {
            let dict = self.reasoner.explicit().shared_dictionary();
            let sat = self.reasoner.saturated().shared_dictionary();
            assert!(Arc::ptr_eq(dict, sat), "the reasoner's graphs diverged");
            assert_eq!(
                self.stores.explicit.store.len(),
                self.reasoner.explicit().len(),
                "explicit COW store diverged from the reasoner's graph"
            );
            assert_eq!(
                self.stores.sat.store.len(),
                self.reasoner.saturated().len(),
                "saturation COW store diverged from the reasoner's graph"
            );
        }

        self.cache.bump_data_epoch();
        if schema_changed {
            self.cache.bump_schema_epoch();
        }
        self.seq += 1;
        self.last_delta = ins_delta.saturation_added.len()
            + ins_delta.saturation_removed.len()
            + del_delta.saturation_added.len()
            + del_delta.saturation_removed.len();

        BatchReport {
            seq: self.seq,
            explicit_added: ins_delta.explicit_added.len() + del_delta.explicit_added.len(),
            explicit_removed: ins_delta.explicit_removed.len() + del_delta.explicit_removed.len(),
            saturation_added: ins_delta.saturation_added.len() + del_delta.saturation_added.len(),
            saturation_removed: ins_delta.saturation_removed.len()
                + del_delta.saturation_removed.len(),
            schema_changed,
            resaturated: ins_delta.resaturated || del_delta.resaturated,
            apply_wall: start.elapsed(),
            queue_wait: Duration::ZERO,
        }
    }

    /// Interval mode only: rebuild the encoder against the current schema
    /// closure and re-encode the working stores from the reasoner's
    /// base-space graphs. The classic identity needs neither.
    fn reencode(&mut self) {
        if self.encoding == DictEncoding::Classic {
            return;
        }
        let universe = self.reasoner.explicit().dictionary().len();
        self.encoder = build_encoder(self.encoding, &self.schema, &self.closure, universe);
        self.stores = Partition::encode(&self.reasoner, &self.encoder);
    }

    /// A snapshot of the working stores at the current seq/epochs: a few
    /// `Arc` clones plus store handle copies (bucket-shared).
    fn snapshot(&self) -> Arc<Snapshot> {
        let explicit = &self.stores.explicit;
        let sat = &self.stores.sat;
        let db = Database::from_parts(
            Arc::clone(self.reasoner.explicit().shared_dictionary()),
            Arc::clone(&self.schema),
            Arc::clone(&self.closure),
            explicit.store.clone(),
            Arc::clone(&explicit.stats),
            Some(SaturatedPart {
                store: sat.store.clone(),
                stats: Arc::clone(&sat.stats),
                added: self.last_delta,
            }),
            Arc::clone(&self.cache),
            Some(SnapshotInfo::new(
                self.seq,
                self.cache.schema_epoch(),
                self.cache.data_epoch(),
            )),
            self.obs.clone(),
            Arc::clone(&self.encoder),
        );
        Arc::new(Snapshot {
            db,
            created: Instant::now(),
        })
    }
}

// ---------------------------------------------------------------------------
// ServingDatabase: concurrent façade
// ---------------------------------------------------------------------------

/// A term-level batch of updates for [`ServingDatabase::submit`]. Inserts
/// are applied before deletes; a triple both inserted and deleted in one
/// batch therefore ends up absent.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    inserts: Vec<Triple>,
    deletes: Vec<Triple>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// A pure insertion batch.
    pub fn inserting(triples: Vec<Triple>) -> UpdateBatch {
        UpdateBatch {
            inserts: triples,
            deletes: Vec::new(),
        }
    }

    /// A pure deletion batch.
    pub fn deleting(triples: Vec<Triple>) -> UpdateBatch {
        UpdateBatch {
            inserts: Vec::new(),
            deletes: triples,
        }
    }

    /// Add an insertion (builder style).
    pub fn insert(mut self, triple: Triple) -> UpdateBatch {
        self.inserts.push(triple);
        self
    }

    /// Add a deletion (builder style).
    pub fn delete(mut self, triple: Triple) -> UpdateBatch {
        self.deletes.push(triple);
        self
    }

    /// The triples to insert.
    pub fn inserts(&self) -> &[Triple] {
        &self.inserts
    }

    /// The triples to delete.
    pub fn deletes(&self) -> &[Triple] {
        &self.deletes
    }

    /// True when the batch requests nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Completion handle for a submitted [`UpdateBatch`]: resolves to the
/// batch's [`BatchReport`] once the snapshot containing it is published.
/// Waiting on the ticket therefore guarantees read-your-writes: a
/// subsequent [`ServingDatabase::snapshot`] includes the batch.
#[derive(Debug)]
pub struct BatchTicket {
    reply: mpsc::Receiver<BatchReport>,
}

impl BatchTicket {
    /// Block until the batch is applied and published.
    pub fn wait(self) -> Result<BatchReport> {
        self.reply.recv().map_err(|_| CoreError::ServingStopped)
    }
}

/// A pending write and where to send its report.
struct PendingBatch {
    batch: UpdateBatch,
    enqueued: Instant,
    reply: mpsc::Sender<BatchReport>,
}

/// Maximum batches coalesced into one snapshot publication. Bounds both
/// publication latency (a reader sees at most this many batches land at
/// once) and the maintenance work between two publications.
const MAX_COALESCED_BATCHES: usize = 64;

/// A concurrently servable database: snapshot readers, a
/// single-writer background maintenance pipeline, everything through
/// `&self`.
///
/// ```
/// use rdfref_core::{Database, Strategy};
/// use rdfref_model::parser::parse_turtle;
/// use rdfref_model::{Term, Triple};
/// use rdfref_query::parse_select;
///
/// let mut g = parse_turtle(
///     "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
///      @prefix ex: <http://example.org/> .
///      ex:Book rdfs:subClassOf ex:Publication .
///      ex:doi1 a ex:Book .",
/// )
/// .unwrap();
/// let q = parse_select(
///     "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
///     g.dictionary_mut(),
/// )
/// .unwrap();
/// let db = Database::builder().build_serving(g);
///
/// // Reads are `&self`; each answer is snapshot-consistent.
/// let before = db.query(&q).strategy(Strategy::RefUcq).run().unwrap();
/// assert_eq!(before.len(), 1);
///
/// // Writes are `&self` too: submit a batch, wait on the ticket for
/// // read-your-writes.
/// let t = Triple::new(
///     Term::iri("http://example.org/doi2"),
///     Term::iri(rdfref_model::vocab::RDF_TYPE),
///     Term::iri("http://example.org/Book"),
/// )
/// .unwrap();
/// let report = db.insert(vec![t]).unwrap().wait().unwrap();
/// assert_eq!(report.explicit_added(), 1);
/// let after = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
/// assert_eq!(after.len(), 2);
/// ```
#[derive(Debug)]
pub struct ServingDatabase {
    /// The publication cell readers resolve the current snapshot from.
    cell: Arc<SnapshotCell>,
    /// The batch queue feeding the maintenance thread; `None` once `Drop`
    /// has closed it.
    queue: Option<mpsc::Sender<PendingBatch>>,
    worker: Option<thread::JoinHandle<()>>,
    cache: Arc<PlanCache>,
}

impl ServingDatabase {
    /// Build from an [`EngineBuilder`] (saturates once), publish the
    /// initial snapshot and start the background maintenance thread.
    /// Reached via [`Database::builder`]`().build_serving(graph)`.
    pub(crate) fn from_builder(graph: Graph, b: &EngineBuilder) -> ServingDatabase {
        let cache = Arc::new(PlanCache::default());
        let writer = WriterCore::new(graph, Arc::clone(&cache), b);
        let cell = Arc::new(SnapshotCell::new(writer.snapshot()));
        let (queue, rx) = mpsc::channel::<PendingBatch>();
        let worker = {
            let cell = Arc::clone(&cell);
            let spawned = thread::Builder::new()
                .name("rdfref-serving-writer".into())
                .spawn(move || writer_loop(writer, rx, cell));
            match spawned {
                Ok(handle) => handle,
                // Spawn fails only on resource exhaustion (EAGAIN); like
                // OOM that is not a recoverable condition, and a Result
                // constructor would push an un-actionable error onto every
                // caller — abort instead of panicking through a poisoned
                // half-built database.
                Err(_) => std::process::abort(),
            }
        };
        ServingDatabase {
            cell,
            queue: Some(queue),
            worker: Some(worker),
            cache,
        }
    }

    /// The current snapshot: one `Arc` clone under the cell's lock, which
    /// the writer only ever holds for a pointer swap.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.cell.lock())
    }

    /// Sequence number of the latest published snapshot.
    pub fn published_seq(&self) -> u64 {
        self.cell.lock().seq()
    }

    /// The plan cache every snapshot shares (snapshot-pinned lookups, see
    /// [`crate::cache`]).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Enqueue a write batch for the maintenance pipeline. Returns
    /// immediately with a [`BatchTicket`]; wait on it for the per-batch
    /// [`BatchReport`], delivered after the snapshot containing the batch
    /// is published (read-your-writes).
    pub fn submit(&self, batch: UpdateBatch) -> Result<BatchTicket> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let pending = PendingBatch {
            batch,
            enqueued: Instant::now(),
            reply: reply_tx,
        };
        self.queue
            .as_ref()
            .ok_or(CoreError::ServingStopped)?
            .send(pending)
            .map_err(|_| CoreError::ServingStopped)?;
        Ok(BatchTicket { reply: reply_rx })
    }

    /// Convenience: submit a pure insertion batch.
    pub fn insert(&self, triples: Vec<Triple>) -> Result<BatchTicket> {
        self.submit(UpdateBatch::inserting(triples))
    }

    /// Convenience: submit a pure deletion batch.
    pub fn delete(&self, triples: Vec<Triple>) -> Result<BatchTicket> {
        self.submit(UpdateBatch::deleting(triples))
    }

    /// Start building a query request against the current snapshot (the
    /// snapshot is taken once, when [`QueryRequest::run`] executes).
    pub fn query<'q>(&self, cq: &'q Cq) -> QueryRequest<'q, &ServingDatabase> {
        QueryRequest::new(self, cq)
    }
}

impl QueryEngine for ServingDatabase {
    fn run_query(&self, cq: &Cq, strategy: &Strategy, opts: &AnswerOptions) -> Result<QueryAnswer> {
        self.snapshot().database().run_query(cq, strategy, opts)
    }
}

impl Drop for ServingDatabase {
    fn drop(&mut self) {
        // Closing the queue lets the worker drain already-submitted batches
        // and exit; join so no maintenance outlives the database.
        self.queue = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The background maintenance loop: drain pending batches (coalescing up
/// to [`MAX_COALESCED_BATCHES`] per publication), apply them against the
/// writer state, build and publish one snapshot, then deliver the per-batch
/// reports.
fn writer_loop(mut writer: WriterCore, rx: mpsc::Receiver<PendingBatch>, cell: Arc<SnapshotCell>) {
    let obs = writer.obs.clone();
    while let Ok(first) = rx.recv() {
        let mut pending = vec![first];
        while pending.len() < MAX_COALESCED_BATCHES {
            match rx.try_recv() {
                Ok(p) => pending.push(p),
                Err(_) => break,
            }
        }
        let mut reports = Vec::with_capacity(pending.len());
        for p in &pending {
            // Read before applying: the wait ends when the writer picks the
            // batch up (earlier batches of the same round count as waiting).
            let queue_wait = p.enqueued.elapsed();
            let (inserts, deletes) = writer.intern_batch(&p.batch);
            let mut report = writer.apply(&inserts, &deletes);
            report.queue_wait = queue_wait;
            reports.push(report);
        }
        // Build outside the lock; hold it only for the swap.
        let snap = writer.snapshot();
        #[cfg(feature = "strict-invariants")]
        assert!(
            std::ptr::eq(snap.dictionary(), writer.reasoner.explicit().dictionary()),
            "the published dictionary is not the reasoner's"
        );
        let seq = snap.seq();
        let retired = {
            let mut current = cell.lock();
            // This loop is the only publisher and `WriterCore::apply` bumps
            // `seq` once per batch, so publication is monotonic.
            #[cfg(feature = "strict-invariants")]
            assert!(
                seq > current.seq(),
                "snapshot publication must be monotonic"
            );
            std::mem::replace(&mut *current, snap)
        };
        obs.add("serving.publish", 1);
        if obs.enabled() {
            obs.observe("serving.snapshot.age_us", retired.age().as_micros() as u64);
        }
        // Free the retired snapshot (if no reader still holds it) outside
        // the lock, so readers never wait on it, and before the tickets
        // resolve, so an acknowledged write has released it.
        drop(retired);
        obs.gauge("serving.snapshot.seq", seq);
        obs.observe("serving.batch.coalesced", pending.len() as u64);
        for (p, report) in pending.into_iter().zip(reports) {
            obs.observe(
                "serving.batch.queue_wait_us",
                report.queue_wait.as_micros() as u64,
            );
            obs.observe(
                "serving.batch.apply_us",
                report.apply_wall.as_micros() as u64,
            );
            // A dropped ticket just means the submitter doesn't care.
            let _ = p.reply.send(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::parser::parse_turtle;
    use rdfref_model::Term;
    use rdfref_query::parse_select;

    const DOC: &str = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:domain ex:Book .
ex:doi1 a ex:Book .
"#;

    fn setup() -> (ServingDatabase, Cq) {
        setup_with(Database::builder())
    }

    fn setup_with(builder: EngineBuilder) -> (ServingDatabase, Cq) {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
            g.dictionary_mut(),
        )
        .unwrap();
        (builder.build_serving(g), q)
    }

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://example.org/{s}"))
    }

    fn triple(s: &str, p: &Term, o: &str) -> Triple {
        Triple::new(iri(s), p.clone(), iri(o)).unwrap()
    }

    #[test]
    fn snapshot_reads_are_consistent_across_writes() {
        let (db, q) = setup();
        let before = db.snapshot();
        assert_eq!(before.seq(), 0);
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let report = db
            .insert(vec![triple("doi2", &rdf_type, "Book")])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.seq(), 1);
        assert_eq!(report.explicit_added(), 1);
        assert!(report.saturation_added() >= 2, "explicit + derived type");

        // The old snapshot still answers the pre-write state…
        let old = before
            .run_query(&q, &Strategy::Saturation, &AnswerOptions::default())
            .unwrap();
        assert_eq!(old.len(), 1);
        assert_eq!(old.explain.snapshot.unwrap().seq(), 0);
        // …while a fresh snapshot sees the write.
        let new = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
        assert_eq!(new.len(), 2);
        assert_eq!(new.explain.snapshot.unwrap().seq(), 1);
        assert_eq!(db.published_seq(), 1);
    }

    #[test]
    fn all_complete_strategies_agree_on_a_snapshot() {
        let (db, q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        // One explicitly typed Book, one typed only through writtenBy's
        // domain constraint.
        db.insert(vec![
            triple("doi5", &rdf_type, "Book"),
            triple("doi9", &iri("writtenBy"), "someone"),
        ])
        .unwrap()
        .wait()
        .unwrap();
        let snap = db.snapshot();
        let opts = AnswerOptions::default();
        let reference = snap.run_query(&q, &Strategy::Saturation, &opts).unwrap();
        assert_eq!(reference.len(), 3);
        for s in [
            Strategy::RefUcq,
            Strategy::RefScq,
            Strategy::RefGCov,
            Strategy::Datalog,
        ] {
            let got = snap.run_query(&q, &s, &opts).unwrap();
            assert_eq!(got.rows(), reference.rows(), "strategy {}", s.name());
        }
    }

    #[test]
    fn delete_batches_unwind_insertions() {
        let (db, q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let t = triple("doi6", &rdf_type, "Book");
        db.insert(vec![t.clone()]).unwrap().wait().unwrap();
        let report = db.delete(vec![t]).unwrap().wait().unwrap();
        assert_eq!(report.explicit_removed(), 1);
        assert!(report.saturation_removed() >= 2);
        let after = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
        assert_eq!(after.len(), 1);
    }

    #[test]
    fn schema_batches_resaturate_and_bump_schema_epoch() {
        let (db, q) = setup();
        // Warm a reformulation so the schema bump has something to strand.
        db.query(&q).strategy(Strategy::RefUcq).run().unwrap();
        let before = db.plan_cache().schema_epoch();
        let batch = UpdateBatch::new()
            .insert(
                Triple::new(
                    iri("Novel"),
                    Term::iri(rdfref_model::vocab::RDFS_SUBCLASSOF),
                    iri("Book"),
                )
                .unwrap(),
            )
            .insert(triple(
                "doi7",
                &Term::iri(rdfref_model::vocab::RDF_TYPE),
                "Novel",
            ));
        let report = db.submit(batch).unwrap().wait().unwrap();
        assert!(report.schema_changed());
        assert!(report.resaturated());
        assert_eq!(db.plan_cache().schema_epoch(), before + 1);
        let after = db.query(&q).strategy(Strategy::RefUcq).run().unwrap();
        assert_eq!(
            after.explain.cache.map(|c| c.hit),
            Some(false),
            "the pre-bump reformulation is stranded"
        );
        assert_eq!(after.len(), 2, "new Novel instance reached via new ⊑");
        let sat = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
        assert_eq!(after.rows(), sat.rows());
    }

    #[test]
    fn mixed_batch_applies_inserts_before_deletes() {
        let (db, q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let t = triple("doi8", &rdf_type, "Book");
        let batch = UpdateBatch::new().insert(t.clone()).delete(t);
        db.submit(batch).unwrap().wait().unwrap();
        let after = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
        assert_eq!(after.len(), 1, "insert-then-delete nets to absent");
    }

    #[test]
    fn tickets_resolve_in_submission_order_after_publication() {
        let (db, _q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let tickets: Vec<BatchTicket> = (0..10)
            .map(|i| {
                db.insert(vec![triple(&format!("bulk{i}"), &rdf_type, "Book")])
                    .unwrap()
            })
            .collect();
        let mut last_seq = 0;
        for t in tickets {
            let report = t.wait().unwrap();
            assert!(report.seq() > last_seq || report.seq() == last_seq + 1);
            assert!(report.seq() >= last_seq, "seqs are monotone in order");
            last_seq = report.seq();
        }
        // All ten batches applied; the published snapshot contains them all.
        assert_eq!(db.published_seq(), 10);
        assert_eq!(db.snapshot().explicit_len(), 3 + 10);
    }

    #[test]
    fn empty_batch_still_publishes_and_reports() {
        let (db, _q) = setup();
        let report = db.submit(UpdateBatch::new()).unwrap().wait().unwrap();
        assert_eq!(report.explicit_added(), 0);
        assert_eq!(report.saturation_added(), 0);
        assert!(!report.schema_changed());
    }

    /// The write path's split is visible from the engine's own registry:
    /// one `maintain.store_delta` and one `maintain.stats` span per batch
    /// that changes the stores, beside the reasoner's spans.
    #[test]
    fn each_applied_batch_records_one_store_delta_and_one_stats_span() {
        let registry = Arc::new(rdfref_obs::MetricsRegistry::new());
        let builder = Database::builder().obs(Obs::collecting(registry.clone()));
        let (db, _q) = setup_with(builder);
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let t = triple("doi3", &rdf_type, "Book");
        db.insert(vec![t.clone()]).unwrap().wait().unwrap();
        let mixed = UpdateBatch::new()
            .insert(triple("doi4", &rdf_type, "Book"))
            .delete(t);
        db.submit(mixed).unwrap().wait().unwrap();
        db.submit(UpdateBatch::new()).unwrap().wait().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.span_count("maintain.batch"), 3);
        assert_eq!(snap.span_count("maintain.insert"), 2);
        assert_eq!(snap.span_count("maintain.delete"), 1);
        for span in ["maintain.store_delta", "maintain.stats"] {
            assert_eq!(snap.span_count(span), 2, "{span}");
        }
    }

    /// Interval ids are re-clustered on every schema change: the working
    /// stores must be re-encoded along with the encoder, and answer like a
    /// database built from scratch over the same triples.
    #[test]
    fn interval_stores_are_reencoded_on_schema_change() {
        let (db, q) = setup_with(Database::builder().encoding(DictEncoding::Interval));
        let added = vec![
            Triple::new(
                iri("Novel"),
                Term::iri(rdfref_model::vocab::RDFS_SUBCLASSOF),
                iri("Book"),
            )
            .unwrap(),
            triple("doi7", &Term::iri(rdfref_model::vocab::RDF_TYPE), "Novel"),
            triple("doi8", &iri("writtenBy"), "someone"),
        ];
        let batch = added
            .iter()
            .cloned()
            .fold(UpdateBatch::new(), UpdateBatch::insert);
        db.submit(batch).unwrap().wait().unwrap();
        let snap = db.snapshot();
        let mut graph = parse_turtle(DOC).unwrap();
        for t in &added {
            graph.insert_triple(t);
        }
        let rebuilt = Database::builder()
            .encoding(DictEncoding::Interval)
            .build(graph);
        for s in [Strategy::Saturation, Strategy::RefUcq, Strategy::RefGCov] {
            let got = snap.query(&q).strategy(s.clone()).run().unwrap();
            let reference = rebuilt.query(&q).strategy(s.clone()).run().unwrap();
            assert_eq!(got.len(), 3, "strategy {}", s.name());
            assert_eq!(
                got.decoded(snap.dictionary()),
                reference.decoded(rebuilt.dictionary()),
                "strategy {}",
                s.name()
            );
        }
    }

    /// Regression: `queue_wait` used to be read after the batch was
    /// applied, so it contained the batch's own `apply_wall`.
    #[test]
    fn queue_wait_excludes_the_batch_s_own_apply_time() {
        let (db, _q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let batch: Vec<Triple> = (0..20_000)
            .map(|i| triple(&format!("big{i}"), &rdf_type, "Book"))
            .collect();
        let start = Instant::now();
        let report = db.insert(batch).unwrap().wait().unwrap();
        let wall = start.elapsed();
        assert_eq!(report.explicit_added(), 20_000);
        assert!(
            report.queue_wait() + report.apply_wall() <= wall,
            "queue_wait {:?} + apply_wall {:?} exceeds the {wall:?} the round trip took",
            report.queue_wait(),
            report.apply_wall()
        );
    }

    #[test]
    fn data_updates_invalidate_only_cost_based_plans() {
        let (db, q) = setup();
        // Warm both a pure reformulation and a cost-based GCov plan.
        let cold = db.query(&q).strategy(Strategy::RefUcq).run().unwrap();
        assert_eq!(cold.explain.cache.map(|c| c.hit), Some(false));
        db.query(&q).strategy(Strategy::RefGCov).run().unwrap();

        // A data-only insert: the UCQ reformulation is still valid, the
        // GCov plan (cost-based) is not.
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        db.insert(vec![triple("doi9", &rdf_type, "Book")])
            .unwrap()
            .wait()
            .unwrap();
        let ucq = db.query(&q).strategy(Strategy::RefUcq).run().unwrap();
        assert_eq!(ucq.explain.cache.map(|c| c.hit), Some(true));
        let gcv = db.query(&q).strategy(Strategy::RefGCov).run().unwrap();
        assert_eq!(gcv.explain.cache.map(|c| c.hit), Some(false));
        assert_eq!(db.plan_cache().counters().invalidations, 1);
        assert_eq!(ucq.rows(), gcv.rows());
    }

    #[test]
    fn explain_reports_maintenance_delta() {
        let (db, q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let report = db
            .insert(vec![triple("doi4", &rdf_type, "Book")])
            .unwrap()
            .wait()
            .unwrap();
        let a = db.query(&q).strategy(Strategy::Saturation).run().unwrap();
        assert_eq!(a.explain.saturation_added, report.saturation_added());
        assert_eq!(a.explain.strategy, "Sat");
    }

    /// The engine shares the input graph's dictionary until a batch adds a
    /// term; that batch copies it, and a snapshot held from before it keeps
    /// the old one and decodes every answer through it. Every strategy, Dat
    /// included, sees the terms the last batch introduced.
    #[test]
    fn a_term_adding_batch_copies_the_dictionary_a_held_snapshot_keeps() {
        let mut g = parse_turtle(DOC).unwrap();
        let q = parse_select(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
            g.dictionary_mut(),
        )
        .unwrap();
        let db = Database::builder().build_serving(g.clone());
        let old = db.snapshot();
        assert!(std::ptr::eq(g.dictionary(), old.dictionary()));
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let t = triple("brand-new-term", &rdf_type, "Book");
        db.insert(vec![t.clone()]).unwrap().wait().unwrap();
        let new = db.snapshot();
        assert!(!std::ptr::eq(old.dictionary(), new.dictionary()));
        assert_eq!(new.dictionary().len(), g.dictionary().len() + 1);
        assert_eq!(old.dictionary().len(), g.dictionary().len());
        for s in [
            Strategy::Saturation,
            Strategy::RefUcq,
            Strategy::RefGCov,
            Strategy::Datalog,
        ] {
            let a = old.query(&q).strategy(s.clone()).run().unwrap();
            assert_eq!(a.decoded(old.dictionary()), vec![vec![iri("doi1")]]);
            let b = new.query(&q).strategy(s.clone()).run().unwrap();
            let decoded = b.decoded(new.dictionary());
            assert_eq!(decoded.len(), 2, "{}", s.name());
            assert!(decoded.contains(&vec![iri("brand-new-term")]));
        }
        // A batch that adds no term publishes the same dictionary.
        db.delete(vec![t]).unwrap().wait().unwrap();
        assert!(std::ptr::eq(new.dictionary(), db.snapshot().dictionary()));
    }

    /// Regression: a per-thread snapshot cache used to keep up to eight
    /// retired snapshots (and their unshared index buckets) alive until the
    /// reading thread read again.
    #[test]
    fn retired_snapshot_is_freed_once_its_last_reader_drops_it() {
        let (db, _q) = setup();
        let snap = db.snapshot();
        let weak = Arc::downgrade(&snap);
        drop(snap);
        db.insert(vec![triple(
            "doiX",
            &Term::iri(rdfref_model::vocab::RDF_TYPE),
            "Book",
        )])
        .unwrap()
        .wait()
        .unwrap();
        assert!(
            weak.upgrade().is_none(),
            "retired snapshot outlived its last reader"
        );
    }

    #[test]
    fn dropping_the_database_drains_submitted_batches() {
        let (db, _q) = setup();
        let rdf_type = Term::iri(rdfref_model::vocab::RDF_TYPE);
        let tickets: Vec<BatchTicket> = (0..5)
            .map(|i| {
                db.insert(vec![triple(&format!("drain{i}"), &rdf_type, "Book")])
                    .unwrap()
            })
            .collect();
        drop(db);
        // Every ticket resolves: the worker drained the queue before exit.
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn generic_engine_harness_accepts_serving_database() {
        fn run<E: QueryEngine>(engine: E, cq: &Cq) -> usize {
            engine
                .run_query(cq, &Strategy::RefUcq, &AnswerOptions::default())
                .unwrap()
                .len()
        }
        let (db, q) = setup();
        assert_eq!(run(&db, &q), 1);
        let snap = db.snapshot();
        assert_eq!(run(&*snap, &q), 1);
    }
}
