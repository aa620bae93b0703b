//! Allocation budgets of the evaluator kernels: a hash join, a bind join and
//! a scan allocate per *operator* (output buffer growth, one hash table),
//! never per row. Each kernel runs ≥ 10 000 rows under a counting global
//! allocator and must stay under [`BUDGET`] allocations. The answer
//! boundary is pinned exactly: sorting packs keys into one buffer, and
//! decoding a sorted answer allocates only the rows it returns.

use rdfref_core::{Explain, QueryAnswer};
use rdfref_model::{Dictionary, EncodedTriple, Term, TermId};
use rdfref_query::ast::{Atom, Cq};
use rdfref_query::Var;
use rdfref_storage::evaluator::Evaluator;
use rdfref_storage::exec::{scan_atom, StepLabel};
use rdfref_storage::{ExecMetrics, Relation, Stats, Store};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations one kernel may make, whatever its row count.
const BUDGET: u64 = 64;

struct CountingAlloc;

thread_local! {
    // `const`-initialized `Cell`: no allocation and no TLS destructor, so it
    // is safe to touch from inside the allocator. Per thread, because the
    // test harness runs tests on parallel threads.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the bookkeeping touches only an allocation-free
// thread-local cell, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` was allocated by `System` with `layout` (all
        // allocation goes through this type), `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (incl. reallocations) the calling thread makes inside `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(|c| c.get());
    let value = f();
    (value, ALLOCS.with(|c| c.get()) - before)
}

fn v(n: &str) -> Var {
    Var::new(n)
}

const P: TermId = TermId(1);
const Q: TermId = TermId(2);

#[test]
fn hash_join_of_10k_by_10k_rows() {
    let mut left = Relation::empty(vec![v("x"), v("y")]);
    let mut right = Relation::empty(vec![v("y"), v("z")]);
    for i in 0..10_000u32 {
        left.push_row(&[TermId(i), TermId(i % 2_500)]).unwrap();
        right.push_row(&[TermId(i % 2_500), TermId(i)]).unwrap();
    }
    let (joined, n) = allocations(|| left.natural_join(&right));
    assert_eq!(joined.len(), 40_000); // 2 500 keys × 4 × 4
    assert!(n < BUDGET, "hash join made {n} allocations");
}

#[test]
fn bind_join_of_10k_probes() {
    // 10 000 `p` edges into 5 000 hubs, each hub with 40 `q` edges: the
    // `q` atom (200 000 triples) is bind-joined from the `p` scan.
    let mut triples = Vec::new();
    for i in 0..10_000u32 {
        triples.push(EncodedTriple::new(TermId(100_000 + i), P, TermId(i / 2)));
    }
    for hub in 0..5_000u32 {
        for k in 0..40u32 {
            triples.push(EncodedTriple::new(TermId(hub), Q, TermId(200_000 + k)));
        }
    }
    let store = Store::from_triples(&triples);
    let stats = Stats::compute(&store);
    let head = [v("x"), v("y"), v("z")];
    let cq = Cq::new(
        head.to_vec(),
        vec![Atom::new(v("x"), P, v("y")), Atom::new(v("y"), Q, v("z"))],
    )
    .unwrap();
    let mut metrics = ExecMetrics::default();
    let (rel, n) = allocations(|| {
        Evaluator::new(&store, &stats)
            .eval_cq(&cq, &head, &mut metrics)
            .unwrap()
    });
    assert_eq!(rel.len(), 400_000);
    assert!(
        metrics
            .steps
            .iter()
            .any(|s| s.label == StepLabel::BindJoin(2) && s.rows == 400_000),
        "the q atom must run as a bind join: {:?}",
        metrics.steps
    );
    assert!(n < BUDGET, "scan + bind join + dedup made {n} allocations");
}

#[test]
fn sort_of_50k_pairs_packs_in_place() {
    let mut rel = Relation::empty(vec![v("x"), v("y")]);
    for i in 0..50_000u32 {
        rel.push_row(&[TermId(i.wrapping_mul(7_919) % 50_000), TermId(i % 97)])
            .unwrap();
    }
    let ((), n) = allocations(|| rel.sort());
    assert!(rel.is_sorted());
    // The key buffer; a row-index permutation plus a gathered copy is 2.
    assert!(n <= 1, "sorting 50 000 pairs made {n} allocations");
}

#[test]
fn decoding_an_answer_allocates_its_rows_and_nothing_else() {
    let mut dict = Dictionary::new();
    let terms: Vec<TermId> = (0..100)
        .map(|i| dict.intern(&Term::iri(format!("t{i}"))))
        .collect();
    let mut rel = Relation::empty(vec![v("x"), v("y")]);
    for i in (0..1_000usize).rev() {
        rel.push_row(&[terms[i % 100], terms[i / 100]]).unwrap();
    }
    let answer = QueryAnswer::from_parts(rel, Explain::default());
    let (rows, n) = allocations(|| answer.decoded(&dict));
    assert_eq!(rows.len(), 1_000);
    assert!(rows.is_sorted_by_key(|row| [dict.id_of(&row[0]), dict.id_of(&row[1])]));
    assert_eq!(n, 1_000 + 1, "one Vec per row and one for the answer");
}

#[test]
fn scan_of_50k_rows() {
    let triples: Vec<EncodedTriple> = (0..50_000u32)
        .map(|i| EncodedTriple::new(TermId(10 + i), P, TermId(10 + i % 97)))
        .collect();
    let store = Store::from_triples(&triples);
    let atom = Atom::new(v("x"), P, v("y"));
    let (rel, n) = allocations(|| scan_atom(&store, &atom));
    assert_eq!(rel.len(), 50_000);
    assert!(n < BUDGET, "scan made {n} allocations");
}
