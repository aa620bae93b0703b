//! Morsel-driven intra-query parallelism.
//!
//! Scans and bind-joins split their input into fixed-size *morsels* that
//! worker threads claim off a shared atomic counter (self-scheduling: fast
//! workers steal more morsels, so skewed morsels never straggle a static
//! partition). Each worker materializes its morsel into a private columnar
//! [`Relation`]; partials are stitched back **in morsel order** with
//! [`Relation::absorb_rows`], so the output is byte-identical to the
//! sequential evaluation — parallelism is observable only through the
//! `op.morsel.*` counters and wall time.
//!
//! Counters:
//! * `op.morsel.count`   — morsels claimed (⌈input/size⌉, min 1; exact and
//!   deterministic, pinned by `tests/metrics_exactness.rs`);
//! * `op.morsel.rows`    — input rows staged into morsels;
//! * `op.morsel.workers` — worker threads used (≤ available parallelism,
//!   hardware-dependent, so never pinned exactly in tests).

use crate::error::{Result, StorageError};
use crate::evaluator::BindShape;
use crate::exec::ScanShape;
use crate::relation::Relation;
use crate::store::{Order, Store};
use rdfref_model::TermId;
use rdfref_obs::Obs;
use rdfref_query::ast::Atom;
use rdfref_sync::atomic::{AtomicUsize, Ordering};
use rdfref_sync::Mutex;

/// How many workers to use for `n_morsels` units of work.
fn worker_count(n_morsels: usize) -> usize {
    rdfref_sync::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(n_morsels)
        .max(1)
}

/// Run `n_morsels` work units through a self-scheduling worker pool.
/// `work(m)` produces the partial relation for morsel `m`; partials are
/// assembled in morsel order into a relation with `columns`.
pub(crate) fn run_morsels<F>(
    n_morsels: usize,
    columns: Vec<rdfref_query::Var>,
    obs: &Obs,
    work: F,
) -> Result<Relation>
where
    F: Fn(usize) -> Result<Relation> + Sync,
{
    let workers = worker_count(n_morsels);
    obs.add("op.morsel.workers", workers as u64);
    let next = AtomicUsize::new(0);
    let partials: Mutex<Vec<Option<Relation>>> = Mutex::new(vec![None; n_morsels]);
    let results: Vec<Result<()>> = rdfref_sync::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let m = next.fetch_add(1, Ordering::Relaxed);
                    if m >= n_morsels {
                        return Ok(());
                    }
                    let rel = work(m)?;
                    partials.lock()[m] = Some(rel);
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(StorageError::WorkerPanicked)))
            .collect()
    });
    for r in results {
        r?;
    }
    let slots = partials.into_inner();
    let mut out = Relation::empty(columns);
    for slot in slots {
        let part = slot.ok_or(StorageError::WorkerPanicked)?;
        out.absorb_rows(&part)?;
    }
    Ok(out)
}

/// Morsel-parallel pattern scan: stage the matching index runs into one
/// contiguous key buffer, then filter/project it in `size`-key morsels.
/// Output equals [`crate::exec::scan_atom`] exactly, including row order.
pub(crate) fn scan_atom_morsels(
    store: &Store,
    atom: &Atom,
    size: usize,
    obs: &Obs,
) -> Result<Relation> {
    let size = size.max(1);
    let shape = ScanShape::of(atom);
    // Staging: the runs are `memcpy`ed into a buffer morsel workers can
    // slice without coordination. One scan's runs all share one layout.
    let mut staged: Vec<[TermId; 3]> = Vec::new();
    let mut layout = Order::Spo;
    store.scan_range_into(&shape.pattern, &mut |order, run| {
        assert!(staged.is_empty() || order == layout, "one scan, one layout");
        layout = order;
        staged.extend_from_slice(run);
    });
    let n_morsels = staged.len().div_ceil(size).max(1);
    obs.add("op.morsel.count", n_morsels as u64);
    obs.add("op.morsel.rows", staged.len() as u64);
    let (staged, shape) = (&staged, &shape);
    let work = |m: usize| {
        let mut rel = Relation::empty(shape.columns.clone());
        let hi = ((m + 1) * size).min(staged.len());
        shape
            .emit
            .append(layout, &staged[m * size..hi], &[], &mut rel);
        Ok(rel)
    };
    if n_morsels == 1 {
        obs.add("op.morsel.workers", 1);
        return work(0);
    }
    run_morsels(n_morsels, shape.columns.clone(), obs, work)
}

/// Morsel-parallel bind join: chunk the accumulated rows into `size`-row
/// morsels; each worker probes the store per row of its morsel. Output
/// equals the sequential bind join exactly, including row order.
pub(crate) fn bind_join_morsels(
    store: &Store,
    acc: &Relation,
    atom: &Atom,
    size: usize,
    obs: &Obs,
) -> Result<Relation> {
    let size = size.max(1);
    let shape = &BindShape::of(acc, atom);
    let n_morsels = acc.len().div_ceil(size).max(1);
    obs.add("op.morsel.count", n_morsels as u64);
    obs.add("op.morsel.rows", acc.len() as u64);
    let work = |m: usize| {
        let mut out = Relation::empty(shape.out_columns().to_vec());
        let hi = ((m + 1) * size).min(acc.len());
        shape.probe(store, acc, m * size..hi, &mut out);
        Ok(out)
    };
    if n_morsels == 1 {
        obs.add("op.morsel.workers", 1);
        return work(0);
    }
    run_morsels(n_morsels, shape.out_columns().to_vec(), obs, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::scan_atom;
    use crate::store::Store;
    use rdfref_model::{Dictionary, EncodedTriple, Term};
    use rdfref_obs::Obs;
    use rdfref_query::Var;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    fn fixture() -> (Store, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = ["p", "q"]
            .iter()
            .map(|n| d.intern(&Term::iri(*n)))
            .collect();
        let (p, q) = (ids[0], ids[1]);
        let mut triples = Vec::new();
        for i in 0..100u32 {
            triples.push(EncodedTriple::new(TermId(100 + i), p, TermId(200 + i % 7)));
            if i % 3 == 0 {
                triples.push(EncodedTriple::new(TermId(200 + i % 7), q, TermId(300 + i)));
            }
        }
        (Store::from_triples(&triples), ids)
    }

    #[test]
    fn morsel_scan_is_order_identical_to_sequential() {
        let (store, ids) = fixture();
        let atom = Atom::new(v("x"), ids[0], v("y"));
        let expected = scan_atom(&store, &atom).unwrap();
        for size in [1, 7, 64, 4096] {
            let got = scan_atom_morsels(&store, &atom, size, &Obs::disabled()).unwrap();
            assert_eq!(expected.to_rows(), got.to_rows(), "size={size}");
        }
    }

    #[test]
    fn morsel_counters_are_exact() {
        let (store, ids) = fixture();
        let atom = Atom::new(v("x"), ids[0], v("y")); // 100 matching rows
        let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
        let obs = Obs::collecting(registry.clone());
        scan_atom_morsels(&store, &atom, 32, &obs).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("op.morsel.count"), 4); // ceil(100/32)
        assert_eq!(snap.counter("op.morsel.rows"), 100);
        let workers = snap.counter("op.morsel.workers");
        assert!((1..=4).contains(&workers));
    }

    #[test]
    fn empty_scan_is_one_empty_morsel() {
        let (store, _) = fixture();
        let atom = Atom::new(v("x"), TermId(9999), v("y"));
        let registry = std::sync::Arc::new(rdfref_obs::MetricsRegistry::default());
        let obs = Obs::collecting(registry.clone());
        let rel = scan_atom_morsels(&store, &atom, 8, &obs).unwrap();
        assert!(rel.is_empty());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("op.morsel.count"), 1);
        assert_eq!(snap.counter("op.morsel.rows"), 0);
    }

    #[test]
    fn morsel_bind_join_is_order_identical_to_sequential() {
        let (store, ids) = fixture();
        // acc = scan (?x p ?y), then bind-join (?y q ?z).
        let first = Atom::new(v("x"), ids[0], v("y"));
        let second = Atom::new(v("y"), ids[1], v("z"));
        let acc = scan_atom(&store, &first).unwrap();
        let expected = {
            let shape = BindShape::of(&acc, &second);
            let mut out = Relation::empty(shape.out_columns().to_vec());
            shape.probe(&store, &acc, 0..acc.len(), &mut out);
            out
        };
        for size in [1, 7, 64, 4096] {
            let got = bind_join_morsels(&store, &acc, &second, size, &Obs::disabled()).unwrap();
            assert_eq!(expected.to_rows(), got.to_rows(), "size={size}");
        }
    }
}
