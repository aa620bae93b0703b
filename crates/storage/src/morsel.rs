//! Morsel-driven execution: the one body of every scan and bind join.
//!
//! An operator's input — a scan's matching index keys, a bind join's
//! accumulated rows, a leapfrog's slot-0 values — is cut into fixed-size
//! *morsels*, and one body turns a morsel's range of the input into rows.
//! [`Parallelism::Off`](crate::Parallelism::Off) is the one-morsel case: the
//! whole input is a single morsel run inline on the calling thread. Under
//! `Morsels { size }` one morsel still runs inline; two or more are claimed
//! off a shared atomic counter by a scoped worker pool (self-scheduling:
//! fast workers take more morsels, so skewed morsels never straggle a static
//! partition). Each worker materializes its morsel into a private
//! [`Relation`] — the same flat row-major buffer as any other; partials are
//! stitched back **in morsel order** with [`Relation::absorb_rows`], so the
//! output is byte-identical to the one-morsel run — parallelism is
//! observable only through the `op.morsel.*` counters and wall time.
//!
//! Counters (none under `Off`):
//! * `op.morsel.count`   — morsels claimed (⌈input/size⌉, min 1; exact and
//!   deterministic, pinned by `tests/metrics_exactness.rs`);
//! * `op.morsel.rows`    — input rows split into morsels;
//! * `op.morsel.workers` — worker threads used: min(available cores, morsel
//!   count), and 1 when the core count is unknown (hardware-dependent, so
//!   never pinned exactly in tests).

use crate::access::Access;
use crate::error::{Result, StorageError};
use crate::relation::Relation;
use crate::store::Store;
use rdfref_model::TermId;
use rdfref_obs::Obs;
use rdfref_query::ast::Atom;
use rdfref_query::Var;
use rdfref_sync::atomic::{AtomicUsize, Ordering};
use rdfref_sync::Mutex;
use std::ops::Range;

/// The morsel size [`Parallelism::Off`](crate::Parallelism::Off) maps to:
/// the whole input is one morsel, and no `op.morsel.*` counter is reported.
pub(crate) const UNSPLIT: usize = 0;

/// How many workers to use for `n_morsels` units of work: one per available
/// core, at most one per morsel, and one when the core count is unknown.
fn worker_count(n_morsels: usize) -> usize {
    rdfref_sync::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(n_morsels)
        .max(1)
}

/// Run an operator over `n` input items cut into `size`-item morsels
/// ([`UNSPLIT`]: one morsel). `work(range, out)` appends the rows of the
/// items in `range` to `out`; the result has `columns` and holds the
/// morsels' rows in morsel order. One morsel runs inline; more go to a
/// self-scheduling scoped pool, where a panicked worker becomes
/// [`StorageError::WorkerPanicked`].
pub(crate) fn run<F>(n: usize, size: usize, columns: &[Var], obs: &Obs, work: F) -> Result<Relation>
where
    F: Fn(Range<usize>, &mut Relation) -> Result<()> + Sync,
{
    let n_morsels = match size {
        UNSPLIT => 1,
        size => n.div_ceil(size).max(1),
    };
    let workers = if n_morsels == 1 {
        1
    } else {
        worker_count(n_morsels)
    };
    if size != UNSPLIT {
        obs.add("op.morsel.count", n_morsels as u64);
        obs.add("op.morsel.rows", n as u64);
        obs.add("op.morsel.workers", workers as u64);
    }
    let mut out = Relation::empty(columns.to_vec());
    if n_morsels == 1 {
        work(0..n, &mut out)?;
        return Ok(out);
    }
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
                    let mut part = Relation::empty(columns.to_vec());
                    work(m * size..((m + 1) * size).min(n), &mut part)?;
                    partials.lock()[m] = Some(part);
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
    for slot in partials.into_inner() {
        out.absorb_rows(&slot.ok_or(StorageError::WorkerPanicked)?)?;
    }
    Ok(out)
}

/// Pattern scan: the atom's access reads its matching index runs, borrowed
/// from the store, and they are projected in `size`-key morsels (each a
/// range of positions in the runs' concatenation). [`crate::exec::scan_atom`]
/// is the [`UNSPLIT`] case.
pub(crate) fn scan_atom_morsels(
    store: &Store,
    atom: &Atom,
    size: usize,
    obs: &Obs,
) -> Result<Relation> {
    let (access, columns) = Access::bind(&[], atom);
    let mut runs: Vec<&[[TermId; 3]]> = Vec::new();
    let mut len = 0;
    access.runs(store, &access.key(&[]), &mut |run| {
        len += run.len();
        runs.push(run);
    });
    run(len, size, &columns, obs, |keys, out| {
        let mut start = 0;
        for run in runs.iter() {
            if start >= keys.end {
                break;
            }
            let end = start + run.len();
            if end > keys.start {
                let lo = keys.start.saturating_sub(start);
                let hi = (keys.end - start).min(run.len());
                access.emit(&run[lo..hi], &[], out);
            }
            start = end;
        }
        Ok(())
    })
}

/// Bind join: the accumulated rows are probed in `size`-row morsels. Each
/// row fills the atom's probe key from its bound columns and appends every
/// match (acc row ++ new values); a row whose key equals the previous row's
/// copies that probe's matches instead of reading the index again.
pub(crate) fn bind_join_morsels(
    store: &Store,
    acc: &Relation,
    atom: &Atom,
    size: usize,
    obs: &Obs,
) -> Result<Relation> {
    let (access, new_columns) = Access::bind(acc.columns(), atom);
    let mut columns = acc.columns().to_vec();
    columns.extend(new_columns);
    run(acc.len(), size, &columns, obs, |rows, out| {
        let mut last: Option<([TermId; 3], Range<usize>)> = None;
        for row in rows.map(|i| acc.row(i)) {
            let key = access.key(row);
            match &last {
                Some((same, matches)) if *same == key => out.repeat_rows(matches.clone(), row),
                _ => {
                    let start = out.len();
                    access.runs(store, &key, &mut |run| access.emit(run, row, out));
                    last = Some((key, start..out.len()));
                }
            }
        }
        Ok(())
    })
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
        let expected = bind_join_morsels(&store, &acc, &second, UNSPLIT, &Obs::disabled()).unwrap();
        for size in [1, 7, 64, 4096] {
            let got = bind_join_morsels(&store, &acc, &second, size, &Obs::disabled()).unwrap();
            assert_eq!(expected.to_rows(), got.to_rows(), "size={size}");
        }
    }
}
