//! Materialized relations: the unit of data flow between operators.
//!
//! A [`Relation`] stores rows flat (`arity`-strided `Vec<TermId>`) with
//! columns *named* by query variables — natural-join semantics between
//! fragments of a JUCQ are defined by column names, exactly as in the paper.
//!
//! Every operator here walks the flat buffer once and allocates per
//! *operator*, never per row: joins and deduplication hash key columns
//! straight from the buffer into an index-chained `RowTable`.

use crate::error::{Result, StorageError};
use rdfref_model::fxhash::FxHasher;
use rdfref_model::TermId;
use rdfref_query::Var;
use std::hash::Hasher;

/// A zero-arity relation cannot encode rows in `data`; it holds one of
/// these markers per (unit) row instead.
const UNIT_ROW: TermId = TermId(u32::MAX);

/// A named, flat, materialized relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    columns: Vec<Var>,
    data: Vec<TermId>,
}

/// One output column of [`Relation::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColumnSource {
    /// Copy the input column at this index.
    Column(usize),
    /// Emit this constant on every row.
    Const(TermId),
}

/// End of a [`RowTable`] chain.
const NIL: u32 = u32::MAX;

/// An index-chained hash table over row numbers: `heads[slot]` is the first
/// row of a slot's chain, `next[row]` the row after it. Two flat `u32`
/// vectors whatever the row count — keys are never copied out of the
/// relation, callers hash and compare them in place.
struct RowTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    shift: u32,
}

impl RowTable {
    fn new(rows: usize) -> RowTable {
        assert!(rows < NIL as usize, "relation too large to hash-index");
        let bits = rows.next_power_of_two().trailing_zeros().max(1);
        RowTable {
            heads: vec![NIL; 1 << bits],
            next: vec![NIL; rows],
            shift: 64 - bits,
        }
    }

    /// Link `row` at the front of the chain `hash` selects.
    #[inline]
    fn push_front(&mut self, hash: u64, row: usize) {
        let slot = (hash >> self.shift) as usize;
        self.next[row] = self.heads[slot];
        self.heads[slot] = row as u32;
    }

    /// The rows chained under `hash`, front to back.
    #[inline]
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let first = self.heads[(hash >> self.shift) as usize];
        std::iter::successors((first != NIL).then_some(first as usize), |&r| {
            let n = self.next[r];
            (n != NIL).then_some(n as usize)
        })
    }
}

/// Fx-hash a key; the multiplicative finish leaves its entropy in the high
/// bits, which is where [`RowTable`] takes its slot from.
#[inline]
fn hash_ids(ids: impl Iterator<Item = TermId>) -> u64 {
    let mut h = FxHasher::default();
    for id in ids {
        h.write_u32(id.0);
    }
    h.finish()
}

impl Relation {
    /// An empty relation with the given columns.
    pub fn empty(columns: Vec<Var>) -> Relation {
        Relation {
            columns,
            data: Vec::new(),
        }
    }

    /// A relation holding a single zero-length row — the unit of join
    /// (used for boolean fragments that evaluated to *true*).
    pub fn unit() -> Relation {
        Relation {
            columns: Vec::new(),
            data: vec![UNIT_ROW],
        }
    }

    /// The column names.
    pub fn columns(&self) -> &[Var] {
        &self.columns
    }

    /// The same rows under `columns`, named position by position.
    pub fn with_columns(mut self, columns: Vec<Var>) -> Result<Relation> {
        if columns.len() != self.columns.len() {
            return Err(StorageError::HeadMismatch {
                head: self.columns.len(),
                columns: columns.len(),
            });
        }
        self.columns = columns;
        Ok(self)
    }

    /// Arity (number of columns).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        // Zero-arity: one marker per unit row.
        self.data.len() / self.columns.len().max(1)
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a row.
    pub fn push_row(&mut self, row: &[TermId]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.columns.len(),
                found: row.len(),
            });
        }
        if self.columns.is_empty() {
            self.data.push(UNIT_ROW);
        } else {
            self.data.extend_from_slice(row);
        }
        Ok(())
    }

    /// The `i`-th row.
    #[inline]
    pub fn row(&self, i: usize) -> &[TermId] {
        let a = self.columns.len();
        // Zero-arity: the empty slice, whatever `i`.
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterate over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[TermId]> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Index of a column by name.
    pub fn column_index(&self, v: &Var) -> Option<usize> {
        self.columns.iter().position(|c| c == v)
    }

    /// Append every row of `other` (columns must match exactly, in order) —
    /// one `memcpy` of its flat row-major buffer, no per-row work. This is
    /// how a union absorbs its disjuncts.
    pub fn absorb_rows(&mut self, other: &Relation) -> Result<()> {
        if self.columns != other.columns {
            return Err(StorageError::ArityMismatch {
                expected: self.columns.len(),
                found: other.columns.len(),
            });
        }
        self.data.extend_from_slice(&other.data);
        Ok(())
    }

    /// Append one row per key: `prefix` followed by the key's components at
    /// `idx`. The bulk emit of scans (`prefix` empty) and bind joins
    /// (`prefix` = the probing row) over a borrowed index run.
    pub(crate) fn extend_from_keys<'k>(
        &mut self,
        prefix: &[TermId],
        keys: impl Iterator<Item = &'k [TermId; 3]>,
        idx: &[usize],
    ) {
        debug_assert_eq!(prefix.len() + idx.len(), self.columns.len());
        if self.columns.is_empty() {
            self.data.extend(keys.map(|_| UNIT_ROW));
            return;
        }
        self.data.reserve(keys.size_hint().0 * self.columns.len());
        for k in keys {
            self.data.extend_from_slice(prefix);
            self.data.extend(idx.iter().map(|&i| k[i]));
        }
    }

    /// Append a copy of rows `from`, with their first `prefix.len()` values
    /// replaced by `prefix` — a bind join re-emitting the previous probe's
    /// matches for a row that carries the same bound key.
    pub(crate) fn repeat_rows(&mut self, from: std::ops::Range<usize>, prefix: &[TermId]) {
        let a = self.columns.len();
        if a == 0 {
            self.data.extend(from.map(|_| UNIT_ROW));
            return;
        }
        self.data.reserve(from.len() * a);
        for r in from {
            self.data.extend_from_slice(prefix);
            self.data
                .extend_from_within(r * a + prefix.len()..(r + 1) * a);
        }
    }

    /// Deduplicate rows in place (set semantics), keeping first occurrences
    /// in order: one pass that compacts the buffer as it goes.
    pub fn dedup(&mut self) {
        let a = self.columns.len();
        if a == 0 {
            self.data.truncate(1);
            return;
        }
        if self.len() < 2 {
            return;
        }
        let mut table = RowTable::new(self.len());
        let mut kept = 0usize;
        for i in 0..self.len() {
            let hash = hash_ids(self.row(i).iter().copied());
            if table.chain(hash).any(|k| self.row(k) == self.row(i)) {
                continue;
            }
            self.data.copy_within(i * a..(i + 1) * a, kept * a);
            table.push_front(hash, kept);
            kept += 1;
        }
        self.data.truncate(kept * a);
    }

    /// Project onto `cols` (by name), producing a new relation. Columns may
    /// be repeated or reordered. Does **not** deduplicate; call
    /// [`Relation::dedup`] for set semantics.
    pub fn project(&self, cols: &[Var]) -> Result<Relation> {
        let sources: Vec<ColumnSource> = cols
            .iter()
            .map(|v| {
                self.column_index(v)
                    .map(ColumnSource::Column)
                    .ok_or_else(|| StorageError::UnknownColumn(v.name().to_string()))
            })
            .collect::<Result<_>>()?;
        Ok(self.gather(cols.to_vec(), &sources))
    }

    /// [`Relation::project`] generalized to constant columns, consuming the
    /// input: selecting every column in place only renames the buffer.
    pub(crate) fn select(self, columns: Vec<Var>, sources: &[ColumnSource]) -> Relation {
        // (Zero columns is the boolean projection, not a rename.)
        let identity = !sources.is_empty()
            && sources.len() == self.columns.len()
            && sources
                .iter()
                .enumerate()
                .all(|(i, s)| *s == ColumnSource::Column(i));
        if identity {
            Relation {
                columns,
                data: self.data,
            }
        } else {
            self.gather(columns, sources)
        }
    }

    fn gather(&self, columns: Vec<Var>, sources: &[ColumnSource]) -> Relation {
        let mut out = Relation::empty(columns);
        if sources.is_empty() {
            // Boolean projection: one unit row iff self non-empty.
            if !self.is_empty() {
                out.data.push(UNIT_ROW);
            }
            return out;
        }
        out.data.reserve(self.len() * sources.len());
        for row in self.rows() {
            out.data.extend(sources.iter().map(|s| match *s {
                ColumnSource::Column(i) => row[i],
                ColumnSource::Const(c) => c,
            }));
        }
        out
    }

    /// Natural hash join on the columns shared (by name) with `other`.
    /// With no shared columns this is the cross product. Zero-column unit
    /// relations behave as the join identity; empty relations annihilate.
    ///
    /// The smaller side is indexed by a `RowTable` filled last row first,
    /// so every chain lists its rows ascending: output order is probe order
    /// × ascending build row.
    pub fn natural_join(&self, other: &Relation) -> Relation {
        // Output columns: all of self's, then other's non-shared ones.
        let shared: Vec<(usize, usize)> = self
            .columns
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.column_index(v).map(|j| (i, j)))
            .collect();
        let other_extra: Vec<usize> = (0..other.arity())
            .filter(|j| !shared.iter().any(|&(_, sj)| sj == *j))
            .collect();
        let mut out_cols = self.columns.clone();
        out_cols.extend(other_extra.iter().map(|&j| other.columns[j].clone()));
        let mut out = Relation::empty(out_cols);

        // Build on the smaller side; key columns relative to that choice.
        let build_is_self = self.len() <= other.len();
        let (build, probe) = if build_is_self {
            (self, other)
        } else {
            (other, self)
        };
        let (build_key, probe_key): (Vec<usize>, Vec<usize>) = shared
            .iter()
            .map(|&(i, j)| if build_is_self { (i, j) } else { (j, i) })
            .unzip();
        let key_hash = |row: &[TermId], key: &[usize]| hash_ids(key.iter().map(|&k| row[k]));

        if build.is_empty() {
            return out;
        }
        let mut table = RowTable::new(build.len());
        for bi in (0..build.len()).rev() {
            table.push_front(key_hash(build.row(bi), &build_key), bi);
        }
        for prow in probe.rows() {
            for bi in table.chain(key_hash(prow, &probe_key)) {
                let brow = build.row(bi);
                if build_key
                    .iter()
                    .zip(&probe_key)
                    .any(|(&b, &p)| brow[b] != prow[p])
                {
                    continue;
                }
                if out.columns.is_empty() {
                    out.data.push(UNIT_ROW);
                    continue;
                }
                let (srow, orow) = if build_is_self {
                    (brow, prow)
                } else {
                    (prow, brow)
                };
                out.data.extend_from_slice(srow);
                out.data.extend(other_extra.iter().map(|&j| orow[j]));
            }
        }
        out
    }

    /// True iff the rows are in lexicographic order (equal neighbours
    /// allowed). One pass, no allocation.
    pub fn is_sorted(&self) -> bool {
        match self.columns.len() {
            0 => true,
            a => self.data.chunks_exact(a).is_sorted(),
        }
    }

    /// Sort rows lexicographically, in place. Every answer is sorted once at
    /// the answer boundary, so this runs on each request:
    ///
    /// * arity 1 sorts the ids themselves;
    /// * when a whole row fits in 64 bits (`arity × bit-width of the largest
    ///   id ≤ 64`), rows are packed into `u64` keys whose integer order is
    ///   the rows' lexicographic order, sorted, and unpacked in place — one
    ///   allocation;
    /// * otherwise (arity ≥ 3 with large ids) a row-index permutation is
    ///   sorted over the flat buffer and the rows are gathered once.
    ///
    /// Zero-arity (unit) rows are left as they are.
    pub fn sort(&mut self) {
        let a = self.columns.len();
        if a == 0 || self.len() < 2 {
            return;
        }
        if a == 1 {
            self.data.sort_unstable();
            return;
        }
        let max = self.data.iter().max().map_or(0, |id| id.0);
        let bits = u32::BITS - max.leading_zeros();
        if a as u32 * bits <= u64::BITS {
            sort_packed(&mut self.data, a, bits);
            return;
        }
        // Arity 2 always packs (ids are 32 bits wide).
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&x, &y| self.row(x).cmp(self.row(y)));
        let mut sorted = Vec::with_capacity(self.data.len());
        for i in order {
            sorted.extend_from_slice(self.row(i));
        }
        self.data = sorted;
    }

    /// Map every value through `f`, preserving columns and row order
    /// (zero-arity unit-row sentinels pass through untouched). Used to
    /// decode interval-encoded ids back to base dictionary ids at the
    /// answer boundary.
    pub fn map_values(&self, f: &mut impl FnMut(TermId) -> TermId) -> Relation {
        if self.columns.is_empty() {
            return self.clone();
        }
        Relation {
            columns: self.columns.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Collect rows as vectors, in the relation's row order (one `Vec` per
    /// row — what `QueryAnswer::rows` hands out).
    pub fn to_rows(&self) -> Vec<Vec<TermId>> {
        self.rows().map(|r| r.to_vec()).collect()
    }
}

/// [`Relation::sort`]'s packed kernel: each `arity`-id row of `data` becomes
/// one `u64` whose fields, `bits` wide, hold the ids first column highest,
/// so integer order is lexicographic row order. The caller guarantees
/// `arity × bits ≤ 64`, and `arity ≥ 2` (so `bits ≤ 32`).
#[inline(never)]
fn sort_packed(data: &mut [TermId], arity: usize, bits: u32) {
    let mut keys: Vec<u64> = data
        .chunks_exact(arity)
        .map(|row| row.iter().fold(0u64, |k, id| (k << bits) | u64::from(id.0)))
        .collect();
    keys.sort_unstable();
    let mask = (1u64 << bits) - 1;
    for (row, mut key) in data.chunks_exact_mut(arity).zip(keys) {
        for id in row.iter_mut().rev() {
            *id = TermId((key & mask) as u32);
            key >>= bits;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }
    fn t(n: u32) -> TermId {
        TermId(n)
    }

    fn rel(cols: &[&str], rows: &[&[u32]]) -> Relation {
        let mut r = Relation::empty(cols.iter().map(|c| v(c)).collect());
        for row in rows {
            let ids: Vec<TermId> = row.iter().map(|&x| t(x)).collect();
            r.push_row(&ids).unwrap();
        }
        r
    }

    #[test]
    fn push_and_iterate() {
        let r = rel(&["x", "y"], &[&[1, 2], &[3, 4]]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(1), &[t(3), t(4)]);
        assert_eq!(r.rows().count(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = Relation::empty(vec![v("x")]);
        assert!(matches!(
            r.push_row(&[t(1), t(2)]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut r = rel(&["x"], &[&[1], &[2], &[1], &[1]]);
        r.dedup();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn project_reorders_and_drops() {
        let r = rel(&["x", "y", "z"], &[&[1, 2, 3]]);
        let p = r.project(&[v("z"), v("x")]).unwrap();
        assert_eq!(p.columns(), &[v("z"), v("x")]);
        assert_eq!(p.row(0), &[t(3), t(1)]);
        assert!(r.project(&[v("nope")]).is_err());
    }

    #[test]
    fn natural_join_on_shared_column() {
        let left = rel(&["x", "y"], &[&[1, 10], &[2, 20], &[3, 30]]);
        let right = rel(&["y", "z"], &[&[10, 100], &[10, 101], &[30, 300]]);
        let mut j = left.natural_join(&right);
        j.sort();
        assert_eq!(j.columns(), &[v("x"), v("y"), v("z")]);
        assert_eq!(
            j.to_rows(),
            vec![
                vec![t(1), t(10), t(100)],
                vec![t(1), t(10), t(101)],
                vec![t(3), t(30), t(300)],
            ]
        );
    }

    #[test]
    fn join_is_symmetric_up_to_column_order() {
        let left = rel(&["x", "y"], &[&[1, 10], &[2, 20]]);
        let right = rel(&["y", "z"], &[&[10, 100]]);
        let a = left.natural_join(&right);
        let b = right.natural_join(&left);
        let mut a_sorted = a.project(&[v("x"), v("y"), v("z")]).unwrap();
        let mut b_sorted = b.project(&[v("x"), v("y"), v("z")]).unwrap();
        a_sorted.sort();
        b_sorted.sort();
        assert_eq!(a_sorted, b_sorted);
    }

    #[test]
    fn cross_product_when_no_shared() {
        let left = rel(&["x"], &[&[1], &[2]]);
        let right = rel(&["y"], &[&[10], &[20]]);
        let j = left.natural_join(&right);
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn join_on_multiple_shared_columns() {
        let left = rel(&["x", "y"], &[&[1, 2], &[1, 3]]);
        let right = rel(&["x", "y", "z"], &[&[1, 2, 9], &[1, 9, 9]]);
        let j = left.natural_join(&right);
        assert_eq!(j.len(), 1);
        assert_eq!(j.row(0), &[t(1), t(2), t(9)]);
    }

    #[test]
    fn unit_relation_is_join_identity() {
        let r = rel(&["x"], &[&[1], &[2]]);
        let u = Relation::unit();
        assert_eq!(u.len(), 1);
        let j = r.natural_join(&u);
        assert_eq!(j.len(), 2);
        let j2 = u.natural_join(&r);
        assert_eq!(j2.len(), 2);
    }

    #[test]
    fn empty_relation_annihilates_join() {
        let r = rel(&["x"], &[&[1]]);
        let e = Relation::empty(vec![v("x")]);
        assert!(r.natural_join(&e).is_empty());
    }

    #[test]
    fn boolean_projection() {
        let r = rel(&["x"], &[&[1], &[2]]);
        let b = r.project(&[]).unwrap();
        assert_eq!(b.len(), 1); // true
        let e = Relation::empty(vec![v("x")]);
        let be = e.project(&[]).unwrap();
        assert!(be.is_empty()); // false
    }

    #[test]
    fn zero_column_dedup_keeps_single_unit() {
        let mut u = Relation::unit();
        u.push_row(&[]).unwrap();
        assert_eq!(u.len(), 2);
        u.dedup();
        assert_eq!(u.len(), 1);
    }
}
