//! Execution explanations — the content of the demo's inspection screens.
//!
//! Demo step 3: "Observe the evaluation runtime and inspect: the chosen
//! query plan; cardinalities and costs of (sub)queries; and (if the cover
//! was selected by GCov) the space of explored alternatives, and their
//! estimated costs."

use crate::cache::CacheCounters;
use rdfref_query::Cover;
use rdfref_storage::{CostEstimate, ExecMetrics};
use std::fmt;
use std::time::Duration;

/// The plan cache's involvement in one answering run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheReport {
    /// Did this run reuse a cached plan?
    pub hit: bool,
    /// Aggregate cache counters right after this run's lookup.
    pub counters: CacheCounters,
    /// Entries resident right after this run's lookup/insert.
    pub entries: usize,
}

/// Everything observable about one query answering run.
///
/// Non-exhaustive: new observability fields may be added without a major
/// version bump. Out-of-crate code reads the `pub` fields, which are the
/// one way to read an answer's facts, and constructs values via `Default`.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct Explain {
    /// Human-readable strategy name.
    pub strategy: String,
    /// Total CQ disjuncts in the reformulation as evaluated, i.e. minimised
    /// (0 for Sat/Dat).
    pub reformulation_cqs: usize,
    /// Total atoms across the reformulation (query-text size proxy).
    pub reformulation_atoms: usize,
    /// The cover used, if the strategy is cover-based.
    pub cover: Option<Cover>,
    /// The cost model's estimate for the executed query, if Ref.
    pub estimate: Option<CostEstimate>,
    /// Covers explored by GCov with their estimates (`None` = reformulation
    /// exceeded the size limit).
    pub explored: Vec<(Cover, Option<CostEstimate>)>,
    /// Operator-level metrics (scans, joins, intermediate sizes), and the
    /// join operator(s) the evaluator dispatched, tallied over every CQ
    /// body it ran (under Ref strategies those are the CQs of the
    /// reformulation, not the user's query).
    pub metrics: ExecMetrics,
    /// Wall-clock time of the complete answering run.
    pub wall: Duration,
    /// Number of answer tuples.
    pub answers: usize,
    /// For Sat (0 otherwise), set on every Sat answer. On a plain database:
    /// the triples saturation added to it, counted once per database. On a
    /// serving snapshot: the saturation triples the last maintenance batch
    /// added plus removed (`WriterCore::last_delta`), or the derived triples
    /// before the first batch.
    pub saturation_added: usize,
    /// For Dat: the facts of the closure `tc`, explicit triples included
    /// (the copy rule derives them), plus the query's answer facts.
    pub datalog_derived: usize,
    /// Plan-cache outcome, for Ref strategies with the cache enabled
    /// (`None` when the run bypassed the cache).
    pub cache: Option<CacheReport>,
    /// The immutable snapshot this run was served from, on every read path
    /// of the serving layer (`None` for a static [`crate::Database`]).
    pub snapshot: Option<SnapshotInfo>,
}

/// Identity of the immutable snapshot a query ran against: its publication
/// sequence number plus the plan-cache epochs it was tagged with. Two
/// answers carrying the same `seq` were computed over byte-identical
/// (graph, saturation, stats) state.
///
/// Non-exhaustive with private fields: constructed only by the serving
/// layer, read through the accessors — new identity facets can be added
/// without breaking readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SnapshotInfo {
    seq: u64,
    schema_epoch: u64,
    data_epoch: u64,
}

impl SnapshotInfo {
    pub(crate) fn new(seq: u64, schema_epoch: u64, data_epoch: u64) -> SnapshotInfo {
        SnapshotInfo {
            seq,
            schema_epoch,
            data_epoch,
        }
    }

    /// Monotonic publication sequence number (0 = initial snapshot).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Plan-cache schema epoch at snapshot construction.
    pub fn schema_epoch(&self) -> u64 {
        self.schema_epoch
    }

    /// Plan-cache data epoch at snapshot construction.
    pub fn data_epoch(&self) -> u64 {
        self.data_epoch
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "strategy        : {}", self.strategy)?;
        writeln!(f, "answers         : {}", self.answers)?;
        writeln!(f, "wall time       : {:?}", self.wall)?;
        if self.reformulation_cqs > 0 {
            writeln!(
                f,
                "reformulation   : {} CQ(s), {} atom(s)",
                self.reformulation_cqs, self.reformulation_atoms
            )?;
        }
        if let Some(cover) = &self.cover {
            writeln!(f, "cover           : {cover}")?;
        }
        if let Some(est) = &self.estimate {
            writeln!(
                f,
                "estimated       : cost {:.1}, cardinality {:.1}",
                est.cost, est.cardinality
            )?;
        }
        if let Some(cache) = &self.cache {
            let c = &cache.counters;
            writeln!(
                f,
                "plan cache      : {} ({} hits / {} misses / {} evictions / {} invalidations, {} entries)",
                if cache.hit { "hit" } else { "miss" },
                c.hits,
                c.misses,
                c.evictions,
                c.invalidations,
                cache.entries
            )?;
        }
        if let Some(snap) = &self.snapshot {
            writeln!(
                f,
                "snapshot        : seq {} (schema epoch {}, data epoch {})",
                snap.seq, snap.schema_epoch, snap.data_epoch
            )?;
        }
        if self.metrics.dispatched.choice.is_some() {
            writeln!(f, "physical        : {:16}", self.metrics.dispatched)?;
        }
        if self.saturation_added > 0 {
            writeln!(f, "saturation added: {} triples", self.saturation_added)?;
        }
        if self.datalog_derived > 0 {
            writeln!(f, "datalog derived : {} facts", self.datalog_derived)?;
        }
        if !self.explored.is_empty() {
            writeln!(f, "explored covers : {}", self.explored.len())?;
            for (cover, est) in self.explored.iter().take(8) {
                match est {
                    Some(e) => writeln!(f, "  {cover}  cost {:.1}", e.cost)?,
                    None => writeln!(f, "  {cover}  (reformulation too large)")?,
                }
            }
            if self.explored.len() > 8 {
                writeln!(f, "  … {} more", self.explored.len() - 8)?;
            }
        }
        if !self.metrics.steps.is_empty() {
            writeln!(
                f,
                "operators       : {} steps, peak intermediate {} rows, {} rows scanned",
                self.metrics.steps.len(),
                self.metrics.peak_intermediate(),
                self.metrics.rows_scanned()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_key_facts() {
        let mut e = Explain {
            strategy: "Ref/GCov".into(),
            reformulation_cqs: 12,
            reformulation_atoms: 30,
            cover: Some(Cover::singletons(2)),
            estimate: Some(CostEstimate {
                cardinality: 42.0,
                cost: 1234.5,
            }),
            answers: 7,
            ..Explain::default()
        };
        e.metrics.record(
            rdfref_storage::exec::StepLabel::Scan(1),
            100,
            std::time::Duration::ZERO,
        );
        let s = e.to_string();
        assert!(s.contains("Ref/GCov"));
        assert!(s.contains("12 CQ(s)"));
        assert!(s.contains("1234.5"));
        assert!(s.contains("{{t1}, {t2}}"));
        assert!(s.contains("peak intermediate 100"));
    }
}
