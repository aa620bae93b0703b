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
    /// Operator-level metrics (scans, joins, intermediate sizes).
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
    /// The join operator(s) the evaluator actually dispatched, tallied over
    /// every CQ body it ran (under Ref strategies those are the CQs of the
    /// reformulation, not the user's query), with the arbitration — reason,
    /// and for WCOJ the global variable order and the trie permutation each
    /// atom binds — of a representative CQ. `None` for body-less queries.
    pub physical: Option<PhysicalPlan>,
}

/// The rendered physical dispatch (see [`Explain::physical`]).
///
/// Non-exhaustive, built by the engine from the evaluator's
/// [`rdfref_storage::exec::Dispatched`] tally; readers use the public
/// fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct PhysicalPlan {
    /// The algorithm that ran: `"bind join"` or `"wcoj"`, or both with
    /// their CQ counts (`"wcoj ×2, bind join ×5"`) when a plan's CQs split.
    pub algorithm: String,
    /// Why: the arbitration (cost-model verdict, explicit request,
    /// fallback) of the first CQ run by WCOJ if any was, else of the first
    /// CQ evaluated.
    pub reason: String,
    /// CQ bodies run by the leapfrog triejoin.
    pub wcoj_cqs: usize,
    /// CQ bodies run as bind-join / hash-join chains.
    pub bind_join_cqs: usize,
    /// WCOJ only: that CQ's global variable order, outermost first.
    pub var_order: Vec<String>,
    /// WCOJ only: per body atom of that CQ, the bound trie permutation and
    /// level layout, e.g. `"SPO [?x #7 ?y]"`.
    pub atoms: Vec<String>,
}

impl PhysicalPlan {
    /// Render what the evaluator dispatched; `None` if it ran no CQ body.
    pub fn from_dispatched(ran: &rdfref_storage::exec::Dispatched) -> Option<PhysicalPlan> {
        let algorithm = match (ran.wcoj_cqs, ran.bind_join_cqs) {
            (0, 0) => return None,
            (_, 0) => "wcoj".to_string(),
            (0, _) => "bind join".to_string(),
            (w, b) => format!("wcoj ×{w}, bind join ×{b}"),
        };
        let plan = ran.choice.as_ref().and_then(|c| c.plan.as_ref());
        Some(PhysicalPlan {
            algorithm,
            reason: match &ran.choice {
                Some(choice) => choice.reason.clone(),
                // Nothing is arbitrated when bind join is requested outright.
                None => "bind join requested".to_string(),
            },
            wcoj_cqs: ran.wcoj_cqs,
            bind_join_cqs: ran.bind_join_cqs,
            var_order: plan
                .map(|p| {
                    p.var_order()
                        .iter()
                        .map(|v| format!("?{}", v.name()))
                        .collect()
                })
                .unwrap_or_default(),
            atoms: plan.map(|p| p.atom_renderings()).unwrap_or_default(),
        })
    }
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
        if let Some(phys) = &self.physical {
            writeln!(f, "physical        : {} ({})", phys.algorithm, phys.reason)?;
            if !phys.var_order.is_empty() {
                writeln!(f, "  var order     : {}", phys.var_order.join(" "))?;
            }
            for (i, atom) in phys.atoms.iter().enumerate() {
                writeln!(f, "  t{:<12} : {}", i + 1, atom)?;
            }
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
                self.metrics.peak_intermediate,
                self.metrics.rows_scanned
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
