//! The `churn` workload: the read path used beside writes.
//!
//! One `ServingDatabase`; each round submits an insert batch, reads 8 times
//! on the fresh snapshot, submits the delete of the same batch, and reads 8
//! times again, so the explicit graph returns to its base every round
//! (stationary, and checkable). Reads follow a Zipf schedule over the LUBM
//! mix and alternate Sat and Ref/GCov — the two strategies a write taxes:
//! Sat through incremental saturation maintenance, Ref/GCov through the
//! replan that every data-epoch bump forces.

use crate::check::{fingerprint, Fingerprint};
use crate::probe::Probe;
use crate::workload::{
    lubm_dataset, measure_setup, Dataset, Recorder, Rng, Setup, Sizes, Workload,
};
use rdfref_core::serving::{ServingDatabase, UpdateBatch};
use rdfref_core::{CoreError, Database, Strategy};
use rdfref_datagen::lubm::{LubmConfig, LubmDataset, UB};
use rdfref_model::{vocab, Term, Triple};
use std::time::{Duration, Instant};

/// Triples per write batch: 16 new graduate students × 4 triples.
pub const BATCH_TRIPLES: usize = 64;
/// Reads after each write.
pub const READS_PER_WRITE: usize = 8;
/// Zipf exponent of the read schedule (≈1 matches endpoint logs).
const ZIPF_SKEW: f64 = 1.0;

/// Cell index of a write: `insert`, then `delete`.
pub fn write_cell(insert: bool) -> usize {
    usize::from(!insert)
}

/// Cell index of a read: after the two write cells, query-major.
pub fn read_cell(query: usize, strategy: usize) -> usize {
    2 + query * READ_STRATEGIES.len() + strategy
}

pub const READ_STRATEGIES: [Strategy; 2] = [Strategy::Saturation, Strategy::RefGCov];

pub struct ChurnWorkload {
    pub dataset: Dataset,
    /// One write batch per round of a pass; reused by every pass, so the
    /// dictionary stops growing after the first.
    pub batches: Vec<Vec<Triple>>,
    /// `(query, strategy)` of every read of a pass, `2 × READS_PER_WRITE`
    /// per round.
    pub schedule: Vec<(usize, usize)>,
}

/// How many of `n` reads go to each of `k` queries when query `r` is asked
/// with probability ∝ `1/(r+1)^skew`: the exact proportions, rounded by
/// largest remainder, not a random sample of them — an iid sample of a few
/// hundred reads moves the share of the two heavy queries, and with it
/// every throughput number, by several percent from seed to seed.
fn zipf_counts(k: usize, n: usize, skew: f64) -> Vec<usize> {
    let weights: Vec<f64> = (0..k).map(|r| ((r + 1) as f64).powf(-skew)).collect();
    let total: f64 = weights.iter().sum();
    let ideal: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
    let mut counts: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..k).collect();
    by_remainder.sort_by(|a, b| {
        (ideal[*b] - ideal[*b].floor()).total_cmp(&(ideal[*a] - ideal[*a].floor()))
    });
    let assigned: usize = counts.iter().sum();
    for r in by_remainder.into_iter().take(n - assigned) {
        counts[r] += 1;
    }
    counts
}

/// The reads of one pass: Zipf proportions over the queries, each query's
/// reads alternating between the read strategies, in seeded order.
fn read_schedule(queries: usize, reads: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut schedule: Vec<(usize, usize)> = zipf_counts(queries, reads, ZIPF_SKEW)
        .into_iter()
        .enumerate()
        .flat_map(|(q, count)| (0..count).map(move |j| (q, j % READ_STRATEGIES.len())))
        .collect();
    let mut rng = Rng::new(seed, 8);
    for i in (1..schedule.len()).rev() {
        schedule.swap(i, rng.below(i + 1));
    }
    schedule
}

/// New graduate students attached to existing departments, advisors and
/// courses, so every insert derives type, domain and range consequences and
/// every delete has to retract them.
fn write_batches(config: &LubmConfig, rounds: usize, seed: u64) -> Vec<Vec<Triple>> {
    let mut rng = Rng::new(seed, 7);
    let ub = |local: &str| Term::iri(format!("{UB}{local}"));
    (0..rounds)
        .map(|round| {
            (0..BATCH_TRIPLES / 4)
                .flat_map(|i| {
                    let u = rng.below(config.universities);
                    let d = rng.below(config.departments_per_university);
                    let student =
                        Term::iri(format!("http://churn.example.org/round{round}/student{i}"));
                    let advisor =
                        LubmDataset::full_professor_iri(u, d, rng.below(config.full_professors));
                    let course =
                        LubmDataset::graduate_course_iri(u, d, rng.below(config.graduate_courses));
                    [
                        (Term::iri(vocab::RDF_TYPE), ub("GraduateStudent")),
                        (ub("memberOf"), Term::iri(LubmDataset::department_iri(u, d))),
                        (ub("advisor"), Term::iri(advisor)),
                        (ub("takesCourse"), Term::iri(course)),
                    ]
                    .map(|(p, o)| Triple::new_unchecked(student.clone(), p, o))
                })
                .collect()
        })
        .collect()
}

pub fn churn(sizes: &Sizes, seed: u64) -> ChurnWorkload {
    let dataset = lubm_dataset("lubm", sizes.churn_scale, seed);
    let reads = sizes.churn_rounds * 2 * READS_PER_WRITE;
    ChurnWorkload {
        batches: write_batches(
            &LubmConfig::scale(sizes.churn_scale),
            sizes.churn_rounds,
            seed,
        ),
        schedule: read_schedule(dataset.queries.len(), reads, seed),
        dataset,
    }
}

impl ChurnWorkload {
    /// One write: submit, wait for publication, verify the report. Returns
    /// the request's latency and whether it did what was asked.
    pub fn write(&self, db: &ServingDatabase, batch: &[Triple], insert: bool) -> (Duration, bool) {
        let update = if insert {
            UpdateBatch::inserting(batch.to_vec())
        } else {
            UpdateBatch::deleting(batch.to_vec())
        };
        let start = Instant::now();
        let report = db.submit(update).and_then(|ticket| ticket.wait());
        let latency = start.elapsed();
        let ok = report.is_ok_and(|r| {
            let changed = if insert {
                r.explicit_added()
            } else {
                r.explicit_removed()
            };
            changed == batch.len()
        });
        (latency, ok)
    }

    /// One read request against the current snapshot, decoded to terms.
    pub fn read(
        &self,
        db: &ServingDatabase,
        query: usize,
        strategy: &Strategy,
    ) -> Result<Vec<Vec<Term>>, CoreError> {
        let snapshot = db.snapshot();
        let answer = snapshot
            .query(&self.dataset.queries[query].cq)
            .strategy(strategy.clone())
            .run()?;
        Ok(answer.decoded(snapshot.dictionary()))
    }

    /// The timed reads after write number `write` of the pass. After a
    /// delete the graph is back at base, so counts must equal the oracle's;
    /// after an insert (monotone queries) they can only have grown.
    fn timed_reads(
        &self,
        db: &ServingDatabase,
        write: usize,
        at_base: bool,
        base: &[Fingerprint],
        rec: &mut Recorder,
    ) {
        for i in 0..READS_PER_WRITE {
            let (query, strategy) = self.schedule[write * READS_PER_WRITE + i];
            let start = Instant::now();
            let result = self.read(db, query, &READ_STRATEGIES[strategy]);
            let latency = start.elapsed();
            let ok = result.is_ok_and(|rows| {
                if at_base {
                    rows.len() == base[query].rows
                } else {
                    rows.len() >= base[query].rows
                }
            });
            rec.sample(read_cell(query, strategy), latency, ok);
        }
    }
}

impl Workload for ChurnWorkload {
    type Engine = ServingDatabase;

    fn cell_names(&self) -> Vec<String> {
        let mut names = vec!["insert".to_string(), "delete".to_string()];
        for q in &self.dataset.queries {
            for s in &READ_STRATEGIES {
                names.push(format!("{}/{}", q.name, crate::workload::strategy_tag(s)));
            }
        }
        names
    }

    fn explicit_triples(&self) -> usize {
        self.dataset.graph.len()
    }

    /// Per query, at base.
    fn expected(&self) -> Vec<Fingerprint> {
        self.dataset.oracle()
    }

    /// Graph in hand → serving engine ready (saturates once, starts the
    /// maintenance thread, publishes snapshot 0).
    fn setup(&self, builds: usize, probe: Option<&mut Probe>) -> Setup<ServingDatabase> {
        measure_setup(
            builds,
            probe,
            || self.dataset.graph.clone(),
            |graph| Database::builder().build_serving(graph),
        )
    }

    fn timed_pass(
        &self,
        db: &ServingDatabase,
        base: &[Fingerprint],
        _pass: usize,
        rec: &mut Recorder,
    ) {
        for (round, batch) in self.batches.iter().enumerate() {
            for (half, insert) in [true, false].into_iter().enumerate() {
                let (latency, ok) = self.write(db, batch, insert);
                rec.sample(write_cell(insert), latency, ok);
                self.timed_reads(db, round * 2 + half, !insert, base, rec);
            }
        }
    }

    /// One round with every query read under both strategies: on the
    /// post-insert snapshot Sat and Ref/GCov must agree with each other,
    /// on the post-delete snapshot both must equal the base oracle.
    fn check_pass(&self, db: &ServingDatabase, base: &[Fingerprint], rec: &mut Recorder) {
        for insert in [true, false] {
            let (_, ok) = self.write(db, &self.batches[0], insert);
            rec.count(write_cell(insert), ok);
            for (qi, expected) in base.iter().enumerate() {
                let answers: Vec<Option<Fingerprint>> = READ_STRATEGIES
                    .iter()
                    .map(|s| self.read(db, qi, s).ok().map(|rows| fingerprint(&rows)))
                    .collect();
                for (si, fp) in answers.iter().enumerate() {
                    let ok = match fp {
                        Some(fp) if insert => Some(*fp) == answers[0] && fp.rows >= expected.rows,
                        Some(fp) => fp == expected,
                        None => false,
                    };
                    rec.count(read_cell(qi, si), ok);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_are_exact_proportions() {
        let counts = zipf_counts(12, 256, 1.0);
        assert_eq!(counts.iter().sum::<usize>(), 256);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        // 256 / H(12) = 82.5 for the head query, 6.9 for the tail.
        assert!((82..=83).contains(&counts[0]) && (6..=7).contains(&counts[11]));
        // Both strategies of every query are read in a full-size pass.
        let schedule = read_schedule(12, 256, 1);
        for q in 0..12 {
            for s in 0..READ_STRATEGIES.len() {
                assert!(schedule.contains(&(q, s)), "Q{q}/{s} never read");
            }
        }
    }

    #[test]
    fn same_seed_same_writes_and_reads() {
        let a = churn(&Sizes::SMOKE, 5);
        let b = churn(&Sizes::SMOKE, 5);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.schedule, b.schedule);
        assert_ne!(a.schedule, churn(&Sizes::SMOKE, 6).schedule);
        assert_eq!(a.batches.len(), Sizes::SMOKE.churn_rounds);
        assert!(a.batches.iter().all(|b| b.len() == BATCH_TRIPLES));
        assert_eq!(
            a.schedule.len(),
            Sizes::SMOKE.churn_rounds * 2 * READS_PER_WRITE
        );
        // The read mix does not depend on the seed, only its order does.
        let mut sorted = (a.schedule.clone(), churn(&Sizes::SMOKE, 6).schedule);
        sorted.0.sort_unstable();
        sorted.1.sort_unstable();
        assert_eq!(sorted.0, sorted.1);
        // Every batch is new to the base graph, so a round returns to base.
        assert!(a
            .batches
            .iter()
            .flatten()
            .all(|t| !a.dataset.graph.contains(t)));
    }
}
