//! The correctness gate.
//!
//! Every query's answer is compared, as `(row count, order-independent row
//! hash over the decoded terms)`, against the Sat oracle `q(G∞)` — computed
//! here independently of the engine facade, as `saturate` + `eval_cq` over
//! a store of the saturated graph. For the seeds recorded in the committed
//! `expected.json` the oracle itself is pinned too, so a change that breaks
//! saturation and evaluation in the same way cannot pass unnoticed.

use rdfref_model::{Graph, Term};
use rdfref_obs::json::{self, Value};
use rdfref_query::Cq;
use rdfref_reasoning::saturate;
use rdfref_storage::{eval_cq, Stats, Store};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Committed oracle fingerprints, written by `--write-expected`.
const EXPECTED_JSON: &str = include_str!("expected.json");

/// What a query must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub hash: u64,
}

/// Per workload, per query name.
pub type Expected = BTreeMap<String, BTreeMap<String, Fingerprint>>;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of decoded answer rows. Rows are hashed one by one (FNV-1a
/// over the N-Triples rendering of each term, with a separator) and the
/// row hashes are summed, so the order rows come back in does not matter
/// while duplicates and column order do.
pub fn fingerprint(rows: &[Vec<Term>]) -> Fingerprint {
    let mut hash = 0u64;
    let mut text = String::new();
    for row in rows {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for term in row {
            text.clear();
            let _ = write!(text, "{term}");
            h = fnv1a(text.as_bytes(), h);
            h = fnv1a(&[0x1f], h);
        }
        hash = hash.wrapping_add(h);
    }
    Fingerprint {
        rows: rows.len(),
        hash,
    }
}

/// The Sat oracle over an explicit graph: `G∞` in a store of its own.
pub struct Oracle {
    graph: Graph,
    store: Store,
    stats: Stats,
}

impl Oracle {
    pub fn new(explicit: &Graph) -> Oracle {
        let graph = saturate(explicit);
        let store = Store::from_graph(&graph);
        let stats = Stats::compute(&store);
        Oracle {
            graph,
            store,
            stats,
        }
    }

    /// `q(G∞)` as a fingerprint.
    pub fn answer(&self, cq: &Cq) -> Fingerprint {
        let (relation, _) =
            eval_cq(&self.store, &self.stats, cq).expect("oracle evaluation has no row budget");
        let dict = self.graph.dictionary();
        let rows: Vec<Vec<Term>> = relation
            .rows()
            .map(|row| row.iter().map(|id| dict.term(*id).clone()).collect())
            .collect();
        fingerprint(&rows)
    }
}

fn parse_hash(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?.strip_prefix("0x")?, 16).ok()
}

/// The committed fingerprints for `seed`, if that seed was recorded.
pub fn committed(seed: u64) -> Option<Expected> {
    let doc = json::parse(EXPECTED_JSON).expect("expected.json is valid JSON");
    let per_seed = doc.get("seeds")?.get(&seed.to_string())?.as_object()?;
    let mut out = Expected::new();
    for (workload, queries) in per_seed {
        let mut map = BTreeMap::new();
        for (name, fp) in queries.as_object()? {
            map.insert(
                name.clone(),
                Fingerprint {
                    rows: fp.get("rows")?.as_f64()? as usize,
                    hash: parse_hash(fp.get("hash")?)?,
                },
            );
        }
        out.insert(workload.clone(), map);
    }
    Some(out)
}

/// Render `{seed → workload → query → fingerprint}` as `expected.json`.
pub fn render(per_seed: &BTreeMap<u64, Expected>) -> String {
    let mut out = String::from("{\n  \"seeds\": {");
    for (i, (seed, expected)) in per_seed.iter().enumerate() {
        let _ = write!(out, "{}\n    \"{seed}\": {{", if i > 0 { "," } else { "" });
        for (j, (workload, queries)) in expected.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n      \"{workload}\": {{",
                if j > 0 { "," } else { "" }
            );
            for (k, (name, fp)) in queries.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\n        \"{name}\": {{\"rows\": {}, \"hash\": \"0x{:016x}\"}}",
                    if k > 0 { "," } else { "" },
                    fp.rows,
                    fp.hash
                );
            }
            out.push_str("\n      }");
        }
        out.push_str("\n    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(terms: &[&str]) -> Vec<Term> {
        terms.iter().map(|t| Term::iri(*t)).collect()
    }

    #[test]
    fn row_hash_ignores_row_order_only() {
        let a = vec![row(&["x", "y"]), row(&["u", "v"]), row(&["p", "q"])];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // Column order, duplicates and term boundaries all matter.
        assert_ne!(
            fingerprint(&[row(&["x", "y"])]),
            fingerprint(&[row(&["y", "x"])])
        );
        assert_ne!(
            fingerprint(&[row(&["x"]), row(&["x"])]).hash,
            fingerprint(&[row(&["x"])]).hash
        );
        assert_ne!(
            fingerprint(&[row(&["ab", "c"])]),
            fingerprint(&[row(&["a", "bc"])])
        );
    }

    #[test]
    fn committed_file_round_trips_through_render() {
        let doc = json::parse(EXPECTED_JSON).expect("valid JSON");
        let seeds = doc.get("seeds").and_then(Value::as_object).expect("seeds");
        let mut all = BTreeMap::new();
        for seed in seeds.keys() {
            let seed: u64 = seed.parse().expect("numeric seed");
            all.insert(seed, committed(seed).expect("recorded seed parses"));
        }
        assert!(!all.is_empty(), "expected.json records at least one seed");
        assert_eq!(render(&all), EXPECTED_JSON);
        assert!(committed(u64::MAX).is_none());
    }
}
