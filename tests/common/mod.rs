//! The differential lattice, shared by the test binaries that each check
//! one slice of it: one scenario generator, an engine-independent
//! reference (a raw-rule saturation and a nested-loop evaluation over it),
//! and the point loops that ask an engine every strategy × join algorithm ×
//! plan-cache state. Each slice draws `LATTICE_CASES`
//! scenarios; together they cover every point once:
//!
//! * `properties::all_strategies_compute_certain_answers`: static Classic
//!   engines, BindJoin and Auto;
//! * `interval_equivalence::interval_equals_classic`: static Interval
//!   engines, BindJoin and Auto;
//! * `wcoj_equivalence::wcoj_equals_bind_join_oracle`: static engines of
//!   both encodings, Wcoj;
//! * `properties::all_partition_covers_agree`: every partition cover;
//! * `serving_proptest::maintained_answers_equal_a_rebuilt_database_under_churn`:
//!   serving engines of both encodings before the first batch and after
//!   every batch, cache off;
//! * `properties::cache_invalidation_is_sound_under_updates`: the same
//!   engines and steps, cache on and on again (a hit).
//!
//! `check_scenario` runs every slice on one fixed scenario. Each test
//! binary compiles its own copy of this module and uses a different part of
//! it, hence the dead-code allowance.
#![allow(dead_code)]

use proptest::prelude::*;
use rdfref::core::answer::{AnswerOptions, Database, Strategy as AnswerStrategy};
use rdfref::core::engine::QueryEngine;
use rdfref::core::incomplete::IncompletenessProfile;
use rdfref::core::{JoinAlgorithm, UpdateBatch};
use rdfref::model::dictionary::{
    ID_RDFS_DOMAIN, ID_RDFS_RANGE, ID_RDFS_SUBCLASSOF, ID_RDFS_SUBPROPERTYOF, ID_RDF_TYPE,
};
use rdfref::model::fxhash::{FxHashMap, FxHashSet};
use rdfref::model::{DictEncoding, Dictionary, EncodedTriple, Graph, Term, TermId};
use rdfref::query::ast::{Atom, Cq, PTerm};
use rdfref::query::{Cover, Var};
use std::collections::BTreeSet;
use std::ops::Range;

/// Scenarios per slice of the lattice.
pub const LATTICE_CASES: u32 = 48;

pub const ENCODINGS: [DictEncoding; 2] = [DictEncoding::Classic, DictEncoding::Interval];

pub const JOINS: [JoinAlgorithm; 3] = [
    JoinAlgorithm::BindJoin,
    JoinAlgorithm::Wcoj,
    JoinAlgorithm::Auto,
];

/// Intern `http://t/<prefix>0 … <prefix>{n-1}`.
pub fn iris(graph: &mut Graph, prefix: &str, n: usize) -> Vec<TermId> {
    let d = graph.dictionary_mut();
    (0..n)
        .map(|i| d.intern(&Term::iri(format!("http://t/{prefix}{i}"))))
        .collect()
}

pub fn triple_set(graph: &Graph) -> FxHashSet<EncodedTriple> {
    graph.triples().iter().copied().collect()
}

const N_CLASSES: usize = 5;
const N_PROPS: usize = 3;
const N_INDS: usize = 6;

/// The fixed pools the generator draws from, interned up front so that ids
/// stay stable across update batches.
struct Pools {
    graph: Graph,
    classes: Vec<TermId>,
    properties: Vec<TermId>,
    individuals: Vec<TermId>,
}

fn pools() -> Pools {
    let mut graph = Graph::new();
    let mut pool = |prefix: &str, n: usize| iris(&mut graph, prefix, n);
    let (classes, properties, individuals) =
        (pool("C", N_CLASSES), pool("p", N_PROPS), pool("i", N_INDS));
    Pools {
        graph,
        classes,
        properties,
        individuals,
    }
}

/// A triple over the pools' indexes.
#[derive(Debug, Clone, Copy)]
pub enum Fact {
    Type(usize, usize),
    Prop(usize, usize, usize),
    Subclass(usize, usize),
    Subprop(usize, usize),
    Domain(usize, usize),
    Range(usize, usize),
}

/// A constant's index in its pool (`Ok`) or a variable's number (`Err`).
pub type Slot = Result<usize, u8>;

#[derive(Debug, Clone)]
pub enum QAtom {
    /// `s rdf:type o`: an individual and a class.
    Type(Slot, Slot),
    /// `s p o`: an individual, a property and an individual.
    Prop(Slot, Slot, Slot),
}

/// One update: insert a triple, or delete the `k`-th (mod size) explicit
/// triple once the batch's inserts are in.
#[derive(Debug, Clone)]
pub enum Op {
    Insert(Fact),
    Delete(usize),
}

/// A compact description of a test scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub facts: Vec<Fact>,
    pub query_atoms: Vec<QAtom>,
    /// Which of the variables `v0..v3` the head keeps.
    pub keep: Vec<bool>,
    pub batches: Vec<Vec<Op>>,
}

impl Fact {
    pub fn is_data(&self) -> bool {
        matches!(self, Fact::Type(..) | Fact::Prop(..))
    }
}

impl Pools {
    fn triple(&self, fact: Fact) -> EncodedTriple {
        let (c, p, i) = (&self.classes, &self.properties, &self.individuals);
        let (s, pred, o) = match fact {
            Fact::Type(a, b) => (i[a], ID_RDF_TYPE, c[b]),
            Fact::Prop(a, q, b) => (i[a], p[q], i[b]),
            Fact::Subclass(a, b) => (c[a], ID_RDFS_SUBCLASSOF, c[b]),
            Fact::Subprop(a, b) => (p[a], ID_RDFS_SUBPROPERTYOF, p[b]),
            Fact::Domain(a, b) => (p[a], ID_RDFS_DOMAIN, c[b]),
            Fact::Range(a, b) => (p[a], ID_RDFS_RANGE, c[b]),
        };
        EncodedTriple::new(s, pred, o)
    }
}

/// A class hierarchy: none, a chain, a tree, or (two draws in five) a tree
/// plus edges that give a class a second parent (a diamond under the root)
/// or close a cycle.
fn hierarchy() -> impl Strategy<Value = Vec<Fact>> {
    let tree = || {
        proptest::collection::vec(0..N_CLASSES, N_CLASSES - 1).prop_map(|parents| {
            let edge = |(i, p): (usize, &usize)| Fact::Subclass(i + 1, p % (i + 1));
            parents.iter().enumerate().map(edge).collect::<Vec<_>>()
        })
    };
    let chain = (1..N_CLASSES).prop_map(|len| (0..len).map(|i| Fact::Subclass(i, i + 1)).collect());
    let extra = proptest::collection::vec((0..N_CLASSES, 0..N_CLASSES), 1..4);
    let dag = (tree(), extra).prop_map(|(mut edges, extra)| {
        edges.extend(extra.into_iter().map(|(a, b)| Fact::Subclass(a, b)));
        edges
    });
    prop_oneof![1 => Just(Vec::new()), 1 => chain, 1 => tree(), 2 => dag]
}

fn type_fact() -> impl Strategy<Value = Fact> {
    (0..N_INDS, 0..N_CLASSES).prop_map(|(i, c)| Fact::Type(i, c))
}

fn prop_fact() -> impl Strategy<Value = Fact> {
    (0..N_INDS, 0..N_PROPS, 0..N_INDS).prop_map(|(s, p, o)| Fact::Prop(s, p, o))
}

fn schema_fact() -> impl Strategy<Value = Fact> {
    prop_oneof![
        (0..N_PROPS, 0..N_PROPS).prop_map(|(a, b)| Fact::Subprop(a, b)),
        (0..N_PROPS, 0..N_CLASSES).prop_map(|(p, c)| Fact::Domain(p, c)),
        (0..N_PROPS, 0..N_CLASSES).prop_map(|(p, c)| Fact::Range(p, c)),
    ]
}

/// A constant or a variable, weighted `constant : variable`.
fn slot(consts: usize, weights: (u32, u32)) -> impl Strategy<Value = Slot> {
    prop_oneof![weights.0 => (0..consts).prop_map(Ok), weights.1 => (0u8..4).prop_map(Err)]
}

/// Random atoms (a constant or a variable in every position), a chain, a
/// star, a triangle, or the `?s ?p ?o` wildcard.
fn query_atoms() -> impl Strategy<Value = Vec<QAtom>> {
    let prop = |s: u8, p: usize, o: Slot| QAtom::Prop(Err(s), Ok(p), o);
    // A type atom's subject leans to a variable: a constant one asks a
    // yes/no question about one individual.
    let type_atom =
        (slot(N_INDS, (1, 2)), slot(N_CLASSES, (2, 1))).prop_map(|(s, c)| QAtom::Type(s, c));
    let ind = || slot(N_INDS, (2, 1));
    let prop_atom =
        (ind(), slot(N_PROPS, (2, 1)), ind()).prop_map(|(s, p, o)| QAtom::Prop(s, p, o));
    let random = proptest::collection::vec(prop_oneof![3 => type_atom, 2 => prop_atom], 1..3);
    let props = |n| proptest::collection::vec(0..N_PROPS, n);
    let chain = (props(1..4), proptest::option::of(0..N_INDS)).prop_map(move |(ps, last)| {
        let n = ps.len();
        let end = |i: usize| last.filter(|_| i == n).ok_or(i as u8);
        ps.iter()
            .enumerate()
            .map(|(i, &p)| prop(i as u8, p, end(i + 1)))
            .collect()
    });
    let star = (props(2..4), proptest::option::of(0..N_CLASSES)).prop_map(move |(ps, class)| {
        let leaves = ps
            .iter()
            .enumerate()
            .map(|(i, &p)| prop(0, p, Err(i as u8 + 1)));
        let typed = class.map(|c| QAtom::Type(Err(0), Ok(c)));
        leaves.chain(typed).collect()
    });
    let triangle = (0..N_PROPS, 0..N_PROPS, 0..N_PROPS).prop_map(move |(a, b, c)| {
        vec![prop(0, a, Err(1)), prop(1, b, Err(2)), prop(0, c, Err(2))]
    });
    let wildcard = Just(vec![QAtom::Prop(Err(0), Err(1), Err(2))]);
    prop_oneof![4 => random, 1 => chain, 1 => star, 1 => triangle, 1 => wildcard]
}

pub fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let insert = prop_oneof![
        1 => type_fact(),
        1 => prop_fact(),
        1 => schema_fact(),
        2 => (0..N_CLASSES, 0..N_CLASSES).prop_map(|(a, b)| Fact::Subclass(a, b)),
    ];
    let op = prop_oneof![
        insert.prop_map(Op::Insert),
        any::<usize>().prop_map(Op::Delete)
    ];
    (
        hierarchy(),
        proptest::collection::vec(schema_fact(), 0..5),
        proptest::collection::vec(type_fact(), 0..10),
        proptest::collection::vec(prop_fact(), 4..24),
        query_atoms(),
        proptest::collection::vec(prop_oneof![3 => Just(true), 1 => Just(false)], 4),
        proptest::collection::vec(proptest::collection::vec(op, 1..5), 1..4),
    )
        .prop_map(
            |(mut facts, schema, types, props, query_atoms, keep, batches)| {
                facts.extend(schema.into_iter().chain(types).chain(props));
                Scenario {
                    facts,
                    query_atoms,
                    keep,
                    batches,
                }
            },
        )
}

pub fn var_name(v: u8) -> Var {
    Var::new(format!("v{v}"))
}

/// The number `var_name` was given.
pub fn var_name_index(v: &Var) -> usize {
    v.name()[1..].parse().unwrap()
}

/// Materialize the scenario into a graph and a query; the head keeps the
/// body's variables the scenario's `keep` selects, in order of appearance.
pub fn build(scenario: &Scenario) -> (Graph, Cq) {
    let pools = pools();
    let mut graph = pools.graph.clone();
    for &fact in &scenario.facts {
        graph.insert_encoded(pools.triple(fact));
    }
    let term = |pool: &[TermId], t: &Slot| match t {
        Ok(i) => PTerm::Const(pool[*i]),
        Err(v) => PTerm::Var(var_name(*v)),
    };
    let body: Vec<Atom> = scenario
        .query_atoms
        .iter()
        .map(|a| match a {
            QAtom::Type(s, c) => Atom::new(
                term(&pools.individuals, s),
                ID_RDF_TYPE,
                term(&pools.classes, c),
            ),
            QAtom::Prop(s, p, o) => Atom::new(
                term(&pools.individuals, s),
                term(&pools.properties, p),
                term(&pools.individuals, o),
            ),
        })
        .collect();
    let mut head: Vec<PTerm> = Vec::new();
    for v in body.iter().flat_map(Atom::vars) {
        let v = PTerm::Var(v.clone());
        if scenario.keep[var_name_index(v.as_var().unwrap())] && !head.contains(&v) {
            head.push(v);
        }
    }
    // A query with no head variable is legal (boolean); keep it.
    (graph, Cq::new_unchecked(head, body))
}

/// Apply one batch to `model` as [`UpdateBatch`] does — its inserts, then
/// its deletes — and return it in terms for a serving engine.
fn apply_batch(model: &mut Graph, pools: &Pools, ops: &[Op]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for op in ops {
        if let Op::Insert(fact) = op {
            let t = pools.triple(*fact);
            batch = batch.insert(model.decode(&t));
            model.insert_encoded(t);
        }
    }
    let deleted: BTreeSet<EncodedTriple> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Delete(k) if !model.is_empty() => Some(model.triples()[k % model.len()]),
            _ => None,
        })
        .collect();
    for t in &deleted {
        batch = batch.delete(model.decode(t));
    }
    model.apply_delta(&[], &deleted.into_iter().collect::<Vec<_>>());
    batch
}

/// The saturation oracle, independent of `rdfref-reasoning`. It applies the
/// DB fragment's raw RDFS rules naively, every rule to every pair of triples,
/// until nothing changes. The schema rules are rdfs5/11 and the domain/range
/// propagations; the instance rules are rdfs2/3/7/9. Quadratic per round,
/// and the generated graphs are tiny.
pub fn oracle_saturation(graph: &Graph) -> FxHashSet<EncodedTriple> {
    const SC: TermId = ID_RDFS_SUBCLASSOF;
    const SP: TermId = ID_RDFS_SUBPROPERTYOF;
    const DOM: TermId = ID_RDFS_DOMAIN;
    const RNG: TermId = ID_RDFS_RANGE;
    const TY: TermId = ID_RDF_TYPE;
    let mut g = triple_set(graph);
    loop {
        let mut new = Vec::new();
        for a in &g {
            for b in &g {
                if a.o == b.s {
                    let p = match (a.p, b.p) {
                        // rdfs11, domain/range up ≺sc, rdfs9.
                        (SC | DOM | RNG | TY, SC) => Some(a.p),
                        // rdfs5, domain/range down ≺sp.
                        (SP, SP | DOM | RNG) => Some(b.p),
                        _ => None,
                    };
                    new.extend(p.map(|p| EncodedTriple::new(a.s, p, b.o)));
                }
                if a.p == b.s {
                    match b.p {
                        SP => new.push(EncodedTriple::new(a.s, b.o, a.o)),
                        DOM => new.push(EncodedTriple::new(a.s, TY, b.o)),
                        RNG => new.push(EncodedTriple::new(a.o, TY, b.o)),
                        _ => {}
                    }
                }
            }
        }
        let before = g.len();
        g.extend(new);
        if g.len() == before {
            return g;
        }
    }
}

/// `q(G∞)` by nested loops over the saturation oracle of `graph`: each atom
/// extends every partial binding by every triple it matches, then the head
/// projects and a set deduplicates. No store, index, reformulation or
/// evaluator is involved.
pub fn oracle_answer(cq: &Cq, graph: &Graph) -> Vec<Vec<TermId>> {
    let closure = oracle_saturation(graph);
    let mut bindings = vec![FxHashMap::<&Var, TermId>::default()];
    for atom in &cq.body {
        let mut next = Vec::new();
        for binding in &bindings {
            for t in &closure {
                let mut b = binding.clone();
                let fits = [(&atom.s, t.s), (&atom.p, t.p), (&atom.o, t.o)]
                    .into_iter()
                    .all(|(term, id)| match term {
                        PTerm::Var(v) => *b.entry(v).or_insert(id) == id,
                        PTerm::Const(c) => *c == id,
                        PTerm::Range(..) => unreachable!("a user query holds no id range"),
                    });
                if fits {
                    next.push(b);
                }
            }
        }
        bindings = next;
    }
    let project = |b: &FxHashMap<&Var, TermId>| -> Vec<TermId> {
        let column = |h: &PTerm| match h {
            PTerm::Var(v) => b[v],
            PTerm::Const(c) => *c,
            PTerm::Range(..) => unreachable!("a user query holds no id range"),
        };
        cq.head.iter().map(column).collect()
    };
    let rows: BTreeSet<Vec<TermId>> = bindings.iter().map(project).collect();
    rows.into_iter().collect()
}

/// The complete strategies, plus the two-fragment JUCQ on CQs of two atoms
/// or more.
fn strategies(cq: &Cq) -> Vec<AnswerStrategy> {
    let mut out = vec![
        AnswerStrategy::Saturation,
        AnswerStrategy::RefUcq,
        AnswerStrategy::RefScq,
        AnswerStrategy::RefGCov,
        AnswerStrategy::RefIncomplete(IncompletenessProfile::complete()),
        AnswerStrategy::Datalog,
    ];
    let n = cq.size();
    if n >= 2 {
        let halves = Cover::new(vec![(0..n / 2 + 1).collect(), (n / 2..n).collect()], n);
        out.push(AnswerStrategy::RefJucq(halves.unwrap()));
    }
    out
}

/// The knob points of one engine against `want`: strategy × `joins`, and
/// for the strategies that plan through the plan cache
/// (every Ref but the incomplete one) × the `cache_runs` of off (0), on (1)
/// and on again (2), which must hit. The others never read the cache and
/// run only at 0.
pub fn check_points(
    engine: &impl QueryEngine,
    cq: &Cq,
    want: &[Vec<TermId>],
    label: &str,
    joins: &[JoinAlgorithm],
    cache_runs: Range<usize>,
) -> TestCaseResult {
    for strategy in strategies(cq) {
        let name = strategy.name();
        let uncached = matches!(
            strategy,
            AnswerStrategy::Saturation | AnswerStrategy::RefIncomplete(_) | AnswerStrategy::Datalog
        );
        let runs = if uncached {
            cache_runs.start..cache_runs.end.min(1)
        } else {
            cache_runs.clone()
        };
        for &join in joins {
            for run in runs.clone() {
                let point = format!("{label} {name} {join:?} cache run {run}");
                let opts = AnswerOptions {
                    join_algorithm: join,
                    use_cache: run > 0,
                    ..AnswerOptions::default()
                };
                let answer = engine
                    .run_query(cq, &strategy, &opts)
                    .map_err(|e| TestCaseError::fail(format!("{point}: {e}")))?;
                prop_assert_eq!(answer.rows(), want, "{}", point);
                let hit = answer.explain.cache.as_ref().is_some_and(|c| c.hit);
                prop_assert!(
                    run < 2 || hit,
                    "{}: the repeated run missed the cache",
                    point
                );
            }
        }
    }
    Ok(())
}

/// The knob points of a static engine per encoding, every cache run,
/// against the oracle.
pub fn check_static(
    graph: &Graph,
    cq: &Cq,
    label: &str,
    encodings: &[DictEncoding],
    joins: &[JoinAlgorithm],
) -> TestCaseResult {
    let want = oracle_answer(cq, graph);
    for &encoding in encodings {
        let db = Database::builder().encoding(encoding).build(graph.clone());
        let label = format!("{label} {encoding:?}");
        check_points(&db, cq, &want, &label, joins, 0..3)?;
    }
    Ok(())
}

/// Every partition cover's JUCQ on a classic static engine, against the
/// oracle.
pub fn check_covers(graph: &Graph, cq: &Cq) -> TestCaseResult {
    let want = oracle_answer(cq, graph);
    let db = Database::builder().build(graph.clone());
    let opts = AnswerOptions {
        use_cache: false,
        ..AnswerOptions::default()
    };
    for cover in Cover::enumerate_partitions(cq.size()) {
        let strategy = AnswerStrategy::RefJucq(cover.clone());
        let got = db.run_query(cq, &strategy, &opts).unwrap();
        prop_assert_eq!(got.rows(), &want[..], "cover {}", cover);
    }
    Ok(())
}

/// `rows` in `from`'s ids, turned into `to`'s ids and sorted. A term `to`
/// never interned fails the case: no engine over `to` can answer it.
fn in_ids_of(
    rows: &[Vec<TermId>],
    from: &Dictionary,
    to: &Dictionary,
) -> Result<Vec<Vec<TermId>>, TestCaseError> {
    let id = |old: &TermId| {
        let term = from.term(*old);
        let unseen = || TestCaseError::fail(format!("the oracle answers {term}, never interned"));
        to.id_of(term).ok_or_else(unseen)
    };
    let mut out = rows
        .iter()
        .map(|row| row.iter().map(id).collect())
        .collect::<Result<Vec<Vec<_>>, _>>()?;
    out.sort();
    Ok(out)
}

/// A serving engine per encoding, checked at every strategy × join ×
/// `cache_runs` point before its first batch (so its plan
/// cache is warm when the schedule starts) and after every batch, against
/// the oracle over a model graph that takes the same batches. The engines
/// start from a graph that interns only the initial triples and the query's
/// constants, so a batch can bring terms their dictionary has not seen; the
/// oracle's rows are compared in each engine's ids. Each batch's report
/// must carry its sequence number, and the snapshot the model's explicit
/// size.
pub fn check_serving(scenario: &Scenario, cache_runs: Range<usize>) -> TestCaseResult {
    let pools = pools();
    let (mut model, cq) = build(scenario);
    let mut initial = Graph::new();
    for t in model.triples() {
        initial.insert_triple(&model.decode(t));
    }
    let served =
        cq.map_consts(&mut |c| initial.dictionary_mut().intern(model.dictionary().term(c)));
    let serving = ENCODINGS.map(|e| {
        Database::builder()
            .encoding(e)
            .build_serving(initial.clone())
    });
    for step in 0..=scenario.batches.len() {
        if step > 0 {
            let batch = apply_batch(&mut model, &pools, &scenario.batches[step - 1]);
            for engine in &serving {
                let report = engine.submit(batch.clone()).unwrap().wait().unwrap();
                prop_assert_eq!(report.seq(), step as u64);
                prop_assert_eq!(engine.snapshot().explicit_len(), model.len());
            }
        }
        let want = oracle_answer(&cq, &model);
        for (encoding, engine) in ENCODINGS.iter().zip(&serving) {
            let label = format!("serving {encoding:?}, step {step}");
            let want = in_ids_of(&want, model.dictionary(), engine.snapshot().dictionary())?;
            check_points(engine, &served, &want, &label, &JOINS, cache_runs.clone())?;
        }
    }
    Ok(())
}

/// Every slice of the lattice on one scenario.
pub fn check_scenario(scenario: &Scenario) -> TestCaseResult {
    let (graph, cq) = build(scenario);
    check_static(&graph, &cq, "build", &ENCODINGS, &JOINS)?;
    check_covers(&graph, &cq)?;
    check_serving(scenario, 0..3)
}
