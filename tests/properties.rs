//! Property-based tests of the workspace-wide invariants, on random graphs,
//! random RDFS schemas and random BGP queries:
//!
//! * `answer(q, G, S) = q(G∞)` for every complete strategy `S` — the
//!   correctness contract of reformulation (§3.1 of the paper);
//! * saturation equals a raw-rule oracle and is idempotent, and so does
//!   Dat's closure;
//! * incremental maintenance (one-step insert and delete) equals the same
//!   oracle after every batch, with exact deltas;
//! * any valid cover yields equivalent answers;
//! * a CQ's union, built as the product of its atoms' one-step unions, is
//!   the rule fixpoint minimised, on both encodings.

use proptest::prelude::*;
use rdfref::core::answer::{AnswerOptions, Database, Strategy as AnswerStrategy};
use rdfref::core::engine::QueryEngine;
use rdfref::core::reformulate::{
    reformulate_ucq, reformulate_ucq_raw, ucq_size_product, ReformulationLimits, RewriteContext,
};
use rdfref::model::dictionary::{
    ID_RDFS_DOMAIN, ID_RDFS_RANGE, ID_RDFS_SUBCLASSOF, ID_RDFS_SUBPROPERTYOF, ID_RDF_TYPE,
};
use rdfref::model::fxhash::FxHashSet;
use rdfref::model::{DictEncoding, EncodedTriple, Graph, Term, TermId, Triple};
use rdfref::query::ast::{Atom, Cq, PTerm, Ucq};
use rdfref::query::canonical::canonicalize;
use rdfref::query::containment::{minimize_union_with, subsumes};
use rdfref::query::{Cover, Var};
use rdfref::reasoning::{saturate, IncrementalReasoner};

/// The fixed pools the generators draw from.
struct Pools {
    graph: Graph,
    classes: Vec<TermId>,
    properties: Vec<TermId>,
    individuals: Vec<TermId>,
}

fn pools() -> Pools {
    let mut graph = Graph::new();
    let d = graph.dictionary_mut();
    let classes: Vec<TermId> = (0..5)
        .map(|i| d.intern(&Term::iri(format!("http://t/C{i}"))))
        .collect();
    let properties: Vec<TermId> = (0..3)
        .map(|i| d.intern(&Term::iri(format!("http://t/p{i}"))))
        .collect();
    let individuals: Vec<TermId> = (0..6)
        .map(|i| d.intern(&Term::iri(format!("http://t/i{i}"))))
        .collect();
    Pools {
        graph,
        classes,
        properties,
        individuals,
    }
}

/// A compact, shrinkable description of a test scenario.
#[derive(Debug, Clone)]
struct Scenario {
    subclass: Vec<(usize, usize)>,          // class idx pairs
    subprop: Vec<(usize, usize)>,           // property idx pairs
    domains: Vec<(usize, usize)>,           // (property, class)
    ranges: Vec<(usize, usize)>,            // (property, class)
    type_facts: Vec<(usize, usize)>,        // (individual, class)
    prop_facts: Vec<(usize, usize, usize)>, // (ind, property, ind)
    query_atoms: Vec<QAtom>,
}

#[derive(Debug, Clone)]
enum QAtom {
    /// (subject var id, class idx or var)
    Type(u8, Result<usize, u8>),
    /// (subject var-or-ind, property idx or var, object var-or-ind)
    Prop(Result<usize, u8>, Result<usize, u8>, Result<usize, u8>),
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let pair5 = (0usize..5, 0usize..5);
    let pair3 = (0usize..3, 0usize..3);
    let pc = (0usize..3, 0usize..5);
    let pc2 = pc.clone();
    let type_fact = (0usize..6, 0usize..5);
    let prop_fact = (0usize..6, 0usize..3, 0usize..6);
    let var = 0u8..4;
    let type_atom =
        (0u8..4, prop_or_var(0..5usize, var.clone())).prop_map(|(s, c)| QAtom::Type(s, c));
    let prop_atom = (
        prop_or_var(0..6usize, var.clone()),
        prop_or_var(0..3usize, var.clone()),
        prop_or_var(0..6usize, var),
    )
        .prop_map(|(s, p, o)| QAtom::Prop(s, p, o));
    let atom = prop_oneof![3 => type_atom, 2 => prop_atom];
    (
        proptest::collection::vec(pair5, 0..4),
        proptest::collection::vec(pair3, 0..3),
        proptest::collection::vec(pc, 0..3),
        proptest::collection::vec(pc2, 0..3),
        proptest::collection::vec(type_fact, 0..6),
        proptest::collection::vec(prop_fact, 0..8),
        proptest::collection::vec(atom, 1..3),
    )
        .prop_map(
            |(subclass, subprop, domains, ranges, type_facts, prop_facts, query_atoms)| Scenario {
                subclass,
                subprop,
                domains,
                ranges,
                type_facts,
                prop_facts,
                query_atoms,
            },
        )
}

fn prop_or_var(
    consts: std::ops::Range<usize>,
    vars: std::ops::Range<u8>,
) -> impl Strategy<Value = Result<usize, u8>> {
    prop_oneof![
        2 => consts.prop_map(Ok::<usize, u8>),
        1 => vars.prop_map(Err::<usize, u8>),
    ]
}

fn var_name(v: u8) -> Var {
    Var::new(format!("v{v}"))
}

/// The number `var_name` was given.
fn var_name_index(v: &Var) -> usize {
    v.name()[1..].parse().unwrap()
}

/// Materialize the scenario into a graph and a query.
fn build(scenario: &Scenario) -> (Graph, Cq) {
    let Pools {
        mut graph,
        classes,
        properties,
        individuals,
    } = pools();
    let sc = graph
        .dictionary_mut()
        .intern(&Term::iri(rdfref::model::vocab::RDFS_SUBCLASSOF));
    let sp = graph
        .dictionary_mut()
        .intern(&Term::iri(rdfref::model::vocab::RDFS_SUBPROPERTYOF));
    let dom = graph
        .dictionary_mut()
        .intern(&Term::iri(rdfref::model::vocab::RDFS_DOMAIN));
    let rng = graph
        .dictionary_mut()
        .intern(&Term::iri(rdfref::model::vocab::RDFS_RANGE));
    for &(a, b) in &scenario.subclass {
        graph.insert_encoded(EncodedTriple::new(classes[a], sc, classes[b]));
    }
    for &(a, b) in &scenario.subprop {
        graph.insert_encoded(EncodedTriple::new(properties[a], sp, properties[b]));
    }
    for &(p, c) in &scenario.domains {
        graph.insert_encoded(EncodedTriple::new(properties[p], dom, classes[c]));
    }
    for &(p, c) in &scenario.ranges {
        graph.insert_encoded(EncodedTriple::new(properties[p], rng, classes[c]));
    }
    for &(i, c) in &scenario.type_facts {
        graph.insert_encoded(EncodedTriple::new(individuals[i], ID_RDF_TYPE, classes[c]));
    }
    for &(s, p, o) in &scenario.prop_facts {
        graph.insert_encoded(EncodedTriple::new(
            individuals[s],
            properties[p],
            individuals[o],
        ));
    }

    let to_pterm_ind = |t: &Result<usize, u8>| match t {
        Ok(i) => PTerm::Const(individuals[*i]),
        Err(v) => PTerm::Var(var_name(*v)),
    };
    let to_pterm_class = |t: &Result<usize, u8>| match t {
        Ok(i) => PTerm::Const(classes[*i]),
        Err(v) => PTerm::Var(var_name(*v)),
    };
    let to_pterm_prop = |t: &Result<usize, u8>| match t {
        Ok(i) => PTerm::Const(properties[*i]),
        Err(v) => PTerm::Var(var_name(*v)),
    };
    let body: Vec<Atom> = scenario
        .query_atoms
        .iter()
        .map(|a| match a {
            QAtom::Type(s, c) => Atom {
                s: PTerm::Var(var_name(*s)),
                p: PTerm::Const(ID_RDF_TYPE),
                o: to_pterm_class(c),
            },
            QAtom::Prop(s, p, o) => Atom {
                s: to_pterm_ind(s),
                p: to_pterm_prop(p),
                o: to_pterm_ind(o),
            },
        })
        .collect();
    // Head: every variable of the body (maximal projection exercises all
    // bindings; projections are covered by the cover-based tests).
    let mut head: Vec<Var> = Vec::new();
    for atom in &body {
        for v in atom.vars() {
            if !head.contains(v) {
                head.push(v.clone());
            }
        }
    }
    // A query with no variables at all is legal (boolean); keep it.
    let cq = Cq::new_unchecked(head.into_iter().map(PTerm::Var).collect(), body);
    (graph, cq)
}

/// Constrain the RDFS vocabulary itself: `p0 ⊑ rdfs:subClassOf` and a domain
/// on `rdf:type`. Derived triples then feed further rules and grow the
/// schema, so the reasoner's re-closing fallback runs.
fn constrain_rdfs_vocabulary(graph: &mut Graph) {
    let d = graph.dictionary();
    let p0 = d.id_of(&Term::iri("http://t/p0")).unwrap();
    let c0 = d.id_of(&Term::iri("http://t/C0")).unwrap();
    graph.insert_encoded(EncodedTriple::new(
        p0,
        ID_RDFS_SUBPROPERTYOF,
        ID_RDFS_SUBCLASSOF,
    ));
    graph.insert_encoded(EncodedTriple::new(ID_RDF_TYPE, ID_RDFS_DOMAIN, c0));
}

fn triple_set(graph: &Graph) -> FxHashSet<EncodedTriple> {
    graph.triples().iter().copied().collect()
}

/// The saturation oracle, independent of `rdfref-reasoning`. It applies the
/// DB fragment's raw RDFS rules naively, every rule to every pair of triples,
/// until nothing changes. The schema rules are rdfs5/11 and the domain/range
/// propagations; the instance rules are rdfs2/3/7/9. Quadratic per round,
/// and the generated graphs are tiny.
fn oracle_saturation(graph: &Graph) -> FxHashSet<EncodedTriple> {
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

/// Atoms whose variables the rules bind across atoms, over `build`'s
/// variables: a class variable two type atoms share, a property variable
/// (rule 13) two atoms share, and a class variable a hierarchy atom reuses.
fn binding_shape(shape: usize, class: TermId) -> Vec<Atom> {
    let v = |i: u8| PTerm::Var(var_name(i));
    let ty = || PTerm::Const(ID_RDF_TYPE);
    match shape {
        0 => vec![Atom::new(v(0), ty(), v(3)), Atom::new(v(1), ty(), v(3))],
        1 => vec![Atom::new(v(0), v(2), v(1)), Atom::new(v(1), v(2), v(0))],
        2 => vec![
            Atom::new(v(0), ty(), v(3)),
            Atom::new(v(3), PTerm::Const(ID_RDFS_SUBCLASSOF), class),
        ],
        _ => vec![Atom::new(v(0), v(2), v(1)), Atom::new(v(1), ty(), v(3))],
    }
}

/// Two minimised unions hold the same disjuncts: as many, and each one's
/// subsumed by one of the other's (in store ids, where intervals live).
fn same_union(a: &Ucq, b: &Ucq, encode: &dyn Fn(TermId) -> TermId) -> bool {
    let stored = |u: &Ucq| -> Vec<Cq> {
        let canon: FxHashSet<Cq> = u.cqs.iter().map(canonicalize).collect();
        canon
            .into_iter()
            .map(|cq| cq.map_consts(&mut |c| encode(c)))
            .collect()
    };
    let (a_cqs, b_cqs) = (stored(a), stored(b));
    let covered = |by: &[Cq], of: &[Cq]| of.iter().all(|cq| by.iter().any(|g| subsumes(g, cq)));
    a.len() == b.len() && covered(&a_cqs, &b_cqs) && covered(&b_cqs, &a_cqs)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// The central invariant: every complete strategy equals Sat.
    #[test]
    fn all_strategies_compute_certain_answers(scenario in scenario_strategy()) {
        let (graph, cq) = build(&scenario);
        let db = Database::builder().build(graph);
        let opts = AnswerOptions::default();
        let reference = db.run_query(&cq, &AnswerStrategy::Saturation, &opts).unwrap().rows().to_vec();
        for strategy in [
            AnswerStrategy::RefUcq,
            AnswerStrategy::RefScq,
            AnswerStrategy::RefGCov,
            AnswerStrategy::Datalog,
        ] {
            let got = db.run_query(&cq, &strategy, &opts).unwrap().rows().to_vec();
            prop_assert_eq!(
                &got, &reference,
                "{} diverged on {:?}", strategy.name(), scenario
            );
        }
    }

    /// Any set-partition cover yields the same answers.
    #[test]
    fn all_partition_covers_agree(scenario in scenario_strategy()) {
        let (graph, cq) = build(&scenario);
        let db = Database::builder().build(graph);
        let opts = AnswerOptions::default();
        let reference = db.run_query(&cq, &AnswerStrategy::Saturation, &opts).unwrap().rows().to_vec();
        for cover in Cover::enumerate_partitions(cq.size()) {
            let got = db
                .run_query(&cq, &AnswerStrategy::RefJucq(cover.clone()), &opts)
                .unwrap()
                .rows().to_vec();
            prop_assert_eq!(&got, &reference, "cover {} diverged", cover);
        }
    }

    /// Saturation equals the raw-rule oracle (so it is monotone) and is
    /// idempotent, with and without a schema constraining the RDFS
    /// vocabulary.
    #[test]
    fn saturation_laws(scenario in scenario_strategy(), pathological in any::<bool>()) {
        let (mut graph, _) = build(&scenario);
        if pathological {
            constrain_rdfs_vocabulary(&mut graph);
        }
        let once = saturate(&graph);
        prop_assert_eq!(triple_set(&once), oracle_saturation(&graph));
        prop_assert_eq!(&saturate(&once), &once);
    }

    /// Dat's closure is `G∞`: its answer to `SELECT ?s ?p ?o WHERE { ?s ?p
    /// ?o }` equals the raw-rule oracle as a set, under both encodings, with
    /// and without a schema constraining the RDFS vocabulary.
    #[test]
    fn dat_closure_equals_the_saturation_oracle(
        scenario in scenario_strategy(),
        pathological in any::<bool>(),
    ) {
        let (mut graph, _) = build(&scenario);
        if pathological {
            constrain_rdfs_vocabulary(&mut graph);
        }
        let (s, p, o) = (var_name(0), var_name(1), var_name(2));
        let everything = Cq::new_unchecked(
            vec![PTerm::Var(s.clone()), PTerm::Var(p.clone()), PTerm::Var(o.clone())],
            vec![Atom::new(s, p, o)],
        );
        let oracle = oracle_saturation(&graph);
        for encoding in [DictEncoding::Classic, DictEncoding::Interval] {
            let db = Database::builder().encoding(encoding).build(graph.clone());
            let answer = db
                .run_query(&everything, &AnswerStrategy::Datalog, &AnswerOptions::default())
                .unwrap();
            let closure: FxHashSet<EncodedTriple> = answer
                .rows()
                .iter()
                .map(|r| EncodedTriple::new(r[0], r[1], r[2]))
                .collect();
            prop_assert_eq!(&closure, &oracle, "{:?}", encoding);
        }
    }

    /// Plan-cache invalidation is sound under updates: interleave random
    /// insert/delete batches (data *and* schema triples) with cached and
    /// uncached answering — after every mutation the cached plans, the
    /// freshly planned answers and Sat must all agree. A stale plan
    /// surviving an epoch bump would show up as a divergence here.
    #[test]
    fn cache_invalidation_is_sound_under_updates(
        scenario in scenario_strategy(),
        ops in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<bool>(), 12)),
            1..4,
        ),
    ) {
        let (graph, cq) = build(&scenario);
        let all: Vec<Triple> = graph.iter_decoded().collect();
        // The explicit triples after each batch, kept beside the engine.
        let mut explicit = all.clone();
        let db = Database::builder().build_serving(graph);
        let cached = AnswerOptions::default();
        let uncached = AnswerOptions::new().with_use_cache(false);
        let strategies = [AnswerStrategy::RefUcq, AnswerStrategy::RefGCov];

        // Prime the cache so the mutations below invalidate real entries.
        for strategy in &strategies {
            db.run_query(&cq, strategy, &cached).unwrap();
        }

        for (is_insert, sel) in &ops {
            let pool = if *is_insert { &all } else { &explicit };
            let batch: Vec<Triple> = pool
                .iter()
                .zip(sel.iter().cycle())
                .filter(|(_, &pick)| pick)
                .map(|(t, _)| t.clone())
                .collect();
            if *is_insert {
                let new: Vec<Triple> = batch.iter().filter(|t| !explicit.contains(t)).cloned().collect();
                explicit.extend(new);
            } else {
                explicit.retain(|t| !batch.contains(t));
            }
            // Waiting on the ticket makes the write synchronous.
            let ticket = if *is_insert { db.insert(batch) } else { db.delete(batch) };
            ticket.unwrap().wait().unwrap();
            let reference = db.run_query(&cq, &AnswerStrategy::Saturation, &cached).unwrap().rows().to_vec();
            for strategy in &strategies {
                // Twice cached (miss-then-hit path) plus once uncached.
                let first = db.run_query(&cq, strategy, &cached).unwrap().rows().to_vec();
                let second = db.run_query(&cq, strategy, &cached).unwrap().rows().to_vec();
                let fresh = db.run_query(&cq, strategy, &uncached).unwrap().rows().to_vec();
                prop_assert_eq!(
                    &first, &reference,
                    "{} cached diverged after update", strategy.name()
                );
                prop_assert_eq!(&second, &first, "{} hit path diverged", strategy.name());
                prop_assert_eq!(&fresh, &first, "{} uncached diverged", strategy.name());
            }
        }
    }

    /// The product of minimised atom unions is the rule fixpoint, minimised:
    /// random schemas (cycles and multiple inheritance included), both
    /// encodings, and queries whose variables rules bind in several atoms,
    /// projected at random.
    #[test]
    fn atom_union_products_equal_the_fixpoint(
        scenario in scenario_strategy(),
        shape in 0usize..4,
        class in 0usize..5,
        keep in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let (graph, random) = build(&scenario);
        let class = graph.dictionary().id_of(&Term::iri(format!("http://t/C{class}"))).unwrap();
        let mut body = binding_shape(shape, class);
        body.extend(random.body.into_iter().take(2));
        let mut head: Vec<PTerm> = Vec::new();
        for atom in &body {
            for v in atom.vars() {
                let pos = var_name_index(v);
                if keep[pos] && !head.contains(&PTerm::Var(v.clone())) {
                    head.push(PTerm::Var(v.clone()));
                }
            }
        }
        let cq = Cq::new_unchecked(head, body);
        for encoding in [DictEncoding::Classic, DictEncoding::Interval] {
            let db = Database::builder().encoding(encoding).build(graph.clone());
            let mut ctx = RewriteContext::new(db.schema(), db.closure());
            if let Some(enc) = db.encoder() {
                ctx = ctx.with_encoder(enc);
            }
            // The fixpoint is the slow side: keep it small.
            if ucq_size_product(&cq, &ctx) > 2_000 {
                continue;
            }
            let limits = ReformulationLimits::default();
            let encode = |c: TermId| db.encoder().map_or(c, |e| e.encode(c));
            let product = reformulate_ucq(&cq, &ctx, limits).unwrap();
            let raw = reformulate_ucq_raw(&cq, &ctx, limits).unwrap();
            let fixpoint = minimize_union_with(raw, &encode);
            prop_assert!(
                same_union(&product, &fixpoint, &encode),
                "{:?} on {:?}: product {:?} vs fixpoint {:?}", encoding, cq, product, fixpoint
            );
        }
    }

    /// Reformulated UCQs never lose or invent answers when the schema is
    /// empty of constraints relevant to the query: with no constraints at
    /// all, the reformulation is the identity.
    #[test]
    fn empty_schema_reformulation_is_identity(
        scenario in scenario_strategy(),
    ) {
        let mut s = scenario;
        s.subclass.clear();
        s.subprop.clear();
        s.domains.clear();
        s.ranges.clear();
        let (graph, cq) = build(&s);
        let db = Database::builder().build(graph);
        let ctx = RewriteContext::new(db.schema(), db.closure());
        let ucq = reformulate_ucq(&cq, &ctx, ReformulationLimits::default()).unwrap();
        prop_assert_eq!(ucq.len(), 1);
    }
}

proptest! {
    // A deleted type kept alive only by the range rule needs a rare draw
    // (an explicit `o τ C` deleted while some `s p o` with `C` in `p`'s
    // ranges stays); 48 cases miss it, and a case costs well under a
    // millisecond.
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    /// Incremental maintenance equals the oracle after every batch of an
    /// alternating insert/delete schedule whose inserts re-insert deleted
    /// triples, and every reported delta is exact.
    #[test]
    fn incremental_maintenance_is_correct(
        scenario in scenario_strategy(),
        pathological in any::<bool>(),
        selections in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 30), 4..7),
    ) {
        let (mut graph, _) = build(&scenario);
        if pathological {
            constrain_rdfs_vocabulary(&mut graph);
        }
        // Start from every other triple in SPO order (sharing the dictionary).
        let all: Vec<EncodedTriple> = graph.triples().to_vec();
        let mut base = graph;
        let odd: Vec<EncodedTriple> = all.iter().skip(1).step_by(2).copied().collect();
        base.apply_delta(&[], &odd);
        let mut reasoner = IncrementalReasoner::new(base);
        prop_assert_eq!(triple_set(reasoner.saturated()), oracle_saturation(reasoner.explicit()));

        for (i, selection) in selections.iter().enumerate() {
            // Even batches insert from every triple, deleted ones included;
            // odd batches delete from the current explicit graph.
            let insert = i % 2 == 0;
            let pool = if insert { all.clone() } else { reasoner.explicit().triples().to_vec() };
            let batch: Vec<EncodedTriple> = pool
                .into_iter()
                .zip(selection.iter().cycle())
                .filter(|(_, &pick)| pick)
                .map(|(t, _)| t)
                .collect();
            let mut replayed = triple_set(reasoner.saturated());
            let delta = if insert {
                reasoner.insert_batch(&batch)
            } else {
                reasoner.delete_batch(&batch)
            };
            let after = triple_set(reasoner.saturated());
            prop_assert_eq!(&after, &oracle_saturation(reasoner.explicit()), "batch {}", i);
            for list in [
                &delta.explicit_added,
                &delta.explicit_removed,
                &delta.saturation_added,
                &delta.saturation_removed,
            ] {
                prop_assert!(list.is_sorted_by(|a, b| a < b), "batch {}: delta not ascending", i);
            }
            for t in &delta.saturation_added {
                prop_assert!(replayed.insert(*t), "added {:?} was present", t);
            }
            for t in &delta.saturation_removed {
                prop_assert!(replayed.remove(t), "removed {:?} was absent", t);
            }
            prop_assert_eq!(replayed, after);
        }
    }
}
