//! Property-based tests of the workspace-wide invariants. One generator
//! (`tests/common`) draws every scenario: a schema whose class hierarchy is
//! empty, a chain, a tree or a DAG (diamonds and cycles), subproperty,
//! domain and range edges, type and property facts, a CQ, and a schedule of
//! update batches.
//!
//! * three slices of the differential lattice (the others live in
//!   `interval_equivalence`, `wcoj_equivalence` and `serving_proptest`):
//!   static classic engines, every partition cover, and the plan cache on
//!   serving engines before and after every batch each return `q(G∞)` — the
//!   correctness contract of reformulation (§3.1 of the paper) — as a
//!   nested-loop evaluation over a raw-rule saturation computes it, with no
//!   engine code on the reference side;
//! * saturation equals the raw-rule oracle and is idempotent, and so does
//!   Dat's closure;
//! * incremental maintenance (one-step insert and delete) equals the same
//!   oracle after every batch, with exact deltas;
//! * a CQ's union, built as the product of its atoms' one-step unions, is
//!   the rule fixpoint minimised, on both encodings.
//!
//! Run with `--features strict-invariants` to also arm the engines' own
//! store, encoder and raw-fixpoint cross-checks on every case.

mod common;

use common::{
    build, check_covers, check_scenario, check_serving, check_static, oracle_saturation,
    scenario_strategy, triple_set, var_name, var_name_index, Fact, Op, QAtom, Scenario, ENCODINGS,
    LATTICE_CASES,
};
use proptest::prelude::*;
use rdfref::core::answer::{AnswerOptions, Database, Strategy as AnswerStrategy};
use rdfref::core::reformulate::{
    reformulate_ucq, reformulate_ucq_raw, ucq_size_product, ReformulationLimits, RewriteContext,
};
use rdfref::core::JoinAlgorithm;
use rdfref::model::dictionary::{
    ID_RDFS_DOMAIN, ID_RDFS_SUBCLASSOF, ID_RDFS_SUBPROPERTYOF, ID_RDF_TYPE,
};
use rdfref::model::fxhash::FxHashSet;
use rdfref::model::{DictEncoding, EncodedTriple, Graph, Term, TermId};
use rdfref::query::ast::{Atom, Cq, PTerm, Ucq};
use rdfref::query::canonical::canonicalize;
use rdfref::query::containment::{minimize_union_with, subsumes};
use rdfref::reasoning::{saturate, IncrementalReasoner};

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
        cases: LATTICE_CASES,
        ..ProptestConfig::default()
    })]

    /// The central invariant on static classic engines: every strategy ×
    /// {BindJoin, Auto} × cache point returns `q(G∞)`.
    #[test]
    fn all_strategies_compute_certain_answers(scenario in scenario_strategy()) {
        let (graph, cq) = build(&scenario);
        let joins = [JoinAlgorithm::BindJoin, JoinAlgorithm::Auto];
        check_static(&graph, &cq, "build", &[DictEncoding::Classic], &joins)?;
    }

    /// Every partition cover's JUCQ returns `q(G∞)`.
    #[test]
    fn all_partition_covers_agree(scenario in scenario_strategy()) {
        let (graph, cq) = build(&scenario);
        check_covers(&graph, &cq)?;
    }

    /// A plan served from the cache stays sound across data and schema
    /// batches: serving engines of both encodings, cache on and on again (a
    /// hit) at every strategy × join point, before the first
    /// batch and after every batch.
    #[test]
    fn cache_invalidation_is_sound_under_updates(scenario in scenario_strategy()) {
        check_serving(&scenario, 1..3)?;
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
        for encoding in ENCODINGS {
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
        for encoding in ENCODINGS {
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
        s.facts.retain(Fact::is_data);
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

/// A drawn case: `SELECT ?v0 ?v2 WHERE { ?v0 ?v1 ?v2 }` over a class tree
/// with ranges but no subproperty. Rule 13 bound a property variable to
/// `rdfs:range` only when some subproperty existed, so every Ref strategy
/// missed the ranges `rdfs:range` widens up the class tree.
#[test]
fn a_property_variable_reaches_ranges_widened_by_subclasses() {
    use Fact::*;
    let facts = vec![
        Subclass(1, 0),
        Subclass(2, 0),
        Subclass(3, 1),
        Subclass(4, 0),
        Range(0, 2),
        Range(1, 3),
        Range(2, 1),
        Type(0, 1),
        Type(1, 0),
        Prop(3, 1, 0),
        Type(5, 1),
        Type(2, 2),
        Prop(3, 2, 5),
        Type(3, 4),
        Type(2, 0),
        Prop(5, 1, 4),
        Prop(4, 0, 1),
        Type(1, 3),
        Prop(3, 1, 5),
        Type(2, 4),
        Type(0, 4),
    ];
    check_scenario(&Scenario {
        facts,
        query_atoms: vec![QAtom::Prop(Err(0), Err(1), Err(2))],
        keep: vec![true, false, true, false],
        batches: vec![vec![Op::Insert(Type(3, 0))]],
    })
    .unwrap();
}
