//! Metrics exactness: the observability layer must report *exact* span and
//! counter values for a fixed micro-workload, not merely non-zero ones.
//! Each test uses a fresh `MetricsRegistry` per request (via
//! `QueryRequest::collect_metrics`), so counts are attributable to a single
//! answering call.

use rdfref::prelude::*;
use rdfref_model::parser::parse_turtle;
use std::sync::Arc;

const DOC: &str = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:Journal rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:domain ex:Book .
ex:doi1 a ex:Book .
ex:doi2 a ex:Journal .
ex:doi3 ex:writtenBy ex:author1 .
"#;

fn setup() -> (Database, Cq) {
    let mut g = parse_turtle(DOC).unwrap();
    let q = parse_select(
        "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }",
        g.dictionary_mut(),
    )
    .unwrap();
    (Database::builder().build(g), q)
}

fn run_with_registry(db: &Database, q: &Cq, strategy: Strategy) -> (usize, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let answer = db
        .query(q)
        .strategy(strategy)
        .collect_metrics(&registry)
        .run()
        .unwrap();
    (answer.len(), registry)
}

#[test]
fn every_strategy_records_exactly_one_answer_span() {
    let (db, q) = setup();
    for strategy in [
        Strategy::Saturation,
        Strategy::RefUcq,
        Strategy::RefScq,
        Strategy::RefGCov,
        Strategy::Datalog,
    ] {
        let name = strategy.name().to_string();
        let (n, registry) = run_with_registry(&db, &q, strategy);
        assert_eq!(n, 3, "{name}: answer count");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("answer.calls"), 1, "{name}: answer.calls");
        assert_eq!(snap.span_count("answer"), 1, "{name}: answer span");
    }
}

#[test]
fn reformulation_strategies_record_exactly_one_plan_span() {
    let (db, q) = setup();
    for (strategy, plan_span) in [
        (Strategy::RefUcq, "answer.plan.ucq"),
        (Strategy::RefScq, "answer.plan.scq"),
        (Strategy::RefGCov, "answer.plan.gcov"),
    ] {
        let name = strategy.name().to_string();
        let (_, registry) = run_with_registry(&db, &q, strategy);
        let snap = registry.snapshot();
        assert_eq!(snap.span_count("answer.plan"), 1, "{name}: answer.plan");
        assert_eq!(snap.span_count(plan_span), 1, "{name}: {plan_span}");
    }
}

#[test]
fn gcov_search_records_the_explored_cover_space() {
    let (db, q) = setup();
    let (_, registry) = run_with_registry(&db, &q, Strategy::RefGCov);
    let snap = registry.snapshot();
    assert_eq!(snap.span_count("gcov.search"), 1);
    // A single-atom query has exactly one cover to explore, and on this
    // micro-graph it is feasible.
    assert_eq!(snap.counter("gcov.covers_explored"), 1);
    assert_eq!(snap.counter("gcov.covers_infeasible"), 0);
}

#[test]
fn plan_cache_counters_are_exact_across_repeated_calls() {
    let (db, q) = setup();
    let registry = Arc::new(MetricsRegistry::new());
    for _ in 0..3 {
        db.query(&q)
            .strategy(Strategy::RefUcq)
            .collect_metrics(&registry)
            .run()
            .unwrap();
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("plan_cache.miss"), 1, "first call misses");
    assert_eq!(snap.counter("plan_cache.hit"), 2, "later calls hit");
    assert_eq!(snap.counter("answer.calls"), 3);
    assert_eq!(snap.span_count("answer"), 3);
    // Only the miss computes a plan; hits skip straight to evaluation.
    assert_eq!(snap.span_count("answer.plan.ucq"), 1);
}

#[test]
fn disabling_the_cache_recomputes_the_plan_every_call() {
    let (db, q) = setup();
    let registry = Arc::new(MetricsRegistry::new());
    for _ in 0..2 {
        db.query(&q)
            .strategy(Strategy::RefUcq)
            .use_cache(false)
            .collect_metrics(&registry)
            .run()
            .unwrap();
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("plan_cache.hit"), 0);
    assert_eq!(snap.counter("plan_cache.miss"), 0);
    assert_eq!(snap.span_count("answer.plan.ucq"), 2);
}

#[test]
fn operator_counters_are_exact_for_saturation() {
    let (db, q) = setup();
    // Warm saturation outside the measured request so the counters cover
    // only query evaluation.
    db.prepare_saturation();
    let (n, registry) = run_with_registry(&db, &q, Strategy::Saturation);
    assert_eq!(n, 3);
    let snap = registry.snapshot();
    // Sat evaluates the single-atom query as one scan over the saturated
    // store: one scan operator, one row per answer.
    assert_eq!(snap.counter("op.scan.count"), 1);
    assert_eq!(snap.counter("op.scan.rows"), 3);
    assert_eq!(snap.counter("op.join.count"), 0);
    assert_eq!(snap.span_count("eval.cq"), 1);
}

#[test]
fn operator_counters_are_exact_for_ref_ucq() {
    let (db, q) = setup();
    let (n, registry) = run_with_registry(&db, &q, Strategy::RefUcq);
    assert_eq!(n, 3);
    let snap = registry.snapshot();
    // The UCQ reformulation of `?x a ex:Publication` under two subclass
    // constraints has three disjuncts (Publication, Book, Journal), each a
    // single-atom CQ answered by one scan: Publication scans 0 explicit
    // rows, Book and Journal scan 1 each, plus the writtenBy-domain
    // disjunct if the schema contributes one.
    assert_eq!(snap.span_count("eval.ucq"), 1);
    let scans = snap.counter("op.scan.count");
    let per_cq = snap.span_count("eval.cq");
    assert_eq!(scans, per_cq, "single-atom disjuncts: one scan per CQ");
    assert_eq!(snap.counter("op.union.rows"), 3);
    assert_eq!(snap.counter("op.join.count"), 0);
}

#[test]
fn operator_counters_are_exact_for_ref_gcov() {
    let (db, q) = setup();
    let (n, registry) = run_with_registry(&db, &q, Strategy::RefGCov);
    assert_eq!(n, 3);
    let snap = registry.snapshot();
    // A single-atom query has one fragment; GCov evaluates it as one UCQ.
    assert_eq!(snap.span_count("eval.jucq"), 1);
    assert_eq!(snap.counter("op.union.rows"), 3);
    assert_eq!(snap.counter("op.budget_abort"), 0);
}

/// A 6-deep subclass chain with one instance per level. Classic
/// reformulation of `?x a ex:K5` (the root) is a 6-way union; the interval
/// encoder covers the whole chain, so the same query must execute as exactly
/// one range scan and zero classic scans.
fn chain_setup(encoding: rdfref_model::DictEncoding) -> (Database, Cq) {
    let mut doc = String::from(
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         @prefix ex: <http://example.org/> .\n",
    );
    for i in 0..5 {
        doc.push_str(&format!("ex:K{i} rdfs:subClassOf ex:K{} .\n", i + 1));
    }
    for i in 0..6 {
        doc.push_str(&format!("ex:k{i} a ex:K{i} .\n"));
    }
    let mut g = parse_turtle(&doc).unwrap();
    let q = parse_select(
        "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:K5 }",
        g.dictionary_mut(),
    )
    .unwrap();
    (Database::builder().encoding(encoding).build(g), q)
}

#[test]
fn interval_reformulation_replaces_n_scans_with_one_range_scan() {
    let (classic_db, q) = chain_setup(rdfref_model::DictEncoding::Classic);
    let (n, registry) = run_with_registry(&classic_db, &q, Strategy::RefUcq);
    assert_eq!(n, 6);
    let snap = registry.snapshot();
    // One disjunct (hence one scan) per class on the chain.
    assert_eq!(snap.counter("op.scan.count"), 6, "classic: N-way union");
    assert_eq!(snap.counter("op.range_scan.count"), 0);

    let (interval_db, q) = chain_setup(rdfref_model::DictEncoding::Interval);
    let (n, registry) = run_with_registry(&interval_db, &q, Strategy::RefUcq);
    assert_eq!(n, 6, "interval answers match classic");
    let snap = registry.snapshot();
    // The covered chain compresses to a single `type ∈ [lo,hi)` atom.
    assert_eq!(snap.counter("op.range_scan.count"), 1, "one range scan");
    assert_eq!(snap.counter("op.range_scan.rows"), 6, "all six instances");
    assert_eq!(snap.counter("op.scan.count"), 0, "no classic scans remain");
    assert_eq!(snap.span_count("eval.cq"), 1, "single disjunct");
}

#[test]
fn interval_dag_fallback_still_unions() {
    // Diamond: ex:A has two parents, so the secondary parent ex:C is not
    // interval-covered and its reformulation must stay a classic union.
    let doc = "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
               @prefix ex: <http://example.org/> .\n\
               ex:A rdfs:subClassOf ex:B .\n\
               ex:A rdfs:subClassOf ex:C .\n\
               ex:B rdfs:subClassOf ex:Top .\n\
               ex:C rdfs:subClassOf ex:Top .\n\
               ex:a0 a ex:A .\nex:c0 a ex:C .\n";
    let mut g = parse_turtle(doc).unwrap();
    let q = parse_select(
        "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:C }",
        g.dictionary_mut(),
    )
    .unwrap();
    let db = Database::builder()
        .encoding(rdfref_model::DictEncoding::Interval)
        .build(g);
    let (n, registry) = run_with_registry(&db, &q, Strategy::RefUcq);
    assert_eq!(n, 2);
    let snap = registry.snapshot();
    // Two disjuncts (C, A), each one classic scan; no range compression.
    assert_eq!(
        snap.counter("op.range_scan.count"),
        0,
        "fallback: no ranges"
    );
    assert_eq!(snap.counter("op.scan.count"), 2, "union of C and A scans");
    assert_eq!(snap.counter("op.union.rows"), 2);
}

#[test]
fn a_sequential_answer_runs_one_unreported_morsel_per_operator() {
    let (db, q) = setup();
    for strategy in [Strategy::Saturation, Strategy::RefUcq, Strategy::RefGCov] {
        let name = strategy.name().to_string();
        let (n, registry) = run_with_registry(&db, &q, strategy);
        assert_eq!(n, 3, "{name}: answer count");
        let snap = registry.snapshot();
        assert!(snap.counter("op.scan.count") >= 1, "{name}: scans ran");
        for counter in ["op.morsel.count", "op.morsel.rows", "op.morsel.workers"] {
            assert_eq!(snap.counter(counter), 0, "{name}: {counter}");
        }
    }
}

/// Q09 in miniature: the three type atoms are implied by the domains and
/// ranges of the three properties the query joins, so the 24-CQ fixpoint
/// (4 rewritings of `?x a Student` × 2 of `?y a Faculty` × 3 of
/// `?z a Course`) plans as exactly its 3-atom core.
#[test]
fn a_triangle_with_implied_type_atoms_plans_as_one_cq() {
    let doc = "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
               @prefix ex: <http://example.org/> .\n\
               ex:Grad rdfs:subClassOf ex:Student .\n\
               ex:advisor rdfs:domain ex:Student .\n\
               ex:takes rdfs:domain ex:Student ; rdfs:range ex:Course .\n\
               ex:teaches rdfs:domain ex:Faculty ; rdfs:range ex:Course .\n\
               ex:s1 ex:advisor ex:p1 .\nex:s2 ex:advisor ex:p1 .\n\
               ex:p1 ex:teaches ex:c1 .\nex:p1 ex:teaches ex:c2 .\n\
               ex:s1 ex:takes ex:c1 .\nex:s2 ex:takes ex:c2 .\nex:s3 ex:takes ex:c1 .\n";
    let mut g = parse_turtle(doc).unwrap();
    let q = parse_select(
        "PREFIX ex: <http://example.org/> SELECT ?x ?y ?z WHERE { \
         ?x ex:advisor ?y . ?y ex:teaches ?z . ?x ex:takes ?z . \
         ?x a ex:Student . ?y a ex:Faculty . ?z a ex:Course }",
        g.dictionary_mut(),
    )
    .unwrap();
    let db = Database::builder().build(g);
    let registry = Arc::new(MetricsRegistry::new());
    let answer = db
        .query(&q)
        .strategy(Strategy::RefUcq)
        .collect_metrics(&registry)
        .run()
        .unwrap();
    assert_eq!(answer.len(), 2, "(s1, p1, c1) and (s2, p1, c2)");
    assert_eq!(answer.explain.reformulation_cqs, 1);
    assert_eq!(answer.explain.reformulation_atoms, 3);
    let snap = registry.snapshot();
    assert_eq!(snap.span_count("eval.cq"), 1, "one disjunct evaluated");
    // One scan per property atom: 2 advisor + 2 teaches + 3 takes triples;
    // the raw fixpoint scanned 24 × 6 atoms.
    assert_eq!(snap.counter("op.scan.count"), 3);
    assert_eq!(snap.counter("op.scan.rows"), 7);
    // advisor ⋈ teaches on ?y: 2 × 2 rows; ⋈ takes on (?x, ?z): the 2 answers.
    assert_eq!(snap.counter("op.join.count"), 2);
    assert_eq!(snap.counter("op.join.rows"), 4 + 2);
    assert_eq!(snap.counter("op.union.rows"), 2);
}

/// One planted triangle plus an open wedge. The leapfrog triejoin must
/// report *exact* operator counters for this fixed shape.
/// Five `knows` edges with one triangle (a, b, c), and `where_clause`
/// over them.
fn knows_setup(where_clause: &str) -> (Database, Cq) {
    let doc = "@prefix ex: <http://example.org/> .\n\
               ex:a ex:knows ex:b .\n\
               ex:b ex:knows ex:c .\n\
               ex:a ex:knows ex:c .\n\
               ex:a ex:knows ex:d .\n\
               ex:d ex:knows ex:e .\n";
    let mut g = parse_turtle(doc).unwrap();
    let q = parse_select(
        &format!("PREFIX ex: <http://example.org/> SELECT ?x ?y ?z WHERE {{ {where_clause} }}"),
        g.dictionary_mut(),
    )
    .unwrap();
    (Database::builder().build(g), q)
}

fn triangle_setup() -> (Database, Cq) {
    knows_setup("?x ex:knows ?y . ?y ex:knows ?z . ?x ex:knows ?z")
}

#[test]
fn lfj_counters_are_exact_for_a_fixed_triangle() {
    let (db, q) = triangle_setup();
    let registry = Arc::new(MetricsRegistry::new());
    let answer = db
        .query(&q)
        .strategy(Strategy::RefUcq)
        .join_algorithm(JoinAlgorithm::Wcoj)
        .collect_metrics(&registry)
        .run()
        .unwrap();
    assert_eq!(answer.len(), 1, "only the planted (a,b,c) triangle");
    let snap = registry.snapshot();
    // Three atoms participate in the single leapfrog evaluation, emitting
    // exactly the one triangle row before dedup.
    assert_eq!(snap.counter("op.lfj.atoms"), 3);
    assert_eq!(snap.counter("op.lfj.rows"), 1);
    // The seek/next trace over this 5-edge graph is deterministic: sorted
    // runs are fixed by the dictionary order of a..e, so the probe counts
    // are exact, not merely positive. Every slot is shared by two atoms, so
    // every move is a seek (opens plus gallops) and none a step.
    assert_eq!(snap.counter("op.lfj.seeks"), 26);
    assert_eq!(snap.counter("op.lfj.steps"), 0);
    assert_eq!(snap.counter("op.lfj.next"), 6);
    // The classic join operators stay silent — WCOJ replaced them.
    assert_eq!(snap.counter("op.join.count"), 0);
    assert_eq!(snap.span_count("eval.cq"), 1);
}

/// The 2-path `?x knows ?y . ?y knows ?z` on the triangle's graph, forced
/// onto the leapfrog: `?y` is shared by both atoms and leapfrogs, `?x` and
/// `?z` have one atom each and step through their runs. Seeks: two opens at
/// `?y`, one each at `?x` and `?z` under both `?y` values (b, d), and five
/// gallops (three to reach d, two to exhaust); steps: one per value bound
/// at `?x` and `?z`, the last finding the run exhausted.
#[test]
fn lfj_counters_are_exact_for_a_fixed_path() {
    let (db, q) = knows_setup("?x ex:knows ?y . ?y ex:knows ?z");
    let registry = Arc::new(MetricsRegistry::new());
    let answer = db
        .query(&q)
        .strategy(Strategy::RefUcq)
        .join_algorithm(JoinAlgorithm::Wcoj)
        .collect_metrics(&registry)
        .run()
        .unwrap();
    assert_eq!(answer.len(), 2, "a→b→c and a→d→e");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("op.lfj.atoms"), 2);
    assert_eq!(snap.counter("op.lfj.rows"), 2);
    assert_eq!(snap.counter("op.lfj.seeks"), 11);
    assert_eq!(snap.counter("op.lfj.steps"), 4);
    assert_eq!(snap.counter("op.lfj.next"), 6);
}

/// The `Auto` × `RangeScan` interaction: on an interval-encoded chain the
/// type atom reformulates to a single `type ∈ [lo,hi)` range atom, which
/// the leapfrog plan consumes as ONE range-bounded trie level inside ONE
/// CQ — where the classic encoding must leapfrog once per disjunct of a
/// six-way union.
fn chain_join_setup(encoding: rdfref_model::DictEncoding) -> (Database, Cq) {
    let mut doc = String::from(
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         @prefix ex: <http://example.org/> .\n",
    );
    for i in 0..5 {
        doc.push_str(&format!("ex:K{i} rdfs:subClassOf ex:K{} .\n", i + 1));
    }
    for i in 0..6 {
        doc.push_str(&format!("ex:k{i} a ex:K{i} .\nex:k{i} ex:p ex:v{i} .\n"));
    }
    let mut g = parse_turtle(&doc).unwrap();
    let q = parse_select(
        "PREFIX ex: <http://example.org/> SELECT ?x ?y WHERE { \
         ?x a ex:K5 . ?x ex:p ?y }",
        g.dictionary_mut(),
    )
    .unwrap();
    (Database::builder().encoding(encoding).build(g), q)
}

#[test]
fn lfj_range_atom_is_one_bounded_trie_level_not_a_union() {
    let (classic_db, q) = chain_join_setup(rdfref_model::DictEncoding::Classic);
    let registry = Arc::new(MetricsRegistry::new());
    let answer = classic_db
        .query(&q)
        .strategy(Strategy::RefUcq)
        .join_algorithm(JoinAlgorithm::Wcoj)
        .collect_metrics(&registry)
        .run()
        .unwrap();
    assert_eq!(answer.len(), 6);
    let snap = registry.snapshot();
    // Classic: one 2-atom leapfrog per disjunct of the 6-way union.
    assert_eq!(snap.span_count("eval.cq"), 6, "classic: N-way union");
    assert_eq!(snap.counter("op.lfj.atoms"), 12, "2 atoms × 6 disjuncts");
    assert_eq!(snap.counter("op.lfj.rows"), 6);

    let (interval_db, q) = chain_join_setup(rdfref_model::DictEncoding::Interval);
    let registry = Arc::new(MetricsRegistry::new());
    let answer = interval_db
        .query(&q)
        .strategy(Strategy::RefUcq)
        .join_algorithm(JoinAlgorithm::Wcoj)
        .collect_metrics(&registry)
        .run()
        .unwrap();
    assert_eq!(answer.len(), 6, "interval answers match classic");
    let snap = registry.snapshot();
    // Interval: the covered chain compresses to one range atom, so the
    // whole query is ONE leapfrog evaluation whose type atom is a single
    // range-bounded trie level — not six point-lookup disjuncts.
    assert_eq!(snap.span_count("eval.cq"), 1, "single disjunct");
    assert_eq!(snap.counter("op.lfj.atoms"), 2, "one bounded level + join");
    assert_eq!(
        snap.counter("op.lfj.rows"),
        6,
        "all six instances in one pass"
    );
    assert_eq!(snap.counter("op.scan.count"), 0, "no classic scans");
}

#[test]
fn registry_loses_no_increments_under_concurrency() {
    const THREADS: usize = 8;
    const INCREMENTS: u64 = 10_000;
    let registry = Arc::new(MetricsRegistry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let recorder: Arc<dyn rdfref_obs::Recorder> = registry as _;
                let obs = Obs::collecting(recorder);
                for _ in 0..INCREMENTS {
                    obs.add("test.counter", 1);
                    let _guard = obs.span("test.span");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("test.counter"), THREADS as u64 * INCREMENTS);
    assert_eq!(snap.span_count("test.span"), THREADS as u64 * INCREMENTS);
}

#[test]
fn concurrent_requests_against_one_registry_account_every_call() {
    const THREADS: usize = 4;
    const CALLS: usize = 25;
    let (db, q) = setup();
    let db = Arc::new(db);
    let registry = Arc::new(MetricsRegistry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let db = Arc::clone(&db);
            let registry = Arc::clone(&registry);
            let q = q.clone();
            std::thread::spawn(move || {
                for _ in 0..CALLS {
                    db.query(&q)
                        .strategy(Strategy::RefGCov)
                        .collect_metrics(&registry)
                        .run()
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = registry.snapshot();
    let expected = (THREADS * CALLS) as u64;
    assert_eq!(snap.counter("answer.calls"), expected);
    assert_eq!(snap.span_count("answer"), expected);
}

const FIGURE_2: &str = r#"
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:doi1 a ex:Book ; ex:writtenBy _:b1 ; ex:hasTitle "El Aleph" ; ex:publishedIn "1949" .
_:b1 ex:hasName "J. L. Borges" .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain ex:Book .
ex:writtenBy rdfs:range ex:Person .
"#;

/// Sat is one derivation step against the closed schema: saturation and a
/// data insert each take one round on LUBM and on the paper's Figure 2, a
/// data batch never resaturates, and a schema batch resaturates once.
#[test]
fn saturation_and_maintenance_take_one_derivation_step() {
    use rdfref_model::dictionary::{ID_RDFS_SUBCLASSOF, ID_RDF_TYPE};
    use rdfref_model::EncodedTriple;
    let lubm = rdfref::datagen::lubm::generate(&rdfref::datagen::lubm::LubmConfig::scale(1));
    for (name, graph) in [
        ("lubm", lubm.graph),
        ("figure 2", parse_turtle(FIGURE_2).unwrap()),
    ] {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Obs::collecting(Arc::clone(&registry) as _);
        let counter = |c: &str| registry.snapshot().counter(c);
        rdfref_reasoning::saturate_in_place_obs(&mut graph.clone(), &obs);
        assert_eq!(counter("saturate.rounds"), 1, "{name}: saturate.rounds");

        // A fresh instance of an asserted class, inserted then deleted.
        let typed = *graph.iter().find(|t| t.p == ID_RDF_TYPE).unwrap();
        let mut reasoner = IncrementalReasoner::new(graph);
        reasoner.set_obs(obs);
        let fresh = reasoner.intern(&Term::iri("http://example.org/fresh"));
        let data = EncodedTriple::new(fresh, ID_RDF_TYPE, typed.o);
        assert!(!reasoner.insert_batch(&[data]).resaturated);
        assert!(!reasoner.delete_batch(&[data]).resaturated);
        assert_eq!(
            counter("maintain.insert.rounds"),
            1,
            "{name}: insert rounds"
        );
        assert_eq!(counter("maintain.resaturate"), 0, "{name}: data batches");

        let schema = EncodedTriple::new(typed.o, ID_RDFS_SUBCLASSOF, fresh);
        assert!(reasoner.insert_batch(&[schema]).resaturated);
        assert_eq!(counter("maintain.resaturate"), 1, "{name}: schema batch");
        assert_eq!(
            counter("maintain.insert.rounds"),
            1,
            "{name}: insert rounds"
        );
    }

    // Figure 2's one-step delete of `doi1 writtenBy _:b1`: five candidates
    // (the triple, hasAuthor, doi1 τ Book/Publication, b1 τ Person), two of
    // them still derived from the explicit `doi1 τ Book`.
    let registry = Arc::new(MetricsRegistry::new());
    let mut reasoner = IncrementalReasoner::new(parse_turtle(FIGURE_2).unwrap());
    reasoner.set_obs(Obs::collecting(Arc::clone(&registry) as _));
    let written_by = reasoner.intern(&Term::iri("http://example.org/writtenBy"));
    let doomed = *reasoner
        .explicit()
        .iter()
        .find(|t| t.p == written_by)
        .unwrap();
    assert_eq!(reasoner.delete_batch(&[doomed]).saturation_removed.len(), 3);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("dred.overdeleted"), 5);
    assert_eq!(snap.counter("dred.rederived"), 2);
}

/// LUBM scale 2 and one query of its mix, by name.
fn lubm2(name: &str) -> (Database, Cq) {
    lubm_at(2, name)
}

/// LUBM at `scale` and one query of its mix, by name.
fn lubm_at(scale: usize, name: &str) -> (Database, Cq) {
    use rdfref::datagen::{lubm, queries};
    let ds = lubm::generate(&lubm::LubmConfig::scale(scale));
    let mix = queries::lubm_mix(&ds).unwrap();
    let q = mix.into_iter().find(|nq| nq.name == name).unwrap().cq;
    (Database::builder().build(ds.graph), q)
}

/// The operator trace of one answer, one `label → rows` line per step.
fn operator_lines(answer: &QueryAnswer) -> Vec<String> {
    let steps = &answer.explain.metrics.steps;
    steps
        .iter()
        .map(|s| format!("{} → {}", s.label, s.rows))
        .collect()
}

/// Q07 (students taking a course a given professor teaches) under
/// Ref/SCQ at LUBM 2: the professor's one course is the first fragment,
/// materialised; `takesCourse` is seeded by that course and the student
/// fragment (a five-CQ union) by the twelve students, so neither is scanned
/// whole.
#[test]
fn a_seeded_jucq_pins_its_operators() {
    let (db, q) = lubm2("Q07");
    let registry = Arc::new(MetricsRegistry::new());
    let answer = db
        .query(&q)
        .strategy(Strategy::RefScq)
        .collect_metrics(&registry)
        .run()
        .unwrap();
    assert_eq!(answer.len(), 12);
    let ran = &answer.explain.metrics.dispatched;
    assert_eq!((ran.seeded_fragments, ran.hash_joined_fragments), (2, 0));
    let snap = registry.snapshot();
    // One materialised fragment row: the course.
    assert_eq!(snap.counter("op.fragment.rows"), 1);
    assert_eq!(snap.counter("op.union.rows"), 1);
    // 12 takers of the course, then the 12 of them that are students.
    assert_eq!(snap.counter("op.seeded_fragment.count"), 2);
    assert_eq!(snap.counter("op.seeded_fragment.rows"), 12 + 12);
    // One bind join finds the 12 takers; three CQs of the student union
    // probe per taker (0, 12 and 32 rows) and two, whose class is smaller
    // than the keys, scan it (0 and 6 rows), beside the course's one scan.
    assert_eq!(snap.counter("op.bind_join.count"), 4);
    assert_eq!(snap.counter("op.bind_join.rows"), 56);
    assert_eq!(snap.counter("op.scan.count"), 3);
    assert_eq!(snap.counter("op.scan.rows"), 7);
}

/// The operator trace numbers atoms (and SCQ's fragments) as the caller's
/// query does, whether the plan is computed for it (cache off) or for its
/// α-canonical form (a miss, then a hit). Q08's SCQ seeds fragments; Q09's
/// UCQ is one CQ that minimisation cut to its three property atoms.
#[test]
fn the_operator_trace_numbers_atoms_as_the_query_does_through_the_cache() {
    for name in ["Q08", "Q09"] {
        let (db, q) = lubm2(name);
        for strategy in [Strategy::RefUcq, Strategy::RefScq] {
            let run = |cache: bool| {
                let answer = db
                    .query(&q)
                    .strategy(strategy.clone())
                    .use_cache(cache)
                    .run()
                    .unwrap();
                operator_lines(&answer)
            };
            let point = format!("{name} {}", strategy.name());
            let off = run(false);
            assert_eq!(run(true), off, "{point}: miss against cache off");
            assert_eq!(run(true), off, "{point}: hit against cache off");
            if (name, &strategy) == ("Q08", &Strategy::RefScq) {
                assert!(
                    off.iter().any(|l| l.starts_with("seeded fragment")),
                    "{off:?}"
                );
            }
        }
    }
}

/// Q09 under Sat and Ref/UCQ at LUBM 5 (at LUBM 2 every join of its plan
/// is a hash join): the last atom, `(x takesCourse z)`, is bind-joined to
/// the 469 rows the other five joined, which hold 469 distinct `(x, z)`
/// keys, so it reads the index 469 times — once per distinct key, in
/// ascending key order — and keeps 65 rows. The operator choices, and so
/// every other count, are those of the hash-join chain before it.
#[test]
fn bind_join_probes_are_exact_for_q09() {
    let (db, q) = lubm_at(5, "Q09");
    db.prepare_saturation();
    for strategy in [Strategy::Saturation, Strategy::RefUcq] {
        let name = strategy.name().to_string();
        let registry = Arc::new(MetricsRegistry::new());
        let answer = db
            .query(&q)
            .strategy(strategy)
            .collect_metrics(&registry)
            .run()
            .unwrap();
        assert_eq!(answer.len(), 65, "{name}");
        let lines = operator_lines(&answer);
        let bind = lines.iter().position(|l| l.starts_with("bind-join"));
        let probed = bind.map(|i| (lines[i - 1].as_str(), lines[i].ends_with("→ 65")));
        assert_eq!(probed, Some(("join → 469", true)), "{name}: {lines:?}");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("op.bind_join.count"), 1, "{name}");
        assert_eq!(snap.counter("op.bind_join.rows"), 65, "{name}");
        assert_eq!(snap.counter("op.bind_join.probes"), 469, "{name}");
    }
}
