//! Every reformulated union is minimal: `reformulate_ucq` is the raw rule
//! fixpoint with the disjuncts another disjunct subsumes dropped and the
//! survivors reduced to their cores (the EDBT'13 cleanup, always on).

use rdfref::core::answer::{AnswerOptions, Database, Strategy};
use rdfref::core::reformulate::{
    reformulate_ucq, reformulate_ucq_raw, ReformulationLimits, RewriteContext,
};
use rdfref::core::CoreError;
use rdfref::datagen::lubm::{generate, LubmConfig};
use rdfref::datagen::{geo, onto_sweep, queries};
use rdfref::model::dictionary::ID_RDF_TYPE;
use rdfref::model::fxhash::FxHashSet;
use rdfref::model::{DictEncoding, Graph, Schema, TermId};
use rdfref::query::ast::Atom;
use rdfref::query::canonical::canonicalize;
use rdfref::query::containment::{
    equivalent, minimize, minimize_union, minimize_union_with, subsumes,
};
use rdfref::query::{Cq, Ucq, Var};
use rdfref::storage::eval_ucq;

fn v(n: &str) -> Var {
    Var::new(n)
}

/// The plans the issue measured at LUBM scale 100; the schema, and with it
/// every union, is the same at the default scale.
#[test]
fn lubm_ucq_plans_are_the_cores_of_their_fixpoints() {
    let ds = generate(&LubmConfig::default());
    let db = Database::builder().build(ds.graph.clone());
    let opts = AnswerOptions::default();
    let expected = [
        ("Q02", 84, 3),
        ("Q03", 8, 1),
        ("Q05", 84, 3),
        ("Q07", 5, 1),
        ("Q09", 225, 1),
        ("Q10", 267, 189),
    ];
    let ctx = RewriteContext::new(db.schema(), db.closure());
    for nq in queries::lubm_mix(&ds).unwrap() {
        let ucq = db.run_query(&nq.cq, &Strategy::RefUcq, &opts).unwrap();
        let sat = db.run_query(&nq.cq, &Strategy::Saturation, &opts).unwrap();
        assert_eq!(ucq.rows(), sat.rows(), "{}: Ref/UCQ ≠ Sat", nq.name);
        if let Some((_, raw, minimal)) = expected.iter().find(|e| e.0 == nq.name) {
            let fixpoint = reformulate_ucq_raw(&nq.cq, &ctx, opts.limits).unwrap();
            assert_eq!(fixpoint.len(), *raw, "{}: raw fixpoint", nq.name);
            assert_eq!(ucq.explain.reformulation_cqs, *minimal, "{}", nq.name);
        }
    }
}

/// Q09's type atoms are implied by the domains and ranges of the three
/// properties it joins: what is evaluated is the 3-atom triangle.
#[test]
fn q09_evaluates_as_its_three_property_atoms() {
    let ds = generate(&LubmConfig::default());
    let db = Database::builder().build(ds.graph.clone());
    let ctx = RewriteContext::new(db.schema(), db.closure());
    let q09 = queries::lubm_mix(&ds).unwrap().remove(8);
    assert_eq!(q09.name, "Q09");
    let plan = reformulate_ucq(&q09.cq, &ctx, ReformulationLimits::default()).unwrap();
    assert_eq!(plan.len(), 1);
    let core = &plan.cqs[0];
    assert_eq!(core.size(), 3);
    assert!(core.body.iter().all(|a| a.p != ID_RDF_TYPE.into()));
    assert!(core.body.iter().all(|a| q09.cq.body.contains(a)));
    // `max_cqs` bounds the raw fixpoint, not what is left of it.
    let tight = ReformulationLimits::new().with_max_cqs(100);
    assert!(matches!(
        reformulate_ucq(&q09.cq, &ctx, tight),
        Err(CoreError::ReformulationTooLarge { limit: 100, .. })
    ));
}

#[test]
fn raw_and_minimised_unions_answer_identically() {
    let ds = generate(&LubmConfig::default());
    let db = Database::builder().build(ds.graph.clone());
    let ctx = RewriteContext::new(db.schema(), db.closure());
    let sorted = |ucq: &Ucq| {
        let (mut rel, _) = eval_ucq(db.source(), db.stats(), ucq).unwrap();
        rel.sort();
        rel.to_rows()
    };
    for nq in queries::lubm_mix(&ds).unwrap() {
        if nq.name == "Q09" {
            continue; // 225 six-atom CQs: the raw union is slow in debug builds
        }
        let raw = reformulate_ucq_raw(&nq.cq, &ctx, ReformulationLimits::default()).unwrap();
        let minimal = minimize_union(raw.clone());
        assert!(minimal.len() <= raw.len() && minimal.total_atoms() <= raw.total_atoms());
        assert_eq!(sorted(&minimal), sorted(&raw), "{} diverged", nq.name);
        assert_eq!(minimize_union(minimal.clone()), minimal, "{}", nq.name);
        // Every raw disjunct is accounted for by a survivor.
        for cq in &raw.cqs {
            assert!(minimal.cqs.iter().any(|kept| subsumes(kept, cq)));
        }
    }
}

/// `(x τ Thing), (x related y)` where `related` and its sub-properties have
/// domain `Thing`: the type atom is implied whatever class or property it
/// was rewritten to, so one single-atom disjunct per sub-property is left.
#[test]
fn a_type_atom_implied_by_a_domain_disappears() {
    let ds = onto_sweep::generate(&onto_sweep::SweepConfig {
        class_depth: 3,
        class_fanout: 2,
        property_depth: 2,
        instances_per_leaf: 2,
        edges_per_instance: 1,
        ..onto_sweep::SweepConfig::default()
    });
    let db = Database::builder().build(ds.graph.clone());
    let ctx = RewriteContext::new(db.schema(), db.closure());
    let q = Cq::new(
        vec![v("x"), v("y")],
        vec![
            Atom::new(v("x"), ID_RDF_TYPE, ds.root_class),
            Atom::new(v("x"), ds.root_property, v("y")),
        ],
    )
    .unwrap();
    let raw = reformulate_ucq_raw(&q, &ctx, ReformulationLimits::default()).unwrap();
    // (15 classes + subject and object of 3 properties) × 3 properties.
    assert_eq!(raw.len(), (15 + 6) * 3);
    let plan = reformulate_ucq(&q, &ctx, ReformulationLimits::default()).unwrap();
    let expected: Vec<Cq> = ds
        .properties
        .iter()
        .map(|&p| Cq::new(vec![v("x"), v("y")], vec![Atom::new(v("x"), p, v("y"))]).unwrap())
        .collect();
    assert_eq!(plan.len(), expected.len());
    for cq in &expected {
        assert!(plan.cqs.contains(cq), "missing {cq:?}");
    }
    let opts = AnswerOptions::default();
    let ucq = db.run_query(&q, &Strategy::RefUcq, &opts).unwrap();
    let sat = db.run_query(&q, &Strategy::Saturation, &opts).unwrap();
    assert_eq!(ucq.rows(), sat.rows());
    assert_eq!(ucq.explain.reformulation_cqs, 3);
    assert_eq!(ucq.explain.reformulation_atoms, 3);
}

#[test]
fn cores_of_reformulated_members_are_equivalent_and_no_larger() {
    let ds = generate(&LubmConfig::default());
    let db = Database::builder().build(ds.graph.clone());
    let ctx = RewriteContext::new(db.schema(), db.closure());
    let q02 = queries::lubm_mix(&ds).unwrap().remove(1);
    assert_eq!(q02.name, "Q02");
    let raw = reformulate_ucq_raw(&q02.cq, &ctx, ReformulationLimits::default()).unwrap();
    for cq in &raw.cqs {
        let core = minimize(cq);
        assert!(core.size() <= cq.size());
        assert!(equivalent(&core, cq));
    }
}

/// A chain of classes, one single-atom disjunct each: nothing shares a
/// constant, so nothing can subsume anything.
fn class_chain(n: u32) -> Ucq {
    let member = |i| {
        Cq::new(
            vec![v("x")],
            vec![Atom::new(v("x"), ID_RDF_TYPE, TermId(100 + i))],
        )
    };
    Ucq::new((0..n).map(|i| member(i).unwrap()).collect()).unwrap()
}

/// Nine random edges over one property among six projected variables per
/// disjunct:
/// every pair passes the constant filter, almost no disjunct maps into
/// another, and finding that out takes a search each of the 8 M times.
fn dense_union(n: u32) -> Ucq {
    let digraph = |k: u32| {
        let mut state = u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
        let mut node = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 6
        };
        let mut edge = || {
            let (from, step) = (node(), 1 + node() % 5);
            (
                v(&format!("v{from}")),
                v(&format!("v{}", (from + step) % 6)),
            )
        };
        let body = (0..9)
            .map(|_| edge())
            .map(|(a, b)| Atom::new(a, TermId(1), b));
        let head = (0..6).map(|i| v(&format!("v{i}")).into());
        Cq::new_unchecked(head.collect(), body.collect())
    };
    Ucq::new((0..n).map(digraph).collect()).unwrap()
}

#[test]
fn a_hostile_union_comes_back_equivalent() {
    let input = dense_union(4000);
    let minimal = minimize_union(input.clone());
    assert!(!minimal.is_empty() && minimal.len() <= input.len());
    for cq in input.cqs.iter().step_by(61) {
        assert!(minimal.cqs.iter().any(|kept| subsumes(kept, cq)));
    }
    let chain = class_chain(512);
    assert_eq!(minimize_union(chain.clone()), chain);
}

/// The cost side of "always on", meaningful in optimised builds only:
/// `cargo test --release --test pruning`. What the pass costs is pinned in
/// steps by the kernel's unit tests (none for the chain, the budget for the
/// hostile union) and measured in EXPERIMENTS E14 (18 µs and 22 ms); the
/// bounds here are some fifty times those, wide enough for a noisy shared
/// runner and still below what looking at every pair takes (3 ms and seconds).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing: release builds only")]
fn the_pass_is_cheap_where_it_finds_nothing_and_bounded_where_it_cannot_finish() {
    let best_of = |reps: usize, ucq: &Ucq| {
        let timed = (0..reps).map(|_| {
            let input = ucq.clone();
            let start = std::time::Instant::now();
            std::hint::black_box(minimize_union(input));
            start.elapsed()
        });
        timed.min().unwrap()
    };
    let chain = best_of(25, &class_chain(512));
    assert!(
        chain.as_micros() < 1000,
        "512-disjunct chain took {chain:?}"
    );
    // At most 4 000 × (9 atoms + head) × 64 steps of some 13 ns.
    let dense = best_of(3, &dense_union(4000));
    assert!(
        dense.as_millis() < 1000,
        "4 000 dense disjuncts took {dense:?}"
    );
}

/// The datasets behind `plan_cold` and `lubm_mix`, at test sizes (the
/// schemas, and with them every union, are the benchmark's), with their
/// queries: Example 1 and the LUBM mix, `Sroot`/`Svar`, `G01`/`Gmid`/`G02`.
fn workloads() -> Vec<(Graph, Vec<(String, Cq)>)> {
    let lubm = generate(&LubmConfig::default());
    let mut lubm_queries = vec![("ex1".to_string(), queries::example1(&lubm, 0).unwrap())];
    for nq in queries::lubm_mix(&lubm).unwrap() {
        lubm_queries.push((nq.name.to_string(), nq.cq));
    }
    let sweep = onto_sweep::generate(&onto_sweep::SweepConfig {
        class_depth: 4,
        class_fanout: 4,
        property_depth: 2,
        instances_per_leaf: 1,
        edges_per_instance: 1,
        ..onto_sweep::SweepConfig::default()
    });
    let sweep_queries = vec![
        (
            "Sroot".to_string(),
            Cq::new(
                vec![v("x"), v("y")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, sweep.root_class),
                    Atom::new(v("x"), sweep.root_property, v("y")),
                ],
            )
            .unwrap(),
        ),
        (
            "Svar".to_string(),
            Cq::new(
                vec![v("x"), v("u"), v("y")],
                vec![
                    Atom::new(v("x"), ID_RDF_TYPE, v("u")),
                    Atom::new(v("x"), sweep.root_property, v("y")),
                ],
            )
            .unwrap(),
        ),
    ];
    let g = geo::generate(&geo::GeoConfig {
        hierarchy_depth: 96,
        areas_per_level: 2,
        seed: 1,
    });
    let typed = |class| Atom::new(v("x"), ID_RDF_TYPE, class);
    let geo_queries = vec![
        (
            "G01".to_string(),
            Cq::new(vec![v("x")], vec![typed(g.root_class)]).unwrap(),
        ),
        (
            "Gmid".to_string(),
            Cq::new(vec![v("x")], vec![typed(g.level_classes[48])]).unwrap(),
        ),
        (
            "G02".to_string(),
            Cq::new(
                vec![v("x"), v("y")],
                vec![typed(g.root_class), Atom::new(v("x"), g.located_in, v("y"))],
            )
            .unwrap(),
        ),
    ];
    vec![
        (lubm.graph, lubm_queries),
        (sweep.graph, sweep_queries),
        (g.graph, geo_queries),
    ]
}

/// The sub-query of `atoms` exporting what a cover fragment would: the
/// variables in `cq`'s head or in an atom outside the fragment.
fn fragment(cq: &Cq, atoms: &[usize]) -> Cq {
    let mut head: Vec<Var> = Vec::new();
    for &i in atoms {
        for x in cq.body[i].vars() {
            let outside =
                (0..cq.size()).any(|j| !atoms.contains(&j) && cq.body[j].vars().any(|y| y == x));
            if !head.contains(x) && (cq.head_vars().contains(x) || outside) {
                head.push(x.clone());
            }
        }
    }
    cq.project_fragment(atoms, &head)
}

/// Every connected set of at most three atoms of `cq`.
fn connected_fragments(cq: &Cq) -> Vec<Vec<usize>> {
    let n = cq.size();
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) {
        let atoms: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        if atoms.len() <= 3 && cq.project_fragment(&atoms, &[]).is_connected() {
            out.push(atoms);
        }
    }
    out
}

/// Two minimised unions hold the same disjuncts: as many, and each one's
/// subsumed by one of the other's (in store ids, where intervals live).
fn assert_same_union(product: &Ucq, fixpoint: &Ucq, encode: &dyn Fn(TermId) -> TermId, what: &str) {
    assert_eq!(product.len(), fixpoint.len(), "{what}: union sizes");
    let canon = |u: &Ucq| u.cqs.iter().map(canonicalize).collect::<FxHashSet<Cq>>();
    let (a, b) = (canon(product), canon(fixpoint));
    let stored = |cq: &Cq| cq.map_consts(&mut |c| encode(c));
    // Equal up to canonical form in the common case; the rest by a
    // homomorphism each way.
    for (from, into) in [(&a, &b), (&b, &a)] {
        for cq in from.difference(into) {
            let cq = stored(cq);
            assert!(
                into.iter().any(|g| subsumes(&stored(g), &cq)),
                "{what}: {cq:?} is subsumed by nothing on the other side"
            );
        }
    }
}

/// The product of minimised atom unions is the rule fixpoint, minimised:
/// for every connected fragment of up to three atoms of every `plan_cold`
/// and `lubm_mix` query, on both encodings.
#[test]
fn fragment_unions_equal_their_minimised_fixpoints() {
    for (graph, named) in workloads() {
        for encoding in [DictEncoding::Classic, DictEncoding::Interval] {
            let db = Database::builder().encoding(encoding).build(graph.clone());
            let mut ctx = RewriteContext::new(db.schema(), db.closure());
            if let Some(enc) = db.encoder() {
                ctx = ctx.with_encoder(enc);
            }
            let encode = |c: TermId| db.encoder().map_or(c, |e| e.encode(c));
            for (name, cq) in &named {
                for atoms in connected_fragments(cq) {
                    let frag = fragment(cq, &atoms);
                    let limits = ReformulationLimits::default();
                    let product = reformulate_ucq(&frag, &ctx, limits).unwrap();
                    let raw = reformulate_ucq_raw(&frag, &ctx, limits).unwrap();
                    let fixpoint = minimize_union_with(raw, &encode);
                    let what = format!("{name} {atoms:?} {encoding:?}");
                    assert_same_union(&product, &fixpoint, &encode, &what);
                }
            }
        }
    }
}

/// What the Ref plans of the `plan_cold` queries evaluate, pinned: the
/// product builds the unions the rule fixpoint did (`plan_cold`'s limit).
#[test]
fn plan_cold_reformulation_sizes_are_pinned() {
    let mut got = Vec::new();
    for (graph, named) in workloads() {
        for encoding in [DictEncoding::Classic, DictEncoding::Interval] {
            let db = Database::builder().encoding(encoding).build(graph.clone());
            let opts = AnswerOptions {
                use_cache: false,
                limits: ReformulationLimits::new().with_max_cqs(50_000),
                ..AnswerOptions::default()
            };
            for (name, cq) in &named {
                if !["ex1", "Sroot", "Svar", "G02"].contains(&name.as_str()) {
                    continue;
                }
                for strategy in [Strategy::RefUcq, Strategy::RefScq, Strategy::RefGCov] {
                    let size = match db.run_query(cq, &strategy, &opts) {
                        Ok(a) => Some((a.explain.reformulation_cqs, a.explain.reformulation_atoms)),
                        Err(CoreError::ReformulationTooLarge { .. }) => None,
                        Err(e) => panic!("{name}: {e}"),
                    };
                    let tag = format!("{name}/{}/{encoding:?}", strategy.name());
                    got.push((tag, size));
                }
            }
        }
    }
    let expected = [
        ("ex1/Ref/UCQ/Classic", None),
        ("ex1/Ref/SCQ/Classic", Some((186, 186))),
        ("ex1/Ref/GCov/Classic", Some((186, 186))),
        ("ex1/Ref/UCQ/Interval", Some((900, 5340))),
        ("ex1/Ref/SCQ/Interval", Some((82, 82))),
        ("ex1/Ref/GCov/Interval", Some((80, 82))),
        ("Sroot/Ref/UCQ/Classic", Some((3, 3))),
        ("Sroot/Ref/SCQ/Classic", Some((350, 350))),
        ("Sroot/Ref/GCov/Classic", Some((3, 3))),
        ("Svar/Ref/UCQ/Classic", Some((2742, 5481))),
        ("Svar/Ref/SCQ/Classic", Some((1262, 1262))),
        ("Svar/Ref/GCov/Classic", Some((1262, 1262))),
        ("Sroot/Ref/UCQ/Interval", Some((1, 1))),
        ("Sroot/Ref/SCQ/Interval", Some((4, 4))),
        ("Sroot/Ref/GCov/Interval", Some((1, 1))),
        ("Svar/Ref/UCQ/Interval", Some((86, 171))),
        ("Svar/Ref/SCQ/Interval", Some((89, 89))),
        ("Svar/Ref/GCov/Interval", Some((89, 89))),
        ("G02/Ref/UCQ/Classic", Some((2, 2))),
        ("G02/Ref/SCQ/Classic", Some((103, 103))),
        ("G02/Ref/GCov/Classic", Some((2, 2))),
        ("G02/Ref/UCQ/Interval", Some((1, 1))),
        ("G02/Ref/SCQ/Interval", Some((4, 4))),
        ("G02/Ref/GCov/Interval", Some((1, 1))),
    ];
    let expected: Vec<(String, Option<(usize, usize)>)> =
        expected.iter().map(|(t, s)| (t.to_string(), *s)).collect();
    assert_eq!(got, expected);
}

/// A 512-class chain's root: the fixpoint rewrote every subclass atom into
/// its own subclasses again (~131 k canonicalisations, quadratic); one step
/// per atom is linear. Meaningful in optimised builds only: `cargo test
/// --release --test pruning`. The bound is some fifty times the measured
/// time, and under a third of what the fixpoint takes.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing: release builds only")]
fn a_chain_root_reformulates_in_one_step() {
    let mut schema = Schema::new();
    let class = |i: u32| TermId(100 + i);
    for i in 1..512 {
        schema.add_subclass(class(i), class(i - 1));
    }
    let closure = schema.closure();
    let ctx = RewriteContext::new(&schema, &closure);
    let q = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ID_RDF_TYPE, class(0))]).unwrap();
    let timed = (0..25).map(|_| {
        let start = std::time::Instant::now();
        let ucq = reformulate_ucq(&q, &ctx, ReformulationLimits::default()).unwrap();
        assert_eq!(ucq.len(), 512);
        start.elapsed()
    });
    // Measured 0.19 ms (the fixpoint: 35 ms) on a 2-vCPU x86-64 guest.
    let best = timed.min().unwrap();
    assert!(best.as_micros() < 10_000, "512-class chain took {best:?}");
}
