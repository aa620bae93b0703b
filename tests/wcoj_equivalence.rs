//! Fixed cases of the WCOJ (leapfrog triejoin) executor on the stressor
//! dataset: `Auto`'s verdicts, the physical plan `Explain` reports, and
//! plan-cache keys tagged by join algorithm. Generated chains, stars and
//! triangles run the leapfrog slice of the differential lattice
//! (`tests/common`).

mod common;

use common::{build, check_static, scenario_strategy, ENCODINGS, LATTICE_CASES};
use proptest::prelude::*;
use rdfref::core::answer::{AnswerOptions, Database, Strategy as QStrategy};
use rdfref::core::JoinAlgorithm;
use rdfref::model::TermId;
use rdfref::storage::JoinReason;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: LATTICE_CASES,
        ..ProptestConfig::default()
    })]

    /// Generated queries (random atoms, chains, stars, triangles, the
    /// wildcard) under the leapfrog triejoin on static engines of both
    /// encodings: every strategy × cache point returns the
    /// oracle's `q(G∞)`, which bind join returns in `properties` and
    /// `interval_equivalence`.
    #[test]
    fn wcoj_equals_bind_join_oracle(scenario in scenario_strategy()) {
        let (graph, cq) = build(&scenario);
        check_static(&graph, &cq, "build", &ENCODINGS, &[JoinAlgorithm::Wcoj])?;
    }
}

/// The stressor dataset's triangle: planted answers only, and the cost
/// model routes `Auto` to WCOJ on the cyclic body and to bind join on the
/// acyclic path control.
#[test]
fn stressor_triangle_and_auto_verdicts() {
    use rdfref::datagen::wcoj::{generate, wcoj_mix, WcojConfig};
    let ds = generate(&WcojConfig {
        hubs: 4,
        spokes: 12,
        likes_per_hub: 3,
        triangles: 5,
    });
    let mix = wcoj_mix(&ds).unwrap();
    let db = Database::builder().build(ds.graph.clone());
    let opts = AnswerOptions {
        join_algorithm: JoinAlgorithm::Auto,
        ..AnswerOptions::default()
    };

    let triangle = db.run_query(&mix[0].cq, &QStrategy::RefUcq, &opts).unwrap();
    assert_eq!(
        triangle.len(),
        5,
        "answers are exactly the planted triangles"
    );
    let ran = &triangle.explain.metrics.dispatched;
    assert!(ran.wcoj_cqs > 0 && ran.bind_join_cqs == 0, "{ran}");
    let choice = ran.choice.as_ref().expect("a CQ body ran");
    assert_eq!(choice.reason, JoinReason::Cyclic);
    let plan = choice.plan.as_ref().expect("leapfrog plan");
    assert_eq!(plan.var_order().len(), 3);
    assert_eq!(plan.atom_count(), 3);

    let path = db.run_query(&mix[2].cq, &QStrategy::RefUcq, &opts).unwrap();
    let ran = &path.explain.metrics.dispatched;
    assert!(ran.wcoj_cqs == 0 && ran.bind_join_cqs > 0, "{ran}");
    let choice = ran.choice.as_ref().expect("a CQ body ran");
    assert_eq!(choice.reason, JoinReason::FewAtoms);

    // Forced WCOJ matches forced bind join on the whole mix.
    for nq in &mix {
        for strategy in [QStrategy::RefUcq, QStrategy::RefGCov, QStrategy::Saturation] {
            let mut want = db
                .run_query(
                    &nq.cq,
                    &strategy,
                    &AnswerOptions {
                        join_algorithm: JoinAlgorithm::BindJoin,
                        ..AnswerOptions::default()
                    },
                )
                .unwrap()
                .rows();
            want.sort();
            let mut got = db
                .run_query(
                    &nq.cq,
                    &strategy,
                    &AnswerOptions {
                        join_algorithm: JoinAlgorithm::Wcoj,
                        ..AnswerOptions::default()
                    },
                )
                .unwrap()
                .rows();
            got.sort();
            assert_eq!(got, want, "{}/{}", nq.name, strategy.name());
        }
    }
}

/// A leapfrogged CQ is reported in the caller's variables: through the plan
/// cache the plan is the α-canonical query's (`?cv0 ?cv1 ?cv2`), and
/// `Explain` names them back, so the cached and the uncached run render
/// alike.
#[test]
fn a_cached_leapfrog_plan_names_the_callers_variables() {
    use rdfref::datagen::wcoj::{generate, wcoj_mix, WcojConfig};
    let ds = generate(&WcojConfig {
        hubs: 4,
        spokes: 12,
        likes_per_hub: 3,
        triangles: 5,
    });
    let triangle = &wcoj_mix(&ds).unwrap()[0];
    let db = Database::builder().build(ds.graph.clone());
    let render = |use_cache: bool| {
        let opts = AnswerOptions {
            join_algorithm: JoinAlgorithm::Wcoj,
            use_cache,
            ..AnswerOptions::default()
        };
        let answer = db
            .run_query(&triangle.cq, &QStrategy::RefUcq, &opts)
            .unwrap();
        assert_eq!(answer.explain.cache.is_some(), use_cache);
        format!("{:12}", answer.explain.metrics.dispatched)
    };
    let uncached = render(false);
    assert!(uncached.contains("var order : ?x ?y ?z"), "{uncached}");
    assert_eq!(render(true), uncached, "a miss");
    assert_eq!(render(true), uncached, "a hit");
}

/// `Explain`'s dispatch tally reports the operator the evaluator ran, not
/// the one the user's CQ alone would get: under Ref/GCov the evaluator
/// arbitrates per CQ of the chosen JUCQ. The W02 hub star is cyclic-free
/// but big enough for `Auto` to want WCOJ on the whole body, while every
/// fragment CQ of its cover is bind-joined — `Explain` used to say "wcoj"
/// there with `op.lfj.seeks` at zero.
#[test]
fn dispatch_tally_reports_what_ran_under_jucq() {
    use rdfref::core::{MetricsRegistry, Obs};
    use rdfref::datagen::wcoj::{generate, wcoj_mix, WcojConfig};
    let ds = generate(&WcojConfig {
        hubs: 16,
        spokes: 48,
        likes_per_hub: 10,
        triangles: 12,
    });
    let mix = wcoj_mix(&ds).unwrap();
    let w02 = &mix[1];
    assert_eq!(w02.name, "W02");
    let db = Database::builder().build(ds.graph.clone());
    // The premise: on the user's CQ alone, `Auto` picks WCOJ.
    let whole = rdfref::storage::physical_choice(db.stats(), JoinAlgorithm::Auto, &w02.cq.body);
    assert!(whole.plan.is_some(), "{whole}");

    for strategy in [QStrategy::RefGCov, QStrategy::RefScq, QStrategy::RefUcq] {
        let registry = std::sync::Arc::new(MetricsRegistry::default());
        let opts = AnswerOptions {
            join_algorithm: JoinAlgorithm::Auto,
            obs: Obs::collecting(registry.clone()),
            ..AnswerOptions::default()
        };
        let answer = db.run_query(&w02.cq, &strategy, &opts).unwrap();
        let ran = &answer.explain.metrics.dispatched;
        let leapfrogged = registry.snapshot().counter("op.lfj.seeks") > 0;
        assert_eq!(ran.wcoj_cqs > 0, leapfrogged, "{}", strategy.name());
        assert_eq!(
            ran.to_string().contains("wcoj"),
            leapfrogged,
            "{}: {ran}",
            strategy.name()
        );
        assert!(ran.wcoj_cqs + ran.bind_join_cqs >= 1);
        if strategy == QStrategy::RefGCov {
            // The recorded case: every fragment CQ is bind-joined.
            assert_eq!(ran.wcoj_cqs, 0);
            assert!(ran.choice.as_ref().is_some_and(|c| c.plan.is_none()));
        }
    }
}

/// Plan-cache isolation: the same query answered under both algorithms on
/// one database (cache on) must not serve one algorithm's cached plan to
/// the other — the algorithm tag is part of the cache key.
#[test]
fn plan_cache_keys_are_algorithm_tagged() {
    use rdfref::datagen::wcoj::{generate, WcojConfig};
    let ds = generate(&WcojConfig {
        hubs: 3,
        spokes: 8,
        likes_per_hub: 2,
        triangles: 4,
    });
    let mix = rdfref::datagen::wcoj::wcoj_mix(&ds).unwrap();
    let db = Database::builder().build(ds.graph.clone());
    // Interleave cached runs under different algorithms; answers must stay
    // stable run over run (a wrongly-shared plan would flip them).
    let mut reference: Option<Vec<Vec<TermId>>> = None;
    for _ in 0..3 {
        for algo in [
            JoinAlgorithm::BindJoin,
            JoinAlgorithm::Wcoj,
            JoinAlgorithm::Auto,
        ] {
            let mut rows = db
                .run_query(
                    &mix[0].cq,
                    &QStrategy::RefUcq,
                    &AnswerOptions {
                        join_algorithm: algo,
                        ..AnswerOptions::default()
                    },
                )
                .unwrap()
                .rows();
            rows.sort();
            match &reference {
                Some(want) => assert_eq!(&rows, want, "{algo:?}"),
                None => reference = Some(rows),
            }
        }
    }
}
