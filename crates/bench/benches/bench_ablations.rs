//! Criterion benches for the design-decision ablations A1 (dictionary
//! encoding), A2 (closure precompute) and the storage primitives that
//! everything sits on.

use criterion::{criterion_group, criterion_main, Criterion};
use rdfref_core::reformulate::{reformulate_ucq, ReformulationLimits, RewriteContext};
use rdfref_datagen::lubm::{generate, LubmConfig};
use rdfref_datagen::queries;
use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_model::Schema;
use rdfref_storage::store::IdPattern;
use rdfref_storage::{Stats, Store};
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let ds = generate(&LubmConfig::scale(2));
    let store = Store::from_graph(&ds.graph);
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    // A1: dictionary-encoded indexed lookup vs term-level filtering.
    let target = ds.vocab.graduate_student;
    group.bench_function("a1_indexed_id_lookup", |b| {
        b.iter(|| {
            black_box(store.count(IdPattern {
                s: None,
                p: Some(ID_RDF_TYPE),
                o: Some(target),
            }))
        })
    });
    group.bench_function("a1_term_level_scan", |b| {
        let dict = ds.graph.dictionary();
        let type_term = dict.term(ID_RDF_TYPE).clone();
        let target_term = dict.term(target).clone();
        b.iter(|| {
            black_box(
                ds.graph
                    .iter_decoded()
                    .filter(|t| t.property == type_term && t.object == target_term)
                    .count(),
            )
        })
    });

    // A2: closure reuse vs recompute inside reformulation.
    let schema = Schema::from_graph(&ds.graph);
    let q = queries::lubm_mix(&ds)
        .expect("workload is well-formed")
        .into_iter()
        .find(|nq| nq.name == "Q10")
        .unwrap()
        .cq;
    group.bench_function("a2_reformulate_shared_closure", |b| {
        let closure = schema.closure();
        b.iter(|| {
            let ctx = RewriteContext::new(&schema, &closure);
            black_box(
                reformulate_ucq(&q, &ctx, ReformulationLimits::default())
                    .unwrap()
                    .len(),
            )
        })
    });
    group.bench_function("a2_reformulate_fresh_closure", |b| {
        b.iter(|| {
            let closure = schema.closure();
            let ctx = RewriteContext::new(&schema, &closure);
            black_box(
                reformulate_ucq(&q, &ctx, ReformulationLimits::default())
                    .unwrap()
                    .len(),
            )
        })
    });

    // A8: the hash join on the big type⋈member relation pair.
    {
        use rdfref_query::ast::Atom;
        use rdfref_query::Var;
        use rdfref_storage::exec::scan_atom;
        let left = scan_atom(
            &store,
            &Atom::new(Var::new("x"), ID_RDF_TYPE, Var::new("u")),
        )
        .unwrap();
        let right = scan_atom(
            &store,
            &Atom::new(Var::new("x"), ds.vocab.member_of, Var::new("d")),
        )
        .unwrap();
        group.bench_function("a8_hash_join", |b| {
            b.iter(|| black_box(left.natural_join(&right).len()))
        });
    }

    // Substrate primitives.
    group.bench_function("store_build", |b| {
        b.iter(|| black_box(Store::from_graph(&ds.graph).len()))
    });
    group.bench_function("stats_compute", |b| {
        b.iter(|| black_box(Stats::compute(&store).total))
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
