//! Calibrate the cost model's constants against this machine.
//!
//! "Function c may reflect any (combination of) query evaluation costs,
//! such as I/O, CPU etc." (§4). The defaults in
//! [`rdfref_storage::cost::CostParams`] are abstract units; this binary
//! measures the actual per-row cost of the executor's operators (scan, hash
//! join, bind-join probe, dedup) on generated data and prints a `CostParams`
//! initializer scaled to the measured ratios — the knob a deployment would
//! turn when moving to a different back-end, exactly as the paper calibrated
//! `c` per RDBMS.

use rdfref_bench::time;
use rdfref_datagen::lubm::{generate, LubmConfig};
use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_query::ast::{Atom, Cq};
use rdfref_query::Var;
use rdfref_storage::evaluator::Evaluator;
use rdfref_storage::exec::StepLabel;
use rdfref_storage::store::IdPattern;
use rdfref_storage::{ExecMetrics, Stats, Store};

fn main() {
    let ds = generate(&LubmConfig::scale(8));
    let store = Store::from_graph(&ds.graph);
    let stats = Stats::compute(&store);
    let v = |n: &str| Var::new(n);
    const REPS: usize = 200;

    // 1. Scan cost per row: full scan of the type relation.
    let type_rows = store.count(IdPattern {
        s: None,
        p: Some(ID_RDF_TYPE),
        o: None,
    });
    let (_, scan_time) = time(|| {
        for _ in 0..REPS {
            let mut n = 0usize;
            store.scan_into(
                IdPattern {
                    s: None,
                    p: Some(ID_RDF_TYPE),
                    o: None,
                },
                &mut |_, run| n += run.len(),
            );
            assert_eq!(n, type_rows);
        }
    });
    let scan_ns = scan_time.as_nanos() as f64 / (REPS * type_rows) as f64;

    // 2. Hash-join cost per row: (x memberOf y) ⋈ (x type c) via the
    //    evaluator with bind joins disabled by shape (both sides large).
    let member = ds.vocab.member_of;
    let cq = Cq::new(
        vec![v("x"), v("y"), v("u")],
        vec![
            Atom::new(v("x"), member, v("y")),
            Atom::new(v("x"), ID_RDF_TYPE, v("u")),
        ],
    )
    .unwrap();
    let ev = Evaluator::new(&store, &stats);
    let mut metrics = ExecMetrics::default();
    let rel = ev
        .eval_cq(&cq, &[v("x"), v("y"), v("u")], &mut metrics)
        .unwrap();
    let join_rows: usize = metrics.rows_scanned + rel.len();
    let (_, join_time) = time(|| {
        for _ in 0..REPS / 10 {
            let mut m = ExecMetrics::default();
            let _ = ev.eval_cq(&cq, &[v("x"), v("y"), v("u")], &mut m).unwrap();
        }
    });
    let join_ns = join_time.as_nanos() as f64 / ((REPS / 10) * join_rows.max(1)) as f64;

    // 3. Bind-join probe cost: selective degree atom probed into types.
    let univ0 = ds
        .id_of(&rdfref_datagen::lubm::LubmDataset::university_iri(0))
        .unwrap();
    let masters = ds.vocab.masters_degree_from;
    let probe_cq = Cq::new(
        vec![v("x"), v("u")],
        vec![
            Atom::new(v("x"), masters, univ0),
            Atom::new(v("x"), ID_RDF_TYPE, v("u")),
        ],
    )
    .unwrap();
    let mut m = ExecMetrics::default();
    let _ = ev.eval_cq(&probe_cq, &[v("x"), v("u")], &mut m).unwrap();
    let probes: usize = m
        .steps
        .iter()
        .filter(|s| matches!(s.label, StepLabel::Scan(_) | StepLabel::BindJoin(_)))
        .map(|s| s.rows)
        .sum();
    let (_, probe_time) = time(|| {
        for _ in 0..REPS {
            let mut m = ExecMetrics::default();
            let _ = ev.eval_cq(&probe_cq, &[v("x"), v("u")], &mut m).unwrap();
        }
    });
    let probe_ns = probe_time.as_nanos() as f64 / (REPS * probes.max(1)) as f64;

    println!("measured per-row costs on this machine (LUBM-like scale 8):");
    println!("  scan : {scan_ns:8.1} ns/row  (over {type_rows} type rows)");
    println!("  join : {join_ns:8.1} ns/row  (hash join, {join_rows} rows through)");
    println!("  probe: {probe_ns:8.1} ns/row  (bind join, {probes} probed rows)");
    let unit = scan_ns;
    println!("\nsuggested CostParams (normalized to scan = 1.0):");
    println!("  CostParams {{");
    println!("      scan_cost_per_row: 1.0,");
    println!("      join_cost_per_row: {:.2},", join_ns / unit);
    println!("      dedup_cost_per_row: 0.2,");
    println!("      probe_cost_per_row: {:.2},", probe_ns / unit);
    println!("      parse_cost_per_cq: 25.0,   // engine-dependent; keep the default");
    println!("      parse_cost_per_atom: 5.0,");
    println!("  }}");
}
