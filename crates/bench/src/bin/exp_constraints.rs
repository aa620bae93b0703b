//! E4 — demo step 4, constraint dimension: "propose modifications to the
//! available RDF data and constraints … constraints … may have a dramatic
//! impact [on Ref performance]."
//!
//! Sweeps the synthetic ontology's depth and fan-out and reports the UCQ
//! reformulation size and strategy runtimes for a class query and a
//! class-variable query. The blow-up trend — UCQ size growing with
//! hierarchy size until reformulation becomes infeasible while JUCQ-based
//! strategies stay flat — is the paper's point (i).

use rdfref_bench::report::Table;
use rdfref_bench::{fmt_duration, run_strategy};
use rdfref_core::answer::{AnswerOptions, Database, Strategy};
use rdfref_core::reformulate::{reformulate_ucq_raw, ReformulationLimits, RewriteContext};
use rdfref_datagen::onto_sweep::{generate, SweepConfig};
use rdfref_model::dictionary::ID_RDF_TYPE;
use rdfref_query::ast::{Atom, Cq};
use rdfref_query::containment::minimize_union;
use rdfref_query::Var;

fn main() {
    let limits = ReformulationLimits::new().with_max_cqs(100_000);
    let opts = AnswerOptions::new().with_limits(limits);

    let mut table = Table::new(
        "E4 — reformulation size & runtime vs ontology shape \
         (query: q(x,y) :- x τ Thing, x related y — then with a class variable)",
        &[
            "depth",
            "fanout",
            "classes",
            "|UCQ| root-class raw → evaluated",
            "|UCQ| class-var raw → evaluated",
            "Ref/UCQ",
            "Ref/SCQ",
            "Ref/GCov",
            "Sat",
        ],
    );

    for (depth, fanout) in [
        (1usize, 2usize),
        (2, 2),
        (3, 2),
        (4, 2),
        (2, 4),
        (2, 6),
        (3, 4),
        (3, 6),
        (4, 4),
    ] {
        let ds = generate(&SweepConfig {
            class_depth: depth,
            class_fanout: fanout,
            property_depth: 2,
            instances_per_leaf: 4,
            edges_per_instance: 2,
            ..SweepConfig::default()
        });
        let db = Database::builder().build(ds.graph.clone());
        let ctx = RewriteContext::new(db.schema(), db.closure());

        let x = Var::new("x");
        let y = Var::new("y");
        let q_root = Cq::new(
            vec![x.clone(), y.clone()],
            vec![
                Atom::new(x.clone(), ID_RDF_TYPE, ds.root_class),
                Atom::new(x.clone(), ds.root_property, y.clone()),
            ],
        )
        .unwrap();
        let u = Var::new("u");
        let q_var = Cq::new(
            vec![x.clone(), u.clone(), y.clone()],
            vec![
                Atom::new(x.clone(), ID_RDF_TYPE, u),
                Atom::new(x.clone(), ds.root_property, y.clone()),
            ],
        )
        .unwrap();

        // The paper's size (the raw fixpoint) and what the engine evaluates.
        let sizes = |q: &Cq| match reformulate_ucq_raw(q, &ctx, limits) {
            Ok(raw) => format!("{} → {}", raw.len(), minimize_union(raw).len()),
            Err(_) => "too large".into(),
        };
        let (size_root, size_var) = (sizes(&q_root), sizes(&q_var));

        let fmt_outcome = |s: Strategy| {
            let o = run_strategy(&db, &q_var, s, &opts);
            match o.answers {
                Ok(_) => fmt_duration(o.wall),
                Err(_) => "FAILS".into(),
            }
        };
        table.row(&[
            depth.to_string(),
            fanout.to_string(),
            ds.classes.len().to_string(),
            size_root,
            size_var,
            fmt_outcome(Strategy::RefUcq),
            fmt_outcome(Strategy::RefScq),
            fmt_outcome(Strategy::RefGCov),
            fmt_outcome(Strategy::Saturation),
        ]);
    }
    table.emit("exp_constraints");
}
