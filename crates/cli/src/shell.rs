//! The demo shell: state + command interpreter.

use rdfref_core::answer::{AnswerOptions, Database, Strategy};
use rdfref_core::gcov::{gcov, GcovOptions};
use rdfref_core::incomplete::IncompletenessProfile;
use rdfref_core::reformulate::{ReformulationLimits, RewriteContext};
use rdfref_core::MetricsRegistry;
use rdfref_datagen::{biblio, geo, insee, lubm, wcoj};
use rdfref_model::parser::{parse_turtle, parse_turtle_into};
use rdfref_model::{sorted_run, Graph, Schema};
use rdfref_query::{parse_select, Cover, Cq};
use rdfref_storage::stats::ValueDistribution;
use rdfref_storage::{CostModel, JoinAlgorithm};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one command produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Text to print (possibly multi-line).
    pub text: String,
    /// True iff the session should end.
    pub quit: bool,
}

impl Response {
    fn text(t: impl Into<String>) -> Response {
        Response {
            text: t.into(),
            quit: false,
        }
    }
}

/// The interactive shell state.
pub struct Shell {
    graph: Graph,
    db: Option<Database>,
    query_text: Option<String>,
    strategy: Strategy,
    join_algorithm: JoinAlgorithm,
    limits: ReformulationLimits,
    row_budget: Option<usize>,
    prefixes: BTreeMap<String, String>,
    dataset_label: String,
    last_explain: Option<rdfref_core::Explain>,
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

const HELP: &str = "\
rdfref demo shell — the attendee experience of §5 of the paper
  load lubm <scale> | dblp | geo | insee | wcoj | file <path>  pick an RDF graph
  stats                                                  step 1: statistics & value distributions
  schema                                                 constraint summary
  prefix <pfx> <iri>                                     declare a prefix for queries/updates
  query <SPARQL SELECT …>                                set the current query
  strategy sat|ucq|scq|gcov|dat                          pick a technique
  strategy incomplete none|subclass|hierarchies          deliberately partial Ref
  strategy cover {1,3} {2,4} …                           a user-chosen cover (1-based atoms)
  algo bind|wcoj|auto                                    physical join algorithm (auto = cost model)
  limit <n>                                              max CQs per raw reformulation
  budget <n>                                             abort above n intermediate rows
  run                                                    step 2/3: answer + full explanation
  explain analyze [SPARQL SELECT …]                      instrumented run: span tree, operator
                                                         timings, cache status (current query
                                                         if none given)
  show ucq|scq|gcov                                      print the reformulation itself (minimised;
                                                         ucq also reports the raw fixpoint size)
  plan                                                   operator-level trace of the last run
  compare                                                step 2: all systems side by side
  covers                                                 step 3: GCov's explored covers & costs
  assert <s> <p> <o> .                                   step 4: add a data triple (turtle syntax)
  retract <s> <p> <o> .                                  step 4: remove a triple
  constraint sub|subprop|domain|range <a> <b>            step 4: add an RDFS constraint
  save <path>                                            write the graph as N-Triples
  help | quit";

impl Shell {
    /// A fresh shell with an empty graph.
    pub fn new() -> Shell {
        let mut prefixes = BTreeMap::new();
        prefixes.insert("rdf".to_string(), rdfref_model::vocab::RDF_NS.to_string());
        prefixes.insert("rdfs".to_string(), rdfref_model::vocab::RDFS_NS.to_string());
        prefixes.insert("ub".to_string(), lubm::UB.to_string());
        Shell {
            graph: Graph::new(),
            db: None,
            query_text: None,
            strategy: Strategy::RefGCov,
            join_algorithm: JoinAlgorithm::BindJoin,
            limits: ReformulationLimits::new().with_max_cqs(50_000),
            row_budget: None,
            prefixes,
            dataset_label: "(empty)".to_string(),
            last_explain: None,
        }
    }

    /// Execute one command line.
    pub fn execute(&mut self, line: &str) -> Response {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Response::text("");
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let result = match cmd {
            "help" => Ok(Response::text(HELP)),
            "quit" | "exit" => Ok(Response {
                text: "bye".into(),
                quit: true,
            }),
            "load" => self.cmd_load(rest),
            "stats" => self.cmd_stats(),
            "schema" => self.cmd_schema(),
            "prefix" => self.cmd_prefix(rest),
            "query" => self.cmd_query(rest),
            "strategy" => self.cmd_strategy(rest),
            "algo" => self.cmd_algo(rest),
            "limit" => self.cmd_limit(rest),
            "budget" => self.cmd_budget(rest),
            "run" => self.cmd_run(),
            "show" => self.cmd_show(rest),
            "plan" => self.cmd_plan(),
            "compare" => self.cmd_compare(),
            "covers" => self.cmd_covers(),
            "assert" => self.cmd_assert(rest),
            "retract" => self.cmd_retract(rest),
            "constraint" => self.cmd_constraint(rest),
            "save" => self.cmd_save(rest),
            _ if cmd.eq_ignore_ascii_case("explain") => self.cmd_explain(rest),
            other => Err(format!("unknown command '{other}' — try 'help'")),
        };
        match result {
            Ok(r) => r,
            Err(e) => Response::text(format!("error: {e}")),
        }
    }

    fn db(&mut self) -> &Database {
        if self.db.is_none() {
            self.db = Some(Database::builder().build(self.graph.clone()));
        }
        self.db.as_ref().expect("just built")
    }

    fn invalidate(&mut self) {
        self.db = None;
    }

    fn opts(&self) -> AnswerOptions {
        AnswerOptions {
            limits: self.limits,
            row_budget: self.row_budget,
            join_algorithm: self.join_algorithm,
            ..AnswerOptions::default()
        }
    }

    fn parse_current_query(&mut self) -> Result<Cq, String> {
        let text = self
            .query_text
            .clone()
            .ok_or_else(|| "no query set — use 'query SELECT …'".to_string())?;
        let mut preamble = String::new();
        for (p, iri) in &self.prefixes {
            let _ = writeln!(preamble, "PREFIX {p}: <{iri}>");
        }
        parse_select(&format!("{preamble}{text}"), self.graph.dictionary_mut())
            .map_err(|e| e.to_string())
    }

    fn cmd_load(&mut self, rest: &str) -> Result<Response, String> {
        let mut parts = rest.split_whitespace();
        let kind = parts
            .next()
            .ok_or("usage: load lubm <n> | dblp | geo | insee | wcoj | file <path>")?;
        let graph = match kind {
            "lubm" => {
                let scale: usize = parts
                    .next()
                    .unwrap_or("1")
                    .parse()
                    .map_err(|_| "scale must be a number".to_string())?;
                self.dataset_label = format!("LUBM-like scale {scale}");
                lubm::generate(&lubm::LubmConfig::scale(scale)).graph
            }
            "dblp" => {
                self.dataset_label = "DBLP-like".into();
                biblio::generate(&biblio::BiblioConfig::default()).graph
            }
            "geo" => {
                self.dataset_label = "IGN-like".into();
                geo::generate(&geo::GeoConfig::default()).graph
            }
            "insee" => {
                self.dataset_label = "INSEE-like".into();
                insee::generate(&insee::InseeConfig::default()).graph
            }
            "wcoj" => {
                self.dataset_label = "WCOJ stressor".into();
                wcoj::generate(&wcoj::WcojConfig::default()).graph
            }
            "file" => {
                let path = parts.next().ok_or("usage: load file <path>")?;
                let content = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let g = parse_turtle(&content).map_err(|e| e.to_string())?;
                self.dataset_label = path.to_string();
                g
            }
            other => return Err(format!("unknown dataset '{other}'")),
        };
        self.graph = graph;
        self.invalidate();
        Ok(Response::text(format!(
            "loaded {} — {} triples ({} schema constraints)",
            self.dataset_label,
            self.graph.len(),
            Schema::from_graph(&self.graph).len(),
        )))
    }

    fn cmd_stats(&mut self) -> Result<Response, String> {
        if self.graph.is_empty() {
            return Err("no graph loaded".into());
        }
        let label = self.dataset_label.clone();
        let db = self.db();
        let stats = db.stats();
        let dist = ValueDistribution::compute(db.source(), 5);
        let dict = db.dictionary();
        let mut out = String::new();
        let _ = writeln!(out, "dataset          : {label}");
        let _ = writeln!(out, "triples          : {}", stats.total);
        let _ = writeln!(
            out,
            "distinct         : {} subjects, {} properties, {} objects, {} classes",
            stats.distinct_subjects,
            stats.distinct_properties,
            stats.distinct_objects,
            stats.distinct_classes()
        );
        let _ = writeln!(out, "top properties   :");
        for (p, n) in stats.top_properties(5) {
            let _ = writeln!(out, "  {n:>7}  {}", dict.term(p));
        }
        let _ = writeln!(out, "top classes      :");
        for (c, n) in stats.top_classes(5) {
            let _ = writeln!(out, "  {n:>7}  {}", dict.term(c));
        }
        let _ = writeln!(out, "top subjects     :");
        for (s, n) in dist.top_subjects.iter().take(3) {
            let _ = writeln!(out, "  {n:>7}  {}", dict.term(*s));
        }
        Ok(Response::text(out.trim_end().to_string()))
    }

    fn cmd_schema(&mut self) -> Result<Response, String> {
        let db = self.db();
        let schema = db.schema();
        let closure = db.closure();
        Ok(Response::text(format!(
            "declared constraints: {} subClassOf, {} subPropertyOf, {} domain, {} range\n\
             closure entries     : {} (hierarchy pairs + effective domains/ranges)",
            schema.subclass.len(),
            schema.subproperty.len(),
            schema.domain.len(),
            schema.range.len(),
            closure.len(),
        )))
    }

    fn cmd_prefix(&mut self, rest: &str) -> Result<Response, String> {
        let mut parts = rest.split_whitespace();
        let pfx = parts.next().ok_or("usage: prefix <pfx> <iri>")?;
        let iri = parts
            .next()
            .ok_or("usage: prefix <pfx> <iri>")?
            .trim_matches(['<', '>']);
        self.prefixes
            .insert(pfx.trim_end_matches(':').to_string(), iri.to_string());
        Ok(Response::text(format!("prefix {pfx} → <{iri}>")))
    }

    fn cmd_query(&mut self, rest: &str) -> Result<Response, String> {
        if rest.is_empty() {
            return Err("usage: query SELECT … WHERE { … }".into());
        }
        self.query_text = Some(rest.to_string());
        let cq = self.parse_current_query()?;
        Ok(Response::text(format!(
            "query set: {} atom(s), {} distinguished variable(s)\n{}",
            cq.size(),
            cq.arity(),
            rdfref_query::display::cq_to_string(&cq, self.graph.dictionary()),
        )))
    }

    fn cmd_strategy(&mut self, rest: &str) -> Result<Response, String> {
        let mut parts = rest.split_whitespace();
        let kind = parts
            .next()
            .ok_or("usage: strategy sat|ucq|scq|gcov|dat|incomplete <p>|cover …")?;
        self.strategy = match kind {
            "sat" => Strategy::Saturation,
            "ucq" => Strategy::RefUcq,
            "scq" => Strategy::RefScq,
            "gcov" => Strategy::RefGCov,
            "dat" => Strategy::Datalog,
            "incomplete" => {
                let profile = match parts.next().unwrap_or("hierarchies") {
                    "none" => IncompletenessProfile::none(),
                    "subclass" => IncompletenessProfile::subclass_only(),
                    "hierarchies" => IncompletenessProfile::hierarchies_only(),
                    other => return Err(format!("unknown profile '{other}'")),
                };
                Strategy::RefIncomplete(profile)
            }
            "cover" => {
                let cq = self.parse_current_query()?;
                let cover = parse_cover(rest.trim_start_matches("cover").trim(), cq.size())?;
                Strategy::RefJucq(cover)
            }
            other => return Err(format!("unknown strategy '{other}'")),
        };
        Ok(Response::text(format!(
            "strategy: {}",
            self.strategy.name()
        )))
    }

    fn cmd_algo(&mut self, rest: &str) -> Result<Response, String> {
        self.join_algorithm = match rest.trim() {
            "bind" | "bindjoin" | "bind-join" => JoinAlgorithm::BindJoin,
            "wcoj" | "lfj" => JoinAlgorithm::Wcoj,
            "auto" => JoinAlgorithm::Auto,
            other => return Err(format!("usage: algo bind|wcoj|auto (got '{other}')")),
        };
        Ok(Response::text(format!(
            "join algorithm: {}",
            match self.join_algorithm {
                JoinAlgorithm::BindJoin => "bind join",
                JoinAlgorithm::Wcoj => "wcoj (leapfrog triejoin)",
                JoinAlgorithm::Auto => "auto (cost model decides per query)",
                _ => "unknown",
            }
        )))
    }

    fn cmd_limit(&mut self, rest: &str) -> Result<Response, String> {
        let n: usize = rest.parse().map_err(|_| "usage: limit <n>".to_string())?;
        self.limits.max_cqs = n;
        Ok(Response::text(format!("reformulation limit: {n} CQs")))
    }

    fn cmd_budget(&mut self, rest: &str) -> Result<Response, String> {
        if rest == "off" {
            self.row_budget = None;
            return Ok(Response::text("row budget: off"));
        }
        let n: usize = rest
            .parse()
            .map_err(|_| "usage: budget <n>|off".to_string())?;
        self.row_budget = Some(n);
        Ok(Response::text(format!("row budget: {n} rows")))
    }

    fn cmd_run(&mut self) -> Result<Response, String> {
        let cq = self.parse_current_query()?;
        let strategy = self.strategy.clone();
        let opts = self.opts();
        let db = self.db();
        let answer = db
            .query(&cq)
            .strategy(strategy)
            .options(opts)
            .run()
            .map_err(|e| e.to_string())?;
        let dict = db.dictionary();
        let mut out = String::new();
        let shown = answer.len().min(20);
        for row in answer.relation().rows().take(20) {
            let rendered: Vec<String> = row.iter().map(|id| dict.term(*id).to_string()).collect();
            let _ = writeln!(out, "  {}", rendered.join("  "));
        }
        if answer.len() > shown {
            let _ = writeln!(out, "  … {} more", answer.len() - shown);
        }
        let _ = write!(out, "{}", answer.explain);
        self.last_explain = Some(answer.explain.clone());
        Ok(Response::text(out.trim_end().to_string()))
    }

    /// `EXPLAIN ANALYZE [query]` — run the query with a per-run metrics
    /// registry and print the span tree, operator timings and cache status.
    fn cmd_explain(&mut self, rest: &str) -> Result<Response, String> {
        let rest = rest.trim();
        let (head, tail) = match rest.split_once(char::is_whitespace) {
            Some((h, t)) => (h, t.trim()),
            None => (rest, ""),
        };
        if !head.eq_ignore_ascii_case("analyze") {
            return Err("usage: explain analyze [SELECT … WHERE { … }]".into());
        }
        if !tail.is_empty() {
            self.query_text = Some(tail.to_string());
        }
        let cq = self.parse_current_query()?;
        let strategy = self.strategy.clone();
        let opts = self.opts();
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        let db = self.db();
        let answer = db
            .query(&cq)
            .strategy(strategy)
            .options(opts)
            .collect_metrics(&registry)
            .run()
            .map_err(|e| e.to_string())?;
        let snap = registry.snapshot();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "EXPLAIN ANALYZE — {} ({} answers, {:?})",
            answer.explain.strategy, answer.explain.answers, answer.explain.wall
        );
        match &answer.explain.cache {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "plan cache : {} ({} entries resident)",
                    if c.hit { "HIT" } else { "MISS" },
                    c.entries
                );
            }
            None => {
                let _ = writeln!(out, "plan cache : not consulted");
            }
        }
        let dispatched = &answer.explain.metrics.dispatched;
        if dispatched.choice.is_some() {
            let _ = writeln!(out, "physical   : {dispatched:12}");
        }
        let _ = writeln!(out, "spans:");
        for (path, stats) in &snap.spans {
            // Indent by how many dotted ancestors of this path were also
            // recorded, so `answer.plan.gcov` nests under `answer.plan`.
            let ancestors = path
                .char_indices()
                .filter(|&(_, c)| c == '.')
                .filter(|&(i, _)| snap.spans.contains_key(&path[..i]))
                .count();
            let _ = writeln!(
                out,
                "  {:indent$}{:<28} ×{:<4} total {:?} (max {:?})",
                "",
                path,
                stats.count,
                stats.total(),
                std::time::Duration::from_nanos(stats.max_ns),
                indent = ancestors * 2,
            );
        }
        if !answer.explain.metrics.steps.is_empty() {
            let _ = writeln!(out, "operators:");
            for step in &answer.explain.metrics.steps {
                let _ = writeln!(
                    out,
                    "  {:<22} → {:>9} rows  {:?}",
                    step.label, step.rows, step.wall
                );
            }
        }
        let interesting = [
            "answer.calls",
            "plan_cache.hit",
            "plan_cache.miss",
            "gcov.covers_explored",
            "gcov.covers_infeasible",
            "op.scan.rows",
            "op.join.rows",
            "op.bind_join.rows",
            "op.bind_join.probes",
            "op.lfj.seeks",
            "op.lfj.steps",
            "op.lfj.next",
            "op.lfj.rows",
            "op.lfj.atoms",
            "op.union.rows",
            "op.fragment.rows",
            "op.seeded_fragment.count",
            "op.seeded_fragment.rows",
            "saturate.rounds",
            "saturate.derived",
            "datalog.rounds",
            "datalog.facts_derived",
        ];
        let _ = writeln!(out, "counters:");
        for name in interesting {
            let v = snap.counter(name);
            if v > 0 {
                let _ = writeln!(out, "  {name:<24} {v}");
            }
        }
        if !snap.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, v) in &snap.gauges {
                let _ = writeln!(out, "  {name:<24} {v}");
            }
        }
        self.last_explain = Some(answer.explain.clone());
        Ok(Response::text(out.trim_end().to_string()))
    }

    fn cmd_show(&mut self, rest: &str) -> Result<Response, String> {
        let cq = self.parse_current_query()?;
        let limits = self.limits;
        let db = self.db();
        let ctx = RewriteContext::new(db.schema(), db.closure());
        let dict = db.dictionary();
        match rest.trim() {
            "ucq" | "" => {
                let ucq =
                    rdfref_core::reformulate_ucq(&cq, &ctx, limits).map_err(|e| e.to_string())?;
                let raw_cqs = rdfref_core::reformulate_ucq_raw(&cq, &ctx, limits)
                    .map_err(|e| e.to_string())?
                    .len();
                let mut out = format!(
                    "UCQ reformulation: {} CQ(s) (raw fixpoint: {raw_cqs})\n",
                    ucq.len()
                );
                for cq in ucq.cqs.iter().take(30) {
                    out.push_str("  ");
                    out.push_str(&rdfref_query::display::cq_to_string(cq, dict));
                    out.push('\n');
                }
                if ucq.len() > 30 {
                    out.push_str(&format!("  … {} more\n", ucq.len() - 30));
                }
                Ok(Response::text(out.trim_end().to_string()))
            }
            "scq" => {
                let jucq =
                    rdfref_core::reformulate_scq(&cq, &ctx, limits).map_err(|e| e.to_string())?;
                Ok(Response::text(
                    rdfref_query::display::jucq_to_string(&jucq, dict)
                        .trim_end()
                        .to_string(),
                ))
            }
            "gcov" => {
                let model = CostModel::new(db.stats());
                let result = gcov(&cq, &ctx, &model, &GcovOptions::new().with_limits(limits))
                    .map_err(|e| e.to_string())?;
                let mut out = format!("GCov cover {} →\n", result.cover);
                out.push_str(&rdfref_query::display::jucq_to_string(&result.jucq, dict));
                Ok(Response::text(out.trim_end().to_string()))
            }
            other => Err(format!("usage: show ucq|scq|gcov (got '{other}')")),
        }
    }

    fn cmd_plan(&mut self) -> Result<Response, String> {
        let explain = self
            .last_explain
            .as_ref()
            .ok_or_else(|| "no run yet — use 'run' first".to_string())?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "operator trace of the last run ({}):",
            explain.strategy
        );
        for step in &explain.metrics.steps {
            let _ = writeln!(out, "  {:<18} → {:>8} rows", step.label, step.rows);
        }
        let _ = write!(
            out,
            "peak intermediate {} rows, {} rows scanned in total",
            explain.metrics.peak_intermediate(),
            explain.metrics.rows_scanned()
        );
        Ok(Response::text(out))
    }

    fn cmd_compare(&mut self) -> Result<Response, String> {
        let cq = self.parse_current_query()?;
        let opts = self.opts();
        let db = self.db();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>12}  note",
            "strategy", "answers", "time"
        );
        let mut complete: Option<usize> = None;
        for strategy in [
            Strategy::Saturation,
            Strategy::RefUcq,
            Strategy::RefScq,
            Strategy::RefGCov,
            Strategy::RefIncomplete(IncompletenessProfile::hierarchies_only()),
            Strategy::Datalog,
        ] {
            let name = strategy.name();
            match db.query(&cq).strategy(strategy).options(opts.clone()).run() {
                Ok(a) => {
                    if complete.is_none() {
                        complete = Some(a.len());
                    }
                    let note = match complete {
                        Some(c) if a.len() < c => format!("INCOMPLETE ({}/{c})", a.len()),
                        _ => String::new(),
                    };
                    let _ = writeln!(
                        out,
                        "{:<16} {:>9} {:>12}  {}",
                        name,
                        a.len(),
                        format!("{:?}", a.explain.wall),
                        note
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:<16} {:>9} {:>12}  {}", name, "-", "-", e);
                }
            }
        }
        Ok(Response::text(out.trim_end().to_string()))
    }

    fn cmd_covers(&mut self) -> Result<Response, String> {
        let cq = self.parse_current_query()?;
        let limits = self.limits;
        let db = self.db();
        let ctx = RewriteContext::new(db.schema(), db.closure());
        let model = CostModel::new(db.stats());
        let result = gcov(&cq, &ctx, &model, &GcovOptions::new().with_limits(limits))
            .map_err(|e| e.to_string())?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "GCov picked {} (estimated cost {:.0}, cardinality {:.0})",
            result.cover, result.estimate.cost, result.estimate.cardinality
        );
        let _ = writeln!(out, "explored {} covers:", result.explored.len());
        for (cover, est) in &result.explored {
            match est {
                Some(e) => {
                    let _ = writeln!(out, "  {:<44} cost {:>12.0}", cover.to_string(), e.cost);
                }
                None => {
                    let _ = writeln!(out, "  {:<44} reformulation too large", cover.to_string());
                }
            }
        }
        Ok(Response::text(out.trim_end().to_string()))
    }

    fn turtle_preamble(&self) -> String {
        let mut s = String::new();
        for (p, iri) in &self.prefixes {
            let _ = writeln!(s, "@prefix {p}: <{iri}> .");
        }
        s
    }

    fn parse_update_triple(&self, rest: &str) -> Result<Graph, String> {
        let statement = if rest.trim_end().ends_with('.') {
            rest.to_string()
        } else {
            format!("{rest} .")
        };
        let doc = format!("{}{statement}\n", self.turtle_preamble());
        let mut g = Graph::new();
        parse_turtle_into(&doc, &mut g).map_err(|e| e.to_string())?;
        if g.is_empty() {
            return Err("no triple parsed".into());
        }
        Ok(g)
    }

    fn cmd_assert(&mut self, rest: &str) -> Result<Response, String> {
        let additions = self.parse_update_triple(rest)?;
        let batch = additions
            .iter_decoded()
            .map(|t| self.graph.encode(&t))
            .collect();
        let before = self.graph.len();
        self.graph.apply_delta(&sorted_run(batch), &[]);
        let added = self.graph.len() - before;
        self.invalidate();
        Ok(Response::text(format!(
            "asserted {added} triple(s) — graph now {} triples (database rebuilt on next command)",
            self.graph.len()
        )))
    }

    fn cmd_retract(&mut self, rest: &str) -> Result<Response, String> {
        let removals = self.parse_update_triple(rest)?;
        let dict = self.graph.dictionary();
        let doomed = removals
            .iter_decoded()
            .filter_map(|t| {
                Some(rdfref_model::EncodedTriple::new(
                    dict.id_of(&t.subject)?,
                    dict.id_of(&t.property)?,
                    dict.id_of(&t.object)?,
                ))
            })
            .collect();
        let before = self.graph.len();
        self.graph.apply_delta(&[], &sorted_run(doomed));
        let removed = before - self.graph.len();
        self.invalidate();
        Ok(Response::text(format!(
            "retracted {removed} triple(s) — graph now {} triples",
            self.graph.len()
        )))
    }

    fn cmd_constraint(&mut self, rest: &str) -> Result<Response, String> {
        let mut parts = rest.split_whitespace();
        let kind = parts
            .next()
            .ok_or("usage: constraint sub|subprop|domain|range <a> <b>")?;
        let a = parts.next().ok_or("missing first argument")?;
        let b = parts.next().ok_or("missing second argument")?;
        let prop = match kind {
            "sub" | "subclass" => "rdfs:subClassOf",
            "subprop" | "subproperty" => "rdfs:subPropertyOf",
            "domain" => "rdfs:domain",
            "range" => "rdfs:range",
            other => return Err(format!("unknown constraint kind '{other}'")),
        };
        self.cmd_assert(&format!("{a} {prop} {b}"))
    }

    fn cmd_save(&mut self, rest: &str) -> Result<Response, String> {
        if rest.is_empty() {
            return Err("usage: save <path> (.nt = N-Triples, .ttl = Turtle)".into());
        }
        let doc = if rest.ends_with(".ttl") {
            rdfref_model::writer::to_turtle(&self.graph)
        } else {
            rdfref_model::writer::to_ntriples(&self.graph)
        };
        std::fs::write(rest, doc).map_err(|e| e.to_string())?;
        Ok(Response::text(format!(
            "wrote {} triples to {rest}",
            self.graph.len()
        )))
    }
}

/// Parse `{1,3} {2,4} …` (1-based atom indices) into a [`Cover`].
fn parse_cover(text: &str, n_atoms: usize) -> Result<Cover, String> {
    let mut fragments: Vec<Vec<usize>> = Vec::new();
    for group in text.split_terminator('}') {
        let group = group.trim().trim_start_matches('{').trim();
        if group.is_empty() {
            continue;
        }
        let atoms: Vec<usize> = group
            .split(',')
            .map(|a| {
                a.trim()
                    .trim_start_matches('t')
                    .parse::<usize>()
                    .map_err(|_| format!("bad atom index '{a}'"))
                    .and_then(|i| {
                        i.checked_sub(1)
                            .ok_or_else(|| "atom indices are 1-based".to_string())
                    })
            })
            .collect::<Result<_, _>>()?;
        fragments.push(atoms);
    }
    if fragments.is_empty() {
        return Err("usage: strategy cover {1,3} {2,4} …".into());
    }
    Cover::new(fragments, n_atoms).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(shell: &mut Shell, line: &str) -> String {
        shell.execute(line).text
    }

    #[test]
    fn help_and_unknown() {
        let mut s = Shell::new();
        assert!(run(&mut s, "help").contains("rdfref demo shell"));
        assert!(run(&mut s, "frobnicate").contains("unknown command"));
        assert!(s.execute("quit").quit);
    }

    #[test]
    fn full_session_on_lubm() {
        let mut s = Shell::new();
        let loaded = run(&mut s, "load lubm 1");
        assert!(loaded.contains("triples"), "{loaded}");
        let stats = run(&mut s, "stats");
        assert!(stats.contains("top properties"), "{stats}");
        let schema = run(&mut s, "schema");
        assert!(schema.contains("24 subClassOf"), "{schema}");

        let q = run(
            &mut s,
            "query SELECT ?x WHERE { ?x a ub:Person . ?x ub:memberOf ?d }",
        );
        assert!(q.contains("2 atom(s)"), "{q}");

        // Default strategy (GCov).
        let out = run(&mut s, "run");
        assert!(out.contains("strategy        : Ref/GCov"), "{out}");
        assert!(out.contains("answers"), "{out}");

        // Compare across systems: all complete ones agree; the incomplete
        // profile is flagged only if it actually misses answers.
        let cmp = run(&mut s, "compare");
        assert!(cmp.contains("Sat"), "{cmp}");
        assert!(cmp.contains("Dat"), "{cmp}");

        // Cover exploration.
        let covers = run(&mut s, "covers");
        assert!(covers.contains("GCov picked"), "{covers}");

        // User-chosen cover.
        assert!(run(&mut s, "strategy cover {1,2}").contains("Ref/JUCQ"));
        let out = run(&mut s, "run");
        assert!(out.contains("cover           : {{t1,t2}}"), "{out}");
    }

    #[test]
    fn step_4_modifications_change_answers() {
        let mut s = Shell::new();
        run(&mut s, "prefix ex http://example.org/");
        run(&mut s, "constraint sub ex:Book ex:Publication");
        run(&mut s, "assert ex:doi1 a ex:Book");
        run(&mut s, "query SELECT ?x WHERE { ?x a ex:Publication }");
        run(&mut s, "strategy gcov");
        let out = run(&mut s, "run");
        assert!(out.contains("answers         : 1"), "{out}");

        // Removing the constraint removes the implicit answer.
        run(&mut s, "retract ex:Book rdfs:subClassOf ex:Publication");
        let out = run(&mut s, "run");
        assert!(out.contains("answers         : 0"), "{out}");

        // Adding an explicit assertion brings one back.
        run(&mut s, "assert ex:doi2 a ex:Publication");
        let out = run(&mut s, "run");
        assert!(out.contains("answers         : 1"), "{out}");
    }

    #[test]
    fn strategy_variants_parse() {
        let mut s = Shell::new();
        run(&mut s, "load lubm 1");
        run(&mut s, "query SELECT ?x WHERE { ?x a ub:Student }");
        for (cmd, expect) in [
            ("strategy sat", "Sat"),
            ("strategy ucq", "Ref/UCQ"),
            ("strategy scq", "Ref/SCQ"),
            ("strategy dat", "Dat"),
            ("strategy incomplete subclass", "Ref/incomplete"),
        ] {
            let out = run(&mut s, cmd);
            assert!(out.contains(expect), "{cmd}: {out}");
            assert!(run(&mut s, "run").contains("answers"), "{cmd}");
        }
    }

    #[test]
    fn limits_and_budget() {
        let mut s = Shell::new();
        run(&mut s, "load lubm 1");
        run(
            &mut s,
            "query SELECT ?x ?u WHERE { ?x a ?u . ?x ub:memberOf ?d }",
        );
        run(&mut s, "strategy ucq");
        run(&mut s, "limit 3");
        let out = run(&mut s, "run");
        assert!(out.contains("error"), "{out}");
        run(&mut s, "limit 100000");
        run(&mut s, "budget 1");
        let out = run(&mut s, "run");
        assert!(out.contains("row budget"), "{out}");
        run(&mut s, "budget off");
        assert!(run(&mut s, "run").contains("answers"));
    }

    #[test]
    fn show_prints_reformulations() {
        let mut s = Shell::new();
        run(&mut s, "prefix ex http://example.org/");
        run(&mut s, "constraint sub ex:Book ex:Publication");
        run(&mut s, "assert ex:doi1 a ex:Book");
        run(&mut s, "query SELECT ?x WHERE { ?x a ex:Publication }");
        let ucq = run(&mut s, "show ucq");
        assert!(
            ucq.contains("UCQ reformulation: 2 CQ(s) (raw fixpoint: 2)"),
            "{ucq}"
        );
        assert!(ucq.contains("Book"), "{ucq}");
        let scq = run(&mut s, "show scq");
        assert!(scq.contains("F0["), "{scq}");
        let gcov_out = run(&mut s, "show gcov");
        assert!(gcov_out.contains("GCov cover"), "{gcov_out}");
        assert!(run(&mut s, "show nonsense").contains("usage"));
    }

    #[test]
    fn plan_shows_operator_trace() {
        let mut s = Shell::new();
        assert!(run(&mut s, "plan").contains("no run yet"));
        run(&mut s, "load lubm 1");
        run(
            &mut s,
            "query SELECT ?x WHERE { ?x a ub:Person . ?x ub:memberOf ?d }",
        );
        run(&mut s, "run");
        let plan = run(&mut s, "plan");
        assert!(plan.contains("operator trace"), "{plan}");
        assert!(plan.contains("rows"), "{plan}");
    }

    #[test]
    fn explain_analyze_prints_span_tree_for_every_strategy() {
        let mut s = Shell::new();
        run(&mut s, "load lubm 1");
        run(
            &mut s,
            "query SELECT ?x WHERE { ?x a ub:Person . ?x ub:memberOf ?d }",
        );
        for cmd in [
            "strategy sat",
            "strategy ucq",
            "strategy scq",
            "strategy gcov",
            "strategy dat",
            "strategy incomplete hierarchies",
            "strategy cover {1,2}",
        ] {
            run(&mut s, cmd);
            let out = run(&mut s, "EXPLAIN ANALYZE");
            assert!(out.contains("EXPLAIN ANALYZE —"), "{cmd}: {out}");
            assert!(out.contains("spans:"), "{cmd}: {out}");
            assert!(out.contains("answer"), "{cmd}: {out}");
            assert!(out.contains("counters:"), "{cmd}: {out}");
        }
        // Ref strategies report the cache; an inline query is accepted too.
        run(&mut s, "strategy gcov");
        let out = run(
            &mut s,
            "explain analyze SELECT ?x WHERE { ?x a ub:Student }",
        );
        assert!(out.contains("plan cache : "), "{out}");
        assert!(out.contains("answer.plan"), "{out}");
        assert!(run(&mut s, "explain nonsense").contains("usage"));
    }

    /// The `algo` knob switches the physical join algorithm without
    /// changing answers, and `explain analyze` shows the chosen operator
    /// tree — wcoj with its variable order on a triangle-free 2-atom query
    /// still renders the bind-join verdict line.
    #[test]
    fn algo_knob_switches_join_algorithm() {
        let mut s = Shell::new();
        run(&mut s, "load lubm 1");
        run(
            &mut s,
            "query SELECT ?x WHERE { ?x a ub:Person . ?x ub:memberOf ?d }",
        );
        run(&mut s, "strategy ucq");
        let baseline = run(&mut s, "run");
        assert!(baseline.contains("answers"), "{baseline}");

        assert!(run(&mut s, "algo wcoj").contains("leapfrog"));
        let wcoj = run(&mut s, "run");
        assert!(wcoj.contains("physical        : wcoj"), "{wcoj}");
        let analyzed = run(&mut s, "explain analyze");
        assert!(analyzed.contains("physical   : wcoj"), "{analyzed}");
        assert!(analyzed.contains("var order"), "{analyzed}");
        assert!(analyzed.contains("op.lfj.seeks"), "{analyzed}");

        assert!(run(&mut s, "algo auto").contains("cost model"));
        let auto = run(&mut s, "run");
        // 2-atom chain: the cost model keeps bind join and says why.
        assert!(auto.contains("physical        : bind join"), "{auto}");
        assert!(auto.contains("fewer than 3 atoms"), "{auto}");

        assert!(run(&mut s, "algo bind").contains("bind join"));
        assert!(run(&mut s, "algo nonsense").contains("usage"));
    }

    #[test]
    fn cover_parsing() {
        assert_eq!(
            parse_cover("{1,3} {2}", 3).unwrap(),
            Cover::new(vec![vec![0, 2], vec![1]], 3).unwrap()
        );
        assert_eq!(
            parse_cover("{t1,t3} {t3,t5} {t2,t4} {t4,t6}", 6).unwrap(),
            Cover::new(vec![vec![0, 2], vec![2, 4], vec![1, 3], vec![3, 5]], 6).unwrap()
        );
        assert!(parse_cover("{0}", 1).is_err()); // 1-based
        assert!(parse_cover("{1}", 2).is_err()); // uncovered atom
        assert!(parse_cover("", 2).is_err());
    }

    #[test]
    fn save_and_reload() {
        let mut s = Shell::new();
        run(&mut s, "prefix ex http://example.org/");
        run(&mut s, "assert ex:a ex:p ex:b");
        let path = std::env::temp_dir().join("rdfref_cli_test.nt");
        let path_str = path.to_str().unwrap().to_string();
        assert!(run(&mut s, &format!("save {path_str}")).contains("wrote 1"));
        let mut s2 = Shell::new();
        assert!(run(&mut s2, &format!("load file {path_str}")).contains("1 triples"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Shell::new();
        assert!(run(&mut s, "run").contains("no query set"));
        assert!(run(&mut s, "stats").contains("no graph loaded"));
        assert!(run(&mut s, "query SELECT").contains("error"));
        assert!(run(&mut s, "load file /nonexistent.ttl").contains("cannot read"));
        assert!(run(&mut s, "assert nonsense").contains("error"));
        // The shell keeps working afterwards.
        assert!(run(&mut s, "help").contains("demo shell"));
    }
}
