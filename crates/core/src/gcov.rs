//! GCov — greedy cost-based cover selection (§4 of the paper).
//!
//! "Our greedy cost-based cover search algorithm, named GCov, starts with a
//! cover where each atom is alone in a fragment, and adds an atom to a
//! fragment (leading to a new cover) if the cost model suggests the new
//! cover may lead to a more efficient query answering strategy."
//!
//! Implementation: best-improvement hill climbing over the cover space.
//! From the current cover, the candidate moves are (a) *add* one atom to one
//! fragment it is not in (yielding overlapping covers like the paper's
//! winning `{{t1,t3},{t3,t5},{t2,t4},{t4,t6}}`), and (b) *merge* two
//! fragments. Each candidate is reformulated through one per-search
//! `FragmentCache`: every atom's union is computed once, every fragment's
//! once (in store id space, as the cost model prices it), and a fragment a
//! move grows extends the cached union of the fragment it grew from. Each
//! candidate is priced with the storage cost model; the cheapest replaces
//! the current cover while it improves on it.
//!
//! Covers whose reformulation exceeds the size limit get infinite cost —
//! this is how GCov "makes Ref feasible in cases when the reformulated
//! queries built by previous reformulation algorithms simply fail".

use crate::error::{CoreError, Result};
use crate::reformulate::jucq::FragmentCache;
use crate::reformulate::rules::RewriteContext;
use crate::reformulate::ucq::ReformulationLimits;
use rdfref_model::fxhash::FxHashMap;
use rdfref_obs::Obs;
use rdfref_query::ast::{Cq, Jucq};
use rdfref_query::Cover;
use rdfref_storage::{CostEstimate, CostModel};

/// A candidate cover replaces the current one when it is cheaper by at least
/// this factor (1.0 = any improvement).
const MIN_IMPROVEMENT: f64 = 1.0;
/// Cap on search steps (each step evaluates all moves from the current cover).
const MAX_STEPS: usize = 32;
/// Only add an atom to a fragment it shares a variable with, and only merge
/// fragments that share one — the moves that can change join behaviour.
const CONNECTED_MOVES_ONLY: bool = true;

/// Options controlling the greedy search.
///
/// Non-exhaustive (like [`crate::answer::AnswerOptions`]): construct via
/// [`GcovOptions::new`] (or `default()`) and [`GcovOptions::with_limits`].
/// The search policy itself (any improvement accepted, 32 steps, connected
/// moves only) is fixed.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct GcovOptions {
    /// Per-fragment reformulation limits.
    pub limits: ReformulationLimits,
}

impl GcovOptions {
    /// The default options.
    pub fn new() -> Self {
        GcovOptions::default()
    }

    /// Set the per-fragment reformulation limits.
    pub fn with_limits(mut self, limits: ReformulationLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The per-fragment reformulation limits.
    pub fn limits(&self) -> &ReformulationLimits {
        &self.limits
    }
}

/// The outcome of a GCov search.
#[derive(Debug, Clone)]
pub struct GcovResult {
    /// The selected cover.
    pub cover: Cover,
    /// Its JUCQ reformulation.
    pub jucq: Jucq,
    /// Its estimated cost/cardinality.
    pub estimate: CostEstimate,
    /// Every cover the search explored, with its estimated cost (`None` for
    /// covers whose reformulation exceeded the size limit) — the demo's
    /// "space of explored alternatives, and their estimated costs".
    pub explored: Vec<(Cover, Option<CostEstimate>)>,
}

/// Run the greedy cost-based cover search for `cq`.
pub fn gcov(
    cq: &Cq,
    ctx: &RewriteContext<'_>,
    model: &CostModel<'_>,
    opts: &GcovOptions,
) -> Result<GcovResult> {
    gcov_with_obs(cq, ctx, model, opts, &Obs::disabled())
}

/// [`gcov`] with an observability sink: wraps the search in the
/// `gcov.search` span and records how many covers were explored
/// (`gcov.covers_explored`) and how many were priced by the cost model
/// versus rejected as too large (`gcov.covers_infeasible`).
pub fn gcov_with_obs(
    cq: &Cq,
    ctx: &RewriteContext<'_>,
    model: &CostModel<'_>,
    opts: &GcovOptions,
    obs: &Obs,
) -> Result<GcovResult> {
    let _span = obs.span("gcov.search");
    let result = gcov_search(cq, ctx, model, opts)?;
    obs.add("gcov.covers_explored", result.explored.len() as u64);
    obs.add(
        "gcov.covers_infeasible",
        result.explored.iter().filter(|(_, e)| e.is_none()).count() as u64,
    );
    Ok(result)
}

fn gcov_search(
    cq: &Cq,
    ctx: &RewriteContext<'_>,
    model: &CostModel<'_>,
    opts: &GcovOptions,
) -> Result<GcovResult> {
    let n = cq.size();
    // The cost model's statistics describe the (possibly interval-encoded)
    // store, so both the estimates and the returned plan speak its ids.
    let mut cache = FragmentCache::new(cq, ctx, opts.limits).encoded();
    let mut explored: Vec<(Cover, Option<CostEstimate>)> = Vec::new();
    let mut seen: FxHashMap<Cover, Option<f64>> = FxHashMap::default();

    let evaluate = |cover: &Cover,
                    cache: &mut FragmentCache,
                    explored: &mut Vec<(Cover, Option<CostEstimate>)>,
                    seen: &mut FxHashMap<Cover, Option<f64>>|
     -> Option<(Jucq, CostEstimate)> {
        if let Some(known) = seen.get(cover) {
            // Already explored; rebuild only if it was feasible and is
            // needed again (callers only re-request the winner).
            known.as_ref()?;
        }
        match cache.jucq(cover) {
            Ok(jucq) => {
                let est = model.jucq_estimate(&jucq);
                if seen.insert(cover.clone(), Some(est.cost)).is_none() {
                    explored.push((cover.clone(), Some(est)));
                }
                Some((jucq, est))
            }
            Err(CoreError::ReformulationTooLarge { .. }) => {
                if seen.insert(cover.clone(), None).is_none() {
                    explored.push((cover.clone(), None));
                }
                None
            }
            Err(_) => None,
        }
    };

    // Start from the singleton (SCQ) cover.
    let mut current_cover = Cover::singletons(n);
    let mut current = evaluate(&current_cover, &mut cache, &mut explored, &mut seen);

    // If even singletons fail (a fragment's own reformulation too large —
    // only possible with an extreme limit), report the failure.
    let (mut current_jucq, mut current_est) = match current.take() {
        Some(x) => x,
        None => {
            return Err(CoreError::ReformulationTooLarge {
                size: 0,
                limit: opts.limits.max_cqs,
            })
        }
    };

    for _step in 0..MAX_STEPS {
        // Generate candidate moves.
        let mut candidates: Vec<Cover> = Vec::new();
        for fi in 0..current_cover.len() {
            for atom in 0..n {
                if let Some(next) = current_cover.with_atom_in_fragment(fi, atom) {
                    if CONNECTED_MOVES_ONLY && !move_is_connected(cq, &current_cover, fi, atom) {
                        continue;
                    }
                    candidates.push(next);
                }
            }
        }
        for a in 0..current_cover.len() {
            for b in (a + 1)..current_cover.len() {
                if CONNECTED_MOVES_ONLY && !fragments_connected(cq, &current_cover, a, b) {
                    // Merging variable-disjoint fragments only turns a join
                    // into a cross product inside a union — never cheaper.
                    continue;
                }
                if let Some(next) = current_cover.with_fragments_merged(a, b) {
                    candidates.push(next);
                }
            }
        }
        candidates.sort_by_key(|c| c.to_string());
        candidates.dedup();

        let mut best: Option<(Cover, Jucq, CostEstimate)> = None;
        for cand in candidates {
            if seen.contains_key(&cand) {
                continue;
            }
            if let Some((jucq, est)) = evaluate(&cand, &mut cache, &mut explored, &mut seen) {
                if best
                    .as_ref()
                    .map(|(_, _, b)| est.cost < b.cost)
                    .unwrap_or(true)
                {
                    best = Some((cand, jucq, est));
                }
            }
        }
        match best {
            Some((cover, jucq, est)) if est.cost * MIN_IMPROVEMENT < current_est.cost => {
                current_cover = cover;
                current_jucq = jucq;
                current_est = est;
            }
            _ => break, // local optimum
        }
    }

    Ok(GcovResult {
        cover: current_cover,
        jucq: current_jucq,
        estimate: current_est,
        explored,
    })
}

/// Does adding `atom` to fragment `fi` connect through a shared variable?
fn move_is_connected(cq: &Cq, cover: &Cover, fi: usize, atom: usize) -> bool {
    cover.fragments()[fi]
        .iter()
        .any(|&i| cq.body[i].shares_var(&cq.body[atom]))
}

/// Do fragments `a` and `b` share a variable?
fn fragments_connected(cq: &Cq, cover: &Cover, a: usize, b: usize) -> bool {
    cover.fragments()[a].iter().any(|&i| {
        cover.fragments()[b]
            .iter()
            .any(|&j| cq.body[i].shares_var(&cq.body[j]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::dictionary::ID_RDF_TYPE;
    use rdfref_model::{Dictionary, EncodedTriple, Schema, Term, TermId};
    use rdfref_query::ast::Atom;
    use rdfref_query::Var;
    use rdfref_storage::{Stats, Store};

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    /// A miniature Example-1 setting: a wide type relation and a highly
    /// selective degree property.
    fn fixture() -> (Schema, Store, Vec<TermId>) {
        let mut d = Dictionary::new();
        let person = d.intern(&Term::iri("Person"));
        let student = d.intern(&Term::iri("Student"));
        let degree = d.intern(&Term::iri("degreeFrom"));
        let masters = d.intern(&Term::iri("mastersDegreeFrom"));
        let member = d.intern(&Term::iri("memberOf"));
        let univ = d.intern(&Term::iri("Univ532"));
        let mut s = Schema::new();
        s.add_subclass(student, person);
        s.add_subproperty(masters, degree);
        s.add_domain(degree, person);

        let mut triples = Vec::new();
        for i in 0..200 {
            let x = d.intern(&Term::iri(format!("p{i}")));
            let dept = d.intern(&Term::iri(format!("dept{}", i % 10)));
            triples.push(EncodedTriple::new(
                x,
                ID_RDF_TYPE,
                if i % 2 == 0 { person } else { student },
            ));
            triples.push(EncodedTriple::new(x, member, dept));
            if i < 3 {
                triples.push(EncodedTriple::new(x, masters, univ));
            }
        }
        let store = Store::from_triples(&triples);
        (
            s,
            store,
            vec![person, student, degree, masters, member, univ],
        )
    }

    #[test]
    fn gcov_improves_on_scq_for_example1_shape() {
        let (schema, store, ids) = fixture();
        let cl = schema.closure();
        let ctx = RewriteContext::new(&schema, &cl);
        let stats = Stats::compute(&store);
        let model = CostModel::new(&stats);
        // q(x, u, z) :- (x τ u), (x mastersDegreeFrom Univ532), (x memberOf z)
        let q = Cq::new(
            vec![v("x"), v("u"), v("z")],
            vec![
                Atom::new(v("x"), ID_RDF_TYPE, v("u")),
                Atom::new(v("x"), ids[3], ids[5]),
                Atom::new(v("x"), ids[4], v("z")),
            ],
        )
        .unwrap();
        let result = gcov(&q, &ctx, &model, &GcovOptions::default()).unwrap();
        // The selected cover must group the unselective type atom with a
        // selective one, i.e. not stay at singletons.
        assert!(
            !result.cover.is_scq(),
            "GCov stayed at SCQ: {}",
            result.cover
        );
        // And the estimate must beat the SCQ cover's estimate.
        let scq = FragmentCache::new(&q, &ctx, ReformulationLimits::default())
            .jucq(&Cover::singletons(3))
            .unwrap();
        assert!(result.estimate.cost < model.jucq_estimate(&scq).cost);
        // The search recorded its exploration.
        assert!(result.explored.len() >= 2);
    }

    #[test]
    fn gcov_on_single_atom_query_returns_singleton() {
        let (schema, store, ids) = fixture();
        let cl = schema.closure();
        let ctx = RewriteContext::new(&schema, &cl);
        let stats = Stats::compute(&store);
        let model = CostModel::new(&stats);
        let q = Cq::new(vec![v("x")], vec![Atom::new(v("x"), ids[4], v("z"))]).unwrap();
        let result = gcov(&q, &ctx, &model, &GcovOptions::default()).unwrap();
        assert_eq!(result.cover, Cover::singletons(1));
        assert_eq!(result.jucq.len(), 1);
    }

    #[test]
    fn infeasible_fragments_are_skipped_not_fatal() {
        let (schema, store, ids) = fixture();
        let cl = schema.closure();
        let ctx = RewriteContext::new(&schema, &cl);
        let stats = Stats::compute(&store);
        let model = CostModel::new(&stats);
        let q = Cq::new(
            vec![v("x"), v("u")],
            vec![
                Atom::new(v("x"), ID_RDF_TYPE, v("u")),
                Atom::new(v("x"), ids[4], v("z")),
            ],
        )
        .unwrap();
        // Limit chosen so singletons fit but the merged cover does not:
        // the type fragment alone has 1 + |sc| + |dom| = a few CQs.
        let opts = GcovOptions::new().with_limits(ReformulationLimits::new().with_max_cqs(4));
        let result = gcov(&q, &ctx, &model, &opts).unwrap();
        // Search completes; infeasible candidates appear in `explored` with
        // cost None.
        assert!(result
            .explored
            .iter()
            .all(|(c, est)| est.is_some() || !c.is_scq()));
    }
}
