//! The query AST: triple patterns, CQs, UCQs and JUCQs.

use crate::error::{QueryError, Result};
use crate::var::Var;
use rdfref_model::fxhash::{FxHashMap, FxHashSet};
use rdfref_model::TermId;

/// A position of a triple pattern: a variable or a dictionary-encoded
/// constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PTerm {
    /// A query variable.
    Var(Var),
    /// A constant (IRI, blank node or literal), dictionary-encoded.
    Const(TermId),
    /// A half-open id interval `[lo, hi)` in *encoded* (interval-dictionary)
    /// id space: matches any constant whose encoded id falls in the range.
    /// Produced only by interval-aware reformulation, never by the parser.
    Range(TermId, TermId),
}

impl PTerm {
    /// The variable, if this position holds one.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            PTerm::Var(v) => Some(v),
            PTerm::Const(_) | PTerm::Range(..) => None,
        }
    }

    /// The constant, if this position holds one.
    pub fn as_const(&self) -> Option<TermId> {
        match self {
            PTerm::Var(_) | PTerm::Range(..) => None,
            PTerm::Const(c) => Some(*c),
        }
    }

    /// Is this position a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, PTerm::Var(_))
    }

    /// Is this position an id interval?
    pub fn is_range(&self) -> bool {
        matches!(self, PTerm::Range(..))
    }

    /// Map the constant through `f`, leaving variables and id intervals
    /// (which already live in encoded space) untouched. Used to transport a
    /// plan between base and encoded id spaces.
    pub fn map_consts(&self, f: &mut impl FnMut(TermId) -> TermId) -> PTerm {
        match self {
            PTerm::Const(c) => PTerm::Const(f(*c)),
            PTerm::Var(_) | PTerm::Range(..) => self.clone(),
        }
    }
}

impl From<Var> for PTerm {
    fn from(v: Var) -> PTerm {
        PTerm::Var(v)
    }
}

impl From<TermId> for PTerm {
    fn from(c: TermId) -> PTerm {
        PTerm::Const(c)
    }
}

/// A substitution of variables by pattern terms (variables or constants).
pub type Substitution = FxHashMap<Var, PTerm>;

/// Apply a substitution to one position.
pub fn substitute(t: &PTerm, subst: &Substitution) -> PTerm {
    match t {
        PTerm::Var(v) => subst.get(v).cloned().unwrap_or_else(|| t.clone()),
        PTerm::Const(_) | PTerm::Range(..) => t.clone(),
    }
}

/// A triple pattern (atom) `s p o`, any position possibly a variable —
/// including the property and the class position of `rdf:type` atoms, which
/// is what makes reformulation explode (§4, Example 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Subject position.
    pub s: PTerm,
    /// Property position.
    pub p: PTerm,
    /// Object position.
    pub o: PTerm,
}

impl Atom {
    /// Build an atom.
    pub fn new(s: impl Into<PTerm>, p: impl Into<PTerm>, o: impl Into<PTerm>) -> Atom {
        Atom {
            s: s.into(),
            p: p.into(),
            o: o.into(),
        }
    }

    /// The positions as an array `[s, p, o]`.
    pub fn positions(&self) -> [&PTerm; 3] {
        [&self.s, &self.p, &self.o]
    }

    /// Iterate over the variables of this atom (with duplicates).
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        self.positions().into_iter().filter_map(|t| t.as_var())
    }

    /// The set of variables of this atom.
    pub fn var_set(&self) -> FxHashSet<Var> {
        self.vars().cloned().collect()
    }

    /// Number of constant positions (a crude selectivity hint).
    pub fn const_count(&self) -> usize {
        self.positions().iter().filter(|t| !t.is_var()).count()
    }

    /// Does any position hold an id interval?
    pub fn has_range(&self) -> bool {
        self.positions().iter().any(|t| t.is_range())
    }

    /// Apply a substitution.
    pub fn apply(&self, subst: &Substitution) -> Atom {
        Atom {
            s: substitute(&self.s, subst),
            p: substitute(&self.p, subst),
            o: substitute(&self.o, subst),
        }
    }

    /// Do two atoms share at least one variable? (The connectivity relation
    /// used by covers and by the greedy search.)
    pub fn shares_var(&self, other: &Atom) -> bool {
        self.vars().any(|v| other.vars().any(|w| w == v))
    }

    /// Map every constant position through `f` (see [`PTerm::map_consts`]).
    pub fn map_consts(&self, f: &mut impl FnMut(TermId) -> TermId) -> Atom {
        Atom {
            s: self.s.map_consts(f),
            p: self.p.map_consts(f),
            o: self.o.map_consts(f),
        }
    }
}

/// A conjunctive query `q(x̄) :- t1, …, tα`.
///
/// The head is a vector of [`PTerm`]s rather than variables: reformulation
/// rules 9–13 *bind* head variables to schema constants, turning head
/// positions into constants while preserving arity (the bound value is
/// emitted for every result row).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cq {
    /// Head (output) positions; `x̄` in the paper's notation.
    pub head: Vec<PTerm>,
    /// Body: the BGP.
    pub body: Vec<Atom>,
}

impl Cq {
    /// Build a CQ with a variable head, checking that every head variable
    /// occurs in the body (safety) and no variable uses the reserved fresh
    /// prefix.
    pub fn new(head: Vec<Var>, body: Vec<Atom>) -> Result<Cq> {
        let body_vars: FxHashSet<&Var> = body.iter().flat_map(|a| a.vars()).collect();
        for v in &head {
            if !body_vars.contains(v) {
                return Err(QueryError::UnboundHeadVar(v.name().to_string()));
            }
        }
        for v in &body_vars {
            if v.is_fresh() {
                return Err(QueryError::ReservedVariable(v.name().to_string()));
            }
        }
        Ok(Cq {
            head: head.into_iter().map(PTerm::Var).collect(),
            body,
        })
    }

    /// Build a CQ without safety checks (reformulation-internal: bound heads,
    /// fresh variables).
    pub fn new_unchecked(head: Vec<PTerm>, body: Vec<Atom>) -> Cq {
        Cq { head, body }
    }

    /// A boolean CQ (empty head).
    pub fn boolean(body: Vec<Atom>) -> Cq {
        Cq {
            head: Vec::new(),
            body,
        }
    }

    /// Head arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// Number of atoms.
    pub fn size(&self) -> usize {
        self.body.len()
    }

    /// The head variables (skipping bound-constant positions), in head order.
    pub fn head_vars(&self) -> Vec<Var> {
        self.head
            .iter()
            .filter_map(|t| t.as_var())
            .cloned()
            .collect()
    }

    /// All variables of the body, in first-occurrence order, deduplicated.
    pub fn body_vars(&self) -> Vec<Var> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for atom in &self.body {
            for v in atom.vars() {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// The set of body variables.
    pub fn var_set(&self) -> FxHashSet<Var> {
        self.body.iter().flat_map(|a| a.var_set()).collect()
    }

    /// Apply a substitution to head and body.
    pub fn apply(&self, subst: &Substitution) -> Cq {
        Cq {
            head: self.head.iter().map(|t| substitute(t, subst)).collect(),
            body: self.body.iter().map(|a| a.apply(subst)).collect(),
        }
    }

    /// Replace the atom at `idx` with `atom` (reformulation rule step).
    pub fn with_atom(&self, idx: usize, atom: Atom) -> Cq {
        let mut body = self.body.clone();
        body[idx] = atom;
        Cq {
            head: self.head.clone(),
            body,
        }
    }

    /// The sub-CQ induced by a set of atom indices: body restricted to the
    /// fragment, head = `columns` (used when slicing a query along a cover).
    pub fn project_fragment(&self, atom_indices: &[usize], columns: &[Var]) -> Cq {
        Cq {
            head: columns.iter().cloned().map(PTerm::Var).collect(),
            body: atom_indices.iter().map(|&i| self.body[i].clone()).collect(),
        }
    }

    /// Map every constant of head and body through `f` (see
    /// [`PTerm::map_consts`]).
    pub fn map_consts(&self, f: &mut impl FnMut(TermId) -> TermId) -> Cq {
        Cq {
            head: self.head.iter().map(|t| t.map_consts(f)).collect(),
            body: self.body.iter().map(|a| a.map_consts(f)).collect(),
        }
    }

    /// Is the query *connected* (its atoms form one connected component under
    /// the shared-variable relation)? Disconnected queries evaluate as cross
    /// products; the cost model penalizes them.
    pub fn is_connected(&self) -> bool {
        if self.body.len() <= 1 {
            return true;
        }
        let mut visited = vec![false; self.body.len()];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            for (j, seen) in visited.iter_mut().enumerate() {
                if !*seen && self.body[i].shares_var(&self.body[j]) {
                    *seen = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
        count == self.body.len()
    }
}

/// A union of conjunctive queries. Invariant: all members share the head
/// arity (checked by [`Ucq::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ucq {
    /// The disjuncts.
    pub cqs: Vec<Cq>,
}

impl Ucq {
    /// Build a UCQ, checking arity consistency.
    pub fn new(cqs: Vec<Cq>) -> Result<Ucq> {
        if let Some(first) = cqs.first() {
            let arity = first.arity();
            for cq in &cqs {
                if cq.arity() != arity {
                    return Err(QueryError::ArityMismatch {
                        expected: arity,
                        found: cq.arity(),
                    });
                }
            }
        }
        Ok(Ucq { cqs })
    }

    /// A single-CQ union.
    pub fn single(cq: Cq) -> Ucq {
        Ucq { cqs: vec![cq] }
    }

    /// Number of disjuncts — the "size of the reformulation" the paper
    /// reports (318,096 for Example 1).
    pub fn len(&self) -> usize {
        self.cqs.len()
    }

    /// True iff the union is empty (unsatisfiable).
    pub fn is_empty(&self) -> bool {
        self.cqs.is_empty()
    }

    /// Head arity (0 for an empty union).
    pub fn arity(&self) -> usize {
        self.cqs.first().map(|c| c.arity()).unwrap_or(0)
    }

    /// Total number of atoms across disjuncts (a size measure for the
    /// "syntactically huge query" effect).
    pub fn total_atoms(&self) -> usize {
        self.cqs.iter().map(|c| c.size()).sum()
    }

    /// Map every constant of every disjunct through `f` (see
    /// [`PTerm::map_consts`]).
    pub fn map_consts(&self, f: &mut impl FnMut(TermId) -> TermId) -> Ucq {
        Ucq {
            cqs: self.cqs.iter().map(|c| c.map_consts(f)).collect(),
        }
    }
}

/// One fragment of a JUCQ: a UCQ whose columns are named by variables of the
/// original query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Column names: the fragment's exported variables, aligned with the
    /// heads of `ucq`'s members.
    pub columns: Vec<Var>,
    /// The fragment query.
    pub ucq: Ucq,
}

impl Fragment {
    /// Build a fragment, checking that the UCQ's arity matches the columns.
    pub fn new(columns: Vec<Var>, ucq: Ucq) -> Result<Fragment> {
        if !ucq.is_empty() && ucq.arity() != columns.len() {
            return Err(QueryError::ArityMismatch {
                expected: columns.len(),
                found: ucq.arity(),
            });
        }
        Ok(Fragment { columns, ucq })
    }
}

/// A *join of unions of conjunctive queries*: the reformulation language of
/// the demonstrated system. Semantics: natural join of the fragments on
/// their shared column names, projected on `head`.
///
/// * a JUCQ with one fragment covering all atoms ≡ the UCQ reformulation;
/// * a JUCQ whose fragments are the single atoms ≡ the SCQ reformulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Jucq {
    /// Output variables (the original query's distinguished variables).
    pub head: Vec<Var>,
    /// The fragments to join.
    pub fragments: Vec<Fragment>,
}

impl Jucq {
    /// Build a JUCQ, checking that every head variable is exported by some
    /// fragment.
    pub fn new(head: Vec<Var>, fragments: Vec<Fragment>) -> Result<Jucq> {
        let exported: FxHashSet<&Var> = fragments.iter().flat_map(|f| f.columns.iter()).collect();
        for v in &head {
            if !exported.contains(v) {
                return Err(QueryError::UnboundHeadVar(v.name().to_string()));
            }
        }
        Ok(Jucq { head, fragments })
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// True iff the JUCQ has no fragments.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// Total number of CQ disjuncts across fragments.
    pub fn total_cqs(&self) -> usize {
        self.fragments.iter().map(|f| f.ucq.len()).sum()
    }

    /// Map every constant of every fragment through `f` (see
    /// [`PTerm::map_consts`]). Column names and head variables are
    /// untouched.
    pub fn map_consts(&self, f: &mut impl FnMut(TermId) -> TermId) -> Jucq {
        Jucq {
            head: self.head.clone(),
            fragments: self
                .fragments
                .iter()
                .map(|frag| Fragment {
                    columns: frag.columns.clone(),
                    ucq: frag.ucq.map_consts(f),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }
    fn c(n: u32) -> TermId {
        TermId(n)
    }

    fn atom(s: &str, p: u32, o: &str) -> Atom {
        Atom::new(v(s), c(p), v(o))
    }

    #[test]
    fn cq_safety_checked() {
        let body = vec![atom("x", 10, "y")];
        assert!(Cq::new(vec![v("x")], body.clone()).is_ok());
        let err = Cq::new(vec![v("z")], body).unwrap_err();
        assert!(matches!(err, QueryError::UnboundHeadVar(_)));
    }

    #[test]
    fn reserved_prefix_rejected() {
        let body = vec![Atom::new(v("_f0"), c(1), v("y"))];
        let err = Cq::new(vec![v("y")], body).unwrap_err();
        assert!(matches!(err, QueryError::ReservedVariable(_)));
    }

    #[test]
    fn substitution_binds_head_and_body() {
        let cq = Cq::new(vec![v("x"), v("u")], vec![Atom::new(v("x"), c(0), v("u"))]).unwrap();
        let mut subst = Substitution::default();
        subst.insert(v("u"), PTerm::Const(c(42)));
        let bound = cq.apply(&subst);
        assert_eq!(bound.head[1], PTerm::Const(c(42)));
        assert_eq!(bound.body[0].o, PTerm::Const(c(42)));
        // x untouched.
        assert_eq!(bound.head[0], PTerm::Var(v("x")));
    }

    #[test]
    fn body_vars_first_occurrence_order() {
        let cq = Cq::new(
            vec![v("x")],
            vec![atom("x", 1, "y"), atom("y", 2, "z"), atom("x", 3, "z")],
        )
        .unwrap();
        assert_eq!(cq.body_vars(), vec![v("x"), v("y"), v("z")]);
    }

    #[test]
    fn connectivity() {
        let connected = Cq::new(vec![v("x")], vec![atom("x", 1, "y"), atom("y", 2, "z")]).unwrap();
        assert!(connected.is_connected());
        let disconnected =
            Cq::new(vec![v("x")], vec![atom("x", 1, "y"), atom("a", 2, "b")]).unwrap();
        assert!(!disconnected.is_connected());
        let singleton = Cq::new(vec![v("x")], vec![atom("x", 1, "y")]).unwrap();
        assert!(singleton.is_connected());
    }

    #[test]
    fn ucq_arity_enforced() {
        let q1 = Cq::new(vec![v("x")], vec![atom("x", 1, "y")]).unwrap();
        let q2 = Cq::new(vec![v("x"), v("y")], vec![atom("x", 1, "y")]).unwrap();
        assert!(Ucq::new(vec![q1.clone(), q1.clone()]).is_ok());
        assert!(matches!(
            Ucq::new(vec![q1, q2]),
            Err(QueryError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn jucq_head_must_be_exported() {
        let q = Cq::new(vec![v("x")], vec![atom("x", 1, "y")]).unwrap();
        let frag = Fragment::new(vec![v("x")], Ucq::single(q)).unwrap();
        assert!(Jucq::new(vec![v("x")], vec![frag.clone()]).is_ok());
        assert!(matches!(
            Jucq::new(vec![v("missing")], vec![frag]),
            Err(QueryError::UnboundHeadVar(_))
        ));
    }

    #[test]
    fn fragment_arity_checked() {
        let q = Cq::new(vec![v("x")], vec![atom("x", 1, "y")]).unwrap();
        assert!(Fragment::new(vec![v("x"), v("y")], Ucq::single(q)).is_err());
    }

    #[test]
    fn project_fragment_slices_body() {
        let cq = Cq::new(
            vec![v("x")],
            vec![atom("x", 1, "y"), atom("y", 2, "z"), atom("z", 3, "w")],
        )
        .unwrap();
        let frag = cq.project_fragment(&[0, 2], &[v("y"), v("z")]);
        assert_eq!(frag.size(), 2);
        assert_eq!(frag.head_vars(), vec![v("y"), v("z")]);
        assert_eq!(frag.body[1], atom("z", 3, "w"));
    }

    #[test]
    fn atom_helpers() {
        let a = Atom::new(v("x"), c(5), v("y"));
        assert_eq!(a.const_count(), 1);
        assert_eq!(a.var_set().len(), 2);
        let b = Atom::new(v("y"), c(6), c(7));
        assert!(a.shares_var(&b));
        let d = Atom::new(v("z"), c(6), c(7));
        assert!(!a.shares_var(&d));
    }
}
