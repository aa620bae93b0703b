//! The 13 reformulation rules.
//!
//! Each rule rewrites **one atom** of a CQ w.r.t. the schema closure
//! `cl(S)`, optionally binding a variable of the atom to a schema constant
//! (§3 of `DESIGN.md`). Because `cl(S)` is closed, one application reaches
//! everything repeated application would: the subclasses, subproperties and
//! effective domains/ranges a rule enumerates are already transitive. Only a
//! rule-13 output (a property variable bound to a built-in) is an atom of a
//! new kind, so [`super::ucq`] rewrites an atom once and a rule-13 output once
//! more. The raw fixpoint ([`super::ucq::reformulate_ucq_raw`]) still applies
//! the rules exhaustively: it is the paper's size and the oracle the one step
//! is tested against.
//!
//! Writing `τ` = `rdf:type` and `≺sc`, `≺sp`, `←d`, `↪r` for the four
//! constraints, with `c, p` constants and `x` a variable:
//!
//! | #  | atom | side condition (in `cl(S)`) | rewrite |
//! |----|------|------------------------------|---------|
//! | 1  | `s τ c`   | `c′ ≺sc c`  | `s τ c′` |
//! | 2  | `s τ c`   | `p ←d c`    | `s p f`, `f` fresh |
//! | 3  | `s τ c`   | `p ↪r c`    | `f p s`, `f` fresh |
//! | 4  | `s p o`   | `p′ ≺sp p`  | `s p′ o` |
//! | 5  | `s ≺sc c` | `c′ ≺sc c`  | `s ≺sc c′` (first explicit hop) |
//! | 6  | `s ≺sp p` | `p′ ≺sp p`  | `s ≺sp p′` |
//! | 7  | `s ←d o`  | `p₁ ←d c₀ ∈ S`, `p₀ ≼sp p₁`, `c₀ ≼sc c` | bind `s↦p₀`, `o↦c`; witness `p₁ ←d c₀` |
//! | 8  | `s ↪r o`  | analogous for ranges | |
//! | 9  | `s τ x`   | `c′ ≺sc c`  | bind `x↦c`; `s τ c′` |
//! | 10 | `s τ x`   | `p ←d c`    | bind `x↦c`; `s p f` |
//! | 11 | `s τ x`   | `p ↪r c`    | bind `x↦c`; `f p s` |
//! | 12 | `s x o`   | `p′ ≺sp p`  | bind `x↦p`; `s p′ o` |
//! | 13 | `s x o`   | — | bind `x` to a built-in (`τ`, `≺sc`, `≺sp`, `←d`, `↪r`) whose entailments are non-trivial under `cl(S)`; further rules then expand the bound atom |
//!
//! Rules 5/6 are complete because any entailed hierarchy pair decomposes
//! into one *explicit* first hop plus a closure tail; rules 7/8 enumerate
//! the (finitely many) entailed domain/range pairs with an explicit declared
//! constraint as witness atom. Rules 9–13 drive the UCQ blow-up of the
//! paper's Example 1: a variable in class/property position multiplies the
//! union by the closure size.
//!
//! With an interval encoder, every rule that enumerates a set of classes or
//! properties (1, 2, 3, 4, 9, 10, 11, 12) emits each *maximal covered
//! subtree* of the set as one id-interval term and the rest one by one, so
//! the one step already holds the range atoms a second step would compress
//! the enumeration into.

use rdfref_model::dictionary::{
    ID_RDFS_DOMAIN, ID_RDFS_RANGE, ID_RDFS_SUBCLASSOF, ID_RDFS_SUBPROPERTYOF, ID_RDF_TYPE,
};
use rdfref_model::fxhash::{FxHashMap, FxHashSet};
use rdfref_model::intervals::IdRange;
use rdfref_model::{HierarchyEncoder, Schema, SchemaClosure, TermId};
use rdfref_query::ast::{Atom, PTerm};
use rdfref_query::Var;
use rdfref_sync::{Arc, OnceLock};

/// Which rule produced a rewrite (for explanation and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// Subclass unfolding of a class assertion.
    R1,
    /// Domain unfolding of a class assertion.
    R2,
    /// Range unfolding of a class assertion.
    R3,
    /// Subproperty unfolding of a property assertion.
    R4,
    /// Subclass-query unfolding.
    R5,
    /// Subproperty-query unfolding.
    R6,
    /// Domain-query unfolding.
    R7,
    /// Range-query unfolding.
    R8,
    /// Class-variable binding via subclass.
    R9,
    /// Class-variable binding via domain.
    R10,
    /// Class-variable binding via range.
    R11,
    /// Property-variable binding via subproperty.
    R12,
    /// Property-variable binding to a built-in property.
    R13,
}

/// One single-step rewrite of an atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rewrite {
    /// The replacement atom (before applying `bindings` — the driver
    /// substitutes bindings through the whole CQ including this atom).
    pub atom: Atom,
    /// Variable bindings this rewrite commits to (at most two: rules 7/8).
    pub bindings: Vec<(Var, TermId)>,
    /// The rule that fired.
    pub rule: RuleId,
}

/// The reformulation context: declared schema and its closure.
#[derive(Debug, Clone)]
pub struct RewriteContext<'a> {
    /// The declared constraints (needed by rules 7/8 for witness atoms).
    pub schema: &'a Schema,
    /// The closure (all other rules).
    pub closure: &'a SchemaClosure,
    /// The store's encoder: rewrites that would enumerate a subtree it
    /// covers emit a single id-interval atom instead of one CQ per
    /// descendant. The identity covers nothing.
    pub encoder: &'a HierarchyEncoder,
}

/// The classic encoding's encoder, one per process (see
/// [`HierarchyEncoder::is_identity`]).
pub(crate) fn identity_encoder() -> &'static Arc<HierarchyEncoder> {
    static IDENTITY: OnceLock<Arc<HierarchyEncoder>> = OnceLock::new();
    IDENTITY.get_or_init(Arc::default)
}

/// A hierarchy as the closure stores it: element → strict descendants.
type Descendants = FxHashMap<TermId, FxHashSet<TermId>>;

/// The two hierarchies whose subtrees an interval encoder can cover.
#[derive(Debug, Clone, Copy)]
enum Hierarchy {
    Class,
    Property,
}

impl<'a> RewriteContext<'a> {
    /// Build a context over the identity encoder.
    pub fn new(schema: &'a Schema, closure: &'a SchemaClosure) -> Self {
        RewriteContext {
            schema,
            closure,
            encoder: identity_encoder(),
        }
    }

    /// Enable interval compression with `encoder`.
    pub fn with_encoder(mut self, encoder: &'a HierarchyEncoder) -> Self {
        self.encoder = encoder;
        self
    }

    /// All single-step rewrites of `atom`. `fresh` is the existential
    /// variable rules 2/3/10/11 introduce: a rewrite holds at most one, so
    /// one name per atom position is enough.
    pub fn rewrite_atom(&self, atom: &Atom, fresh: &Var) -> Vec<Rewrite> {
        let mut out = Vec::new();
        match &atom.p {
            PTerm::Const(p) if *p == ID_RDF_TYPE => self.rewrite_type_atom(atom, fresh, &mut out),
            PTerm::Const(p) if *p == ID_RDFS_SUBCLASSOF => {
                self.rewrite_hierarchy_atom(atom, Hierarchy::Class, &mut out)
            }
            PTerm::Const(p) if *p == ID_RDFS_SUBPROPERTYOF => {
                self.rewrite_hierarchy_atom(atom, Hierarchy::Property, &mut out)
            }
            PTerm::Const(p) if *p == ID_RDFS_DOMAIN => {
                self.rewrite_typing_constraint_atom(atom, true, &mut out)
            }
            PTerm::Const(p) if *p == ID_RDFS_RANGE => {
                self.rewrite_typing_constraint_atom(atom, false, &mut out)
            }
            // Rule 4: ordinary property assertion.
            PTerm::Const(p) => self.emit_descendants(Hierarchy::Property, *p, |q| {
                out.push(Rewrite {
                    atom: Atom::new(atom.s.clone(), q, atom.o.clone()),
                    bindings: vec![],
                    rule: RuleId::R4,
                })
            }),
            // An id-interval in property position already absorbs all
            // subproperty unfolding of the property it stands for; no rule
            // applies on top of it.
            PTerm::Range(..) => {}
            PTerm::Var(x) => self.rewrite_var_property_atom(atom, x, &mut out),
        }
        out
    }

    fn descendants(&self, h: Hierarchy) -> &'a Descendants {
        match h {
            Hierarchy::Class => &self.closure.subclasses,
            Hierarchy::Property => &self.closure.subproperties,
        }
    }

    /// The interval of `top`'s subtree, when the encoder covers it.
    fn covered(&self, h: Hierarchy, top: TermId) -> Option<IdRange> {
        match h {
            Hierarchy::Class => self.encoder.class_range(top),
            Hierarchy::Property => self.encoder.prop_range(top),
        }
    }

    /// Does the encoder cover any subtree of `h`?
    fn covers_any(&self, h: Hierarchy) -> bool {
        match h {
            Hierarchy::Class => self.encoder.class_range_count() > 0,
            Hierarchy::Property => self.encoder.prop_range_count() > 0,
        }
    }

    /// Emit the strict descendants of `top`: its own interval when its
    /// subtree is covered (the interval also matches `top` itself, which the
    /// atom being rewritten already does — harmless under set semantics),
    /// else their family.
    fn emit_descendants(&self, h: Hierarchy, top: TermId, mut emit: impl FnMut(PTerm)) {
        if let Some((lo, hi)) = self.covered(h, top) {
            emit(PTerm::Range(lo, hi));
        } else if let Some(below) = self.descendants(h).get(&top) {
            self.emit_family(h, below.iter().copied(), emit);
        }
    }

    /// Emit one term per member of `members`, compressing maximal covered
    /// subtrees (greedy, widest first) into id-interval terms. The emitted
    /// terms cover exactly the input set: an interval replaces an element and
    /// its descendants only when all of them are members. Without a covered
    /// subtree in `h` (always, under the identity) every member is its own.
    fn emit_family(
        &self,
        h: Hierarchy,
        members: impl Iterator<Item = TermId>,
        mut emit: impl FnMut(PTerm),
    ) {
        if !self.covers_any(h) {
            members.for_each(|m| emit(PTerm::Const(m)));
            return;
        }
        let below = self.descendants(h);
        let set: FxHashSet<TermId> = members.collect();
        let width = |m: &TermId| below.get(m).map_or(0, |d| d.len());
        let mut ordered: Vec<TermId> = set.iter().copied().collect();
        // Widest subtree first; id order as deterministic tiebreak.
        ordered.sort_unstable_by(|a, b| width(b).cmp(&width(a)).then(a.cmp(b)));
        let mut handled: FxHashSet<TermId> = FxHashSet::default();
        for m in ordered {
            if !handled.insert(m) {
                continue;
            }
            if let Some((lo, hi)) = self.covered(h, m) {
                let subtree = below.get(&m).into_iter().flatten();
                if subtree.clone().all(|d| set.contains(d)) {
                    emit(PTerm::Range(lo, hi));
                    handled.extend(subtree);
                    continue;
                }
            }
            emit(PTerm::Const(m));
        }
    }

    /// Rules 1–3 (constant class) and 9–11 (variable class).
    fn rewrite_type_atom(&self, atom: &Atom, fresh: &Var, out: &mut Vec<Rewrite>) {
        let typed = |o: PTerm| Atom::new(atom.s.clone(), ID_RDF_TYPE, o);
        match &atom.o {
            PTerm::Const(c) => {
                self.emit_descendants(Hierarchy::Class, *c, |o| {
                    out.push(Rewrite {
                        atom: typed(o),
                        bindings: vec![],
                        rule: RuleId::R1,
                    })
                });
                self.emit_typing(atom, *c, true, None, fresh, out);
                self.emit_typing(atom, *c, false, None, fresh, out);
            }
            // An interval stands for a class C and its whole subtree. Rule 1
            // is already absorbed; rules 2/3 still apply because the
            // effective domains/ranges of every C′ ⊑ C are a subset of those
            // of C (pwd/pwr are downward-closed under ⊑), so unfolding via
            // C alone is sound, and it is complete for C itself.
            PTerm::Range(lo, hi) => {
                if let Some(c) = self.encoder.class_of_range((*lo, *hi)) {
                    self.emit_typing(atom, c, true, None, fresh, out);
                    self.emit_typing(atom, c, false, None, fresh, out);
                }
            }
            // Rules 9–11: bind x to every class the closure can entail a
            // type of, and rewrite as rules 1–3 would rewrite `s τ c`.
            PTerm::Var(x) => {
                for &sup in self.closure.subclasses.keys() {
                    self.emit_descendants(Hierarchy::Class, sup, |o| {
                        out.push(Rewrite {
                            atom: typed(o),
                            bindings: vec![(x.clone(), sup)],
                            rule: RuleId::R9,
                        })
                    });
                }
                for &c in self.closure.domain_of.keys() {
                    self.emit_typing(atom, c, true, Some(x), fresh, out);
                }
                for &c in self.closure.range_of.keys() {
                    self.emit_typing(atom, c, false, Some(x), fresh, out);
                }
            }
        }
    }

    /// Rules 2/3 for class `c` (rules 10/11 when `bound` is the class
    /// variable bound to `c`): unfold into the properties whose effective
    /// domain (`domain`) or range is `c`, covered property subtrees as
    /// intervals.
    fn emit_typing(
        &self,
        atom: &Atom,
        c: TermId,
        domain: bool,
        bound: Option<&Var>,
        fresh: &Var,
        out: &mut Vec<Rewrite>,
    ) {
        let of = if domain {
            &self.closure.domain_of
        } else {
            &self.closure.range_of
        };
        let Some(props) = of.get(&c) else { return };
        let rule = match (domain, bound.is_some()) {
            (true, false) => RuleId::R2,
            (false, false) => RuleId::R3,
            (true, true) => RuleId::R10,
            (false, true) => RuleId::R11,
        };
        self.emit_family(Hierarchy::Property, props.iter().copied(), |p| {
            let atom = if domain {
                Atom::new(atom.s.clone(), p, fresh.clone())
            } else {
                Atom::new(fresh.clone(), p, atom.s.clone())
            };
            out.push(Rewrite {
                atom,
                bindings: bound.map(|x| vec![(x.clone(), c)]).unwrap_or_default(),
                rule,
            });
        });
    }

    /// Rules 5/6: queries over the `subClassOf`/`subPropertyOf` hierarchy.
    /// An entailed pair decomposes as one explicit first hop into `mid`,
    /// whose closure tail reaches the (constant or bound) super element.
    fn rewrite_hierarchy_atom(&self, atom: &Atom, h: Hierarchy, out: &mut Vec<Rewrite>) {
        let (pred, rule) = match h {
            Hierarchy::Class => (ID_RDFS_SUBCLASSOF, RuleId::R5),
            Hierarchy::Property => (ID_RDFS_SUBPROPERTYOF, RuleId::R6),
        };
        let below = self.descendants(h);
        match &atom.o {
            PTerm::Const(c) => {
                for &mid in below.get(c).into_iter().flatten() {
                    out.push(Rewrite {
                        atom: Atom::new(atom.s.clone(), pred, mid),
                        bindings: vec![],
                        rule,
                    });
                }
            }
            // Interval compression never puts an interval in hierarchy
            // positions (only in `rdf:type` objects and property slots), so
            // there is nothing to unfold here.
            PTerm::Range(..) => {}
            PTerm::Var(x) => {
                for (&sup, mids) in below {
                    for &mid in mids {
                        out.push(Rewrite {
                            atom: Atom::new(atom.s.clone(), pred, mid),
                            bindings: vec![(x.clone(), sup)],
                            rule,
                        });
                    }
                }
            }
        }
    }

    /// Rules 7/8: queries over `domain`/`range`. Every entailed pair
    /// `(p₀, c)` traces back to a *declared* constraint `(p₁, c₀)` with
    /// `p₀ ≼sp p₁` and `c₀ ≼sc c`; the declared triple is emitted as the
    /// witness body atom and the atom's variables are bound.
    fn rewrite_typing_constraint_atom(&self, atom: &Atom, is_domain: bool, out: &mut Vec<Rewrite>) {
        let declared: Vec<(TermId, TermId)> = if is_domain {
            self.schema.domain.iter().copied().collect()
        } else {
            self.schema.range.iter().copied().collect()
        };
        let pred = if is_domain {
            ID_RDFS_DOMAIN
        } else {
            ID_RDFS_RANGE
        };
        let rule = if is_domain { RuleId::R7 } else { RuleId::R8 };
        for (p1, c0) in declared {
            let mut props: Vec<TermId> = vec![p1];
            props.extend(self.closure.subproperties_of(p1));
            let mut classes: Vec<TermId> = vec![c0];
            classes.extend(self.closure.superclasses_of(c0));
            props.sort_unstable();
            props.dedup();
            classes.sort_unstable();
            classes.dedup();
            for &p0 in &props {
                for &c in &classes {
                    if p0 == p1 && c == c0 {
                        // Identity rewrite: the declared pair is explicit in
                        // the graph, so the base atom already matches it.
                        continue;
                    }
                    let mut bindings = Vec::new();
                    match &atom.s {
                        PTerm::Const(sc) if *sc != p0 => continue,
                        PTerm::Const(_) => {}
                        // Intervals never reach domain/range query positions.
                        PTerm::Range(..) => continue,
                        PTerm::Var(v) => bindings.push((v.clone(), p0)),
                    }
                    match &atom.o {
                        PTerm::Const(oc) if *oc != c => continue,
                        PTerm::Const(_) => {}
                        PTerm::Range(..) => continue,
                        PTerm::Var(v) => {
                            // Repeated variable (s == o): must bind consistently.
                            if let Some((bv, bc)) = bindings.first() {
                                if bv == v && *bc != c {
                                    continue;
                                }
                            }
                            if bindings.iter().all(|(bv, _)| bv != v) {
                                bindings.push((v.clone(), c));
                            }
                        }
                    }
                    out.push(Rewrite {
                        atom: Atom::new(p1, pred, c0),
                        bindings,
                        rule,
                    });
                }
            }
        }
    }

    /// Rules 12/13: variable in property position.
    fn rewrite_var_property_atom(&self, atom: &Atom, x: &Var, out: &mut Vec<Rewrite>) {
        // Rule 12: bind to each super-property and rewrite as rule 4 would
        // rewrite `s p o`.
        for &sup in self.closure.subproperties.keys() {
            self.emit_descendants(Hierarchy::Property, sup, |p| {
                out.push(Rewrite {
                    atom: Atom::new(atom.s.clone(), p, atom.o.clone()),
                    bindings: vec![(x.clone(), sup)],
                    rule: RuleId::R12,
                })
            });
        }
        // Rule 13: bind to built-ins with non-trivial entailments; the
        // bound atom is then rewritten once more by rules 1–11. The unbound
        // original atom already matches all *explicit* triples, so only
        // built-ins that can entail something are worth binding.
        let mut candidates: Vec<TermId> = Vec::new();
        if !self.closure.subclasses.is_empty()
            || !self.closure.domains.is_empty()
            || !self.closure.ranges.is_empty()
        {
            candidates.push(ID_RDF_TYPE);
        }
        if !self.closure.subclasses.is_empty() {
            candidates.push(ID_RDFS_SUBCLASSOF);
        }
        if !self.closure.subproperties.is_empty() {
            candidates.push(ID_RDFS_SUBPROPERTYOF);
            // Entailed domain/range pairs exist only with declared ones.
            if !self.schema.domain.is_empty() {
                candidates.push(ID_RDFS_DOMAIN);
            }
            if !self.schema.range.is_empty() {
                candidates.push(ID_RDFS_RANGE);
            }
        }
        for builtin in candidates {
            out.push(Rewrite {
                atom: Atom::new(atom.s.clone(), builtin, atom.o.clone()),
                bindings: vec![(x.clone(), builtin)],
                rule: RuleId::R13,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfref_model::{Dictionary, Term};

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    /// Book ⊑ Publication; writtenBy ⊑ hasAuthor; domain(writtenBy)=Book;
    /// range(writtenBy)=Person.
    fn setup() -> (Dictionary, Schema, Vec<TermId>) {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = ["Book", "Publication", "writtenBy", "hasAuthor", "Person"]
            .iter()
            .map(|n| d.intern(&Term::iri(*n)))
            .collect();
        let mut s = Schema::new();
        s.add_subclass(ids[0], ids[1]);
        s.add_subproperty(ids[2], ids[3]);
        s.add_domain(ids[2], ids[0]);
        s.add_range(ids[2], ids[4]);
        (d, s, ids)
    }

    fn rewrites(atom: Atom) -> Vec<Rewrite> {
        let (_, s, _) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let fresh = Var::fresh(0);
        ctx.rewrite_atom(&atom, &fresh)
    }

    #[test]
    fn rule_1_2_3_on_constant_class() {
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let fresh = Var::fresh(0);
        // (x τ Publication): R1 → (x τ Book); R2 → (x writtenBy f)
        // (domain of writtenBy is Book ⊑ Publication, so effective).
        let rws = ctx.rewrite_atom(&Atom::new(v("x"), ID_RDF_TYPE, ids[1]), &fresh);
        assert!(rws
            .iter()
            .any(|r| r.rule == RuleId::R1 && r.atom == Atom::new(v("x"), ID_RDF_TYPE, ids[0])));
        assert!(rws
            .iter()
            .any(|r| r.rule == RuleId::R2 && r.atom.p == PTerm::Const(ids[2])));
        // (x τ Person): R3 → (f writtenBy x).
        let rws = ctx.rewrite_atom(&Atom::new(v("x"), ID_RDF_TYPE, ids[4]), &fresh);
        assert!(rws
            .iter()
            .any(|r| r.rule == RuleId::R3 && r.atom.o == PTerm::Var(v("x"))));
    }

    #[test]
    fn rule_4_on_property_assertion() {
        let (_, _, ids) = setup();
        let rws = rewrites(Atom::new(v("x"), ids[3], v("y")));
        assert_eq!(rws.len(), 1);
        assert_eq!(rws[0].rule, RuleId::R4);
        assert_eq!(rws[0].atom, Atom::new(v("x"), ids[2], v("y")));
        // No rewrites for a leaf property.
        assert!(rewrites(Atom::new(v("x"), ids[2], v("y"))).is_empty());
    }

    #[test]
    fn rules_9_10_11_bind_the_class_variable() {
        let (_, _, ids) = setup();
        let rws = rewrites(Atom::new(v("x"), ID_RDF_TYPE, v("u")));
        // R9 binds u↦Publication with atom (x τ Book).
        assert!(rws.iter().any(|r| r.rule == RuleId::R9
            && r.bindings == vec![(v("u"), ids[1])]
            && r.atom == Atom::new(v("x"), ID_RDF_TYPE, ids[0])));
        // R10 binds u↦Book and u↦Publication (effective domains).
        let r10_classes: Vec<TermId> = rws
            .iter()
            .filter(|r| r.rule == RuleId::R10)
            .map(|r| r.bindings[0].1)
            .collect();
        assert!(r10_classes.contains(&ids[0]) && r10_classes.contains(&ids[1]));
        // R11 binds u↦Person.
        assert!(rws
            .iter()
            .any(|r| r.rule == RuleId::R11 && r.bindings[0].1 == ids[4]));
    }

    #[test]
    fn rule_12_and_13_bind_the_property_variable() {
        let (_, _, ids) = setup();
        let rws = rewrites(Atom::new(v("x"), v("p"), v("y")));
        // R12: p↦hasAuthor with atom (x writtenBy y).
        assert!(rws.iter().any(|r| r.rule == RuleId::R12
            && r.bindings == vec![(v("p"), ids[3])]
            && r.atom == Atom::new(v("x"), ids[2], v("y"))));
        // R13: binds p to rdf:type (entailments exist).
        assert!(rws
            .iter()
            .any(|r| r.rule == RuleId::R13 && r.bindings[0].1 == ID_RDF_TYPE));
    }

    #[test]
    fn rule_5_unfolds_subclass_queries() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("A"));
        let b = d.intern(&Term::iri("B"));
        let c = d.intern(&Term::iri("C"));
        let mut s = Schema::new();
        s.add_subclass(a, b);
        s.add_subclass(b, c);
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let fresh = Var::fresh(0);
        // (x ≺sc C): rewrites to (x ≺sc A) and (x ≺sc B).
        let rws = ctx.rewrite_atom(&Atom::new(v("x"), ID_RDFS_SUBCLASSOF, c), &fresh);
        let mids: Vec<TermId> = rws.iter().map(|r| r.atom.o.as_const().unwrap()).collect();
        assert!(mids.contains(&a) && mids.contains(&b));
        assert!(rws.iter().all(|r| r.rule == RuleId::R5));
        // (x ≺sc y): binds y over closure pairs.
        let rws = ctx.rewrite_atom(&Atom::new(v("x"), ID_RDFS_SUBCLASSOF, v("y")), &fresh);
        assert_eq!(rws.iter().filter(|r| r.rule == RuleId::R5).count(), 3); // (A,B),(A,C),(B,C)
    }

    #[test]
    fn rule_7_enumerates_entailed_domains_with_witness() {
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let fresh = Var::fresh(0);
        // (p ←d c) with both vars: entailed pairs are
        // (writtenBy, Book) [declared — skipped as identity],
        // (writtenBy, Publication).
        let rws = ctx.rewrite_atom(&Atom::new(v("p"), ID_RDFS_DOMAIN, v("c")), &fresh);
        assert_eq!(rws.len(), 1);
        let r = &rws[0];
        assert_eq!(r.rule, RuleId::R7);
        assert_eq!(r.bindings, vec![(v("p"), ids[2]), (v("c"), ids[1])]);
        // Witness atom is the declared constraint.
        assert_eq!(r.atom, Atom::new(ids[2], ID_RDFS_DOMAIN, ids[0]));
    }

    #[test]
    fn rule_6_unfolds_subproperty_queries() {
        let mut d = Dictionary::new();
        let p1 = d.intern(&Term::iri("p1"));
        let p2 = d.intern(&Term::iri("p2"));
        let p3 = d.intern(&Term::iri("p3"));
        let mut s = Schema::new();
        s.add_subproperty(p1, p2);
        s.add_subproperty(p2, p3);
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let fresh = Var::fresh(0);
        // (x ≺sp p3): rewrites to (x ≺sp p1) and (x ≺sp p2).
        let rws = ctx.rewrite_atom(&Atom::new(v("x"), ID_RDFS_SUBPROPERTYOF, p3), &fresh);
        assert_eq!(rws.len(), 2);
        assert!(rws.iter().all(|r| r.rule == RuleId::R6));
        let mids: Vec<TermId> = rws.iter().map(|r| r.atom.o.as_const().unwrap()).collect();
        assert!(mids.contains(&p1) && mids.contains(&p2));
        // Variable object binds over the closure pairs: (p1,p2),(p1,p3),(p2,p3).
        let rws = ctx.rewrite_atom(&Atom::new(v("x"), ID_RDFS_SUBPROPERTYOF, v("y")), &fresh);
        assert_eq!(rws.iter().filter(|r| r.rule == RuleId::R6).count(), 3);
    }

    #[test]
    fn rule_8_enumerates_entailed_ranges_with_witness() {
        let (_, s, ids) = setup();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let fresh = Var::fresh(0);
        // Declared: range(writtenBy) = Person; Person has no superclass, so
        // the only closure pair is the declared one — no non-identity
        // rewrites.
        let rws = ctx.rewrite_atom(&Atom::new(v("p"), ID_RDFS_RANGE, v("c")), &fresh);
        assert!(rws.is_empty());
        // Add Person ⊑ Agent: now (writtenBy, Agent) is entailed, with the
        // declared triple as witness.
        let mut d = Dictionary::new();
        for n in ["Book", "Publication", "writtenBy", "hasAuthor", "Person"] {
            d.intern(&Term::iri(n));
        }
        let agent = d.intern(&Term::iri("Agent"));
        let mut s2 = s.clone();
        s2.add_subclass(ids[4], agent);
        let cl2 = s2.closure();
        let ctx2 = RewriteContext::new(&s2, &cl2);
        let rws = ctx2.rewrite_atom(&Atom::new(v("p"), ID_RDFS_RANGE, v("c")), &fresh);
        assert_eq!(rws.len(), 1);
        assert_eq!(rws[0].rule, RuleId::R8);
        assert_eq!(rws[0].bindings, vec![(v("p"), ids[2]), (v("c"), agent)]);
        assert_eq!(rws[0].atom, Atom::new(ids[2], ID_RDFS_RANGE, ids[4]));
    }

    #[test]
    fn an_encoder_turns_each_maximal_covered_subtree_into_one_interval() {
        // C ⊑ D and C ⊑ F, C's children K1, K2. C's subtree is an interval;
        // F's is not (C hangs under D, its smaller parent).
        let mut d = Dictionary::new();
        let [dd, f, c, k1, k2] = ["D", "F", "C", "K1", "K2"].map(|n| d.intern(&Term::iri(n)));
        let mut s = Schema::new();
        for (sub, sup) in [(c, dd), (c, f), (k1, c), (k2, c)] {
            s.add_subclass(sub, sup);
        }
        let cl = s.closure();
        let enc = HierarchyEncoder::build(&s, &cl, d.len());
        let c_range = enc.class_range(c).unwrap();
        assert!(enc.class_range(f).is_none());
        let bound_to_f = |ctx: &RewriteContext<'_>| -> Vec<PTerm> {
            let rws = ctx.rewrite_atom(&Atom::new(v("x"), ID_RDF_TYPE, v("u")), &Var::fresh(0));
            let to_f = rws.into_iter().filter(|r| r.bindings == vec![(v("u"), f)]);
            to_f.map(|r| r.atom.o).collect()
        };
        let classic = RewriteContext::new(&s, &cl);
        assert_eq!(bound_to_f(&classic).len(), 3);
        let interval = RewriteContext::new(&s, &cl).with_encoder(&enc);
        assert_eq!(
            bound_to_f(&interval),
            vec![PTerm::Range(c_range.0, c_range.1)]
        );
        // Rule 1 on the constant F is the same family.
        let rws = interval.rewrite_atom(&Atom::new(v("x"), ID_RDF_TYPE, f), &Var::fresh(0));
        let objects: Vec<PTerm> = rws.into_iter().map(|r| r.atom.o).collect();
        assert_eq!(objects, vec![PTerm::Range(c_range.0, c_range.1)]);
    }

    #[test]
    fn no_rewrites_with_empty_schema() {
        let s = Schema::new();
        let cl = s.closure();
        let ctx = RewriteContext::new(&s, &cl);
        let fresh = Var::fresh(0);
        for atom in [
            Atom::new(v("x"), ID_RDF_TYPE, v("u")),
            Atom::new(v("x"), v("p"), v("y")),
            Atom::new(v("x"), ID_RDFS_SUBCLASSOF, v("y")),
        ] {
            assert!(
                ctx.rewrite_atom(&atom, &fresh).is_empty(),
                "unexpected rewrites for {atom:?}"
            );
        }
    }
}
