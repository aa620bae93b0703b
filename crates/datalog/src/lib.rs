//! # rdfref-datalog — the Dat encoding of RDF query answering
//!
//! The demo includes "a simple encoding of the RDF data, constraints and
//! queries into Datalog programs to be evaluated by the LogicBlox engine.
//! This can be viewed as another answering technique **Dat**, an alternative
//! to Ref and Sat" (§5).
//!
//! This crate is the encoding. Every predicate of the program is ternary
//! over triples, so every rule is a conjunctive query over triple patterns:
//!
//! * the EDB `triple(s, p, o)` is the explicit store;
//! * the IDB `tc(s, p, o)` ("triple closure") is defined by the copy rule
//!   `tc ⊇ triple` plus the RDFS rules of the DB fragment — the data-tier
//!   rules (rdfs2/3/7/9) and the schema-tier rules (transitivity,
//!   domain/range propagation) — so `tc` coincides with `G∞`. The copy rule
//!   is the identity; the other ten are [`closure_rules`];
//! * the query rule `q(x̄) :- tc(t1), …, tc(tα)` is the input CQ itself, its
//!   triple patterns read as `tc` atoms.
//!
//! `rdfref-core` evaluates the program on the store: semi-naive rounds of
//! the evaluator's joins close `tc`, then the query runs over it once. Dat
//! so derives the whole closure at query time — a saturation-like cost per
//! query, without Sat's storage or maintenance.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::dbg_macro
)]

use rdfref_model::dictionary::{
    ID_RDFS_DOMAIN as DOM, ID_RDFS_RANGE as RNG, ID_RDFS_SUBCLASSOF as SC,
    ID_RDFS_SUBPROPERTYOF as SP, ID_RDF_TYPE as TY,
};
use rdfref_query::ast::{Atom, Cq, PTerm};
use rdfref_query::Var;

/// The ten RDFS closure rules of the DB fragment. Each is a two-atom [`Cq`]
/// over `tc` whose body is the rule's premises and whose head is the triple
/// pattern it derives; every head variable occurs in the body. Constants are
/// built-in vocabulary ids, which every store encoding keeps in place.
pub fn closure_rules() -> Vec<Cq> {
    let v = |name: &str| PTerm::Var(Var::new(name));
    let k = PTerm::Const;
    let rule = |head: [PTerm; 3], first: [PTerm; 3], second: [PTerm; 3]| {
        let atom = |[s, p, o]: [PTerm; 3]| Atom::new(s, p, o);
        Cq::new_unchecked(head.into(), vec![atom(first), atom(second)])
    };
    vec![
        // rdfs9: s τ c1, c1 ≺sc c2 → s τ c2.
        rule(
            [v("s"), k(TY), v("c2")],
            [v("s"), k(TY), v("c1")],
            [v("c1"), k(SC), v("c2")],
        ),
        // rdfs7: s p o, p ≺sp q → s q o.
        rule(
            [v("s"), v("q"), v("o")],
            [v("s"), v("p"), v("o")],
            [v("p"), k(SP), v("q")],
        ),
        // rdfs2: s p o, p ←d c → s τ c.
        rule(
            [v("s"), k(TY), v("c")],
            [v("s"), v("p"), v("o")],
            [v("p"), k(DOM), v("c")],
        ),
        // rdfs3: s p o, p ↪r c → o τ c.
        rule(
            [v("o"), k(TY), v("c")],
            [v("s"), v("p"), v("o")],
            [v("p"), k(RNG), v("c")],
        ),
        // rdfs11: subclass transitivity (for schema-position queries).
        rule(
            [v("a"), k(SC), v("c")],
            [v("a"), k(SC), v("b")],
            [v("b"), k(SC), v("c")],
        ),
        // rdfs5: subproperty transitivity.
        rule(
            [v("a"), k(SP), v("c")],
            [v("a"), k(SP), v("b")],
            [v("b"), k(SP), v("c")],
        ),
        // ext-d↑: p ←d c1, c1 ≺sc c2 → p ←d c2.
        rule(
            [v("p"), k(DOM), v("c2")],
            [v("p"), k(DOM), v("c1")],
            [v("c1"), k(SC), v("c2")],
        ),
        // ext-r↑.
        rule(
            [v("p"), k(RNG), v("c2")],
            [v("p"), k(RNG), v("c1")],
            [v("c1"), k(SC), v("c2")],
        ),
        // ext-d↓: p1 ≺sp p2, p2 ←d c → p1 ←d c.
        rule(
            [v("p1"), k(DOM), v("c")],
            [v("p1"), k(SP), v("p2")],
            [v("p2"), k(DOM), v("c")],
        ),
        // ext-r↓.
        rule(
            [v("p1"), k(RNG), v("c")],
            [v("p1"), k(SP), v("p2")],
            [v("p2"), k(RNG), v("c")],
        ),
    ]
}
