//! Query reformulation: CQ → UCQ / SCQ / JUCQ.
//!
//! Reformulation answers a query `q` against a **non-saturated** graph by
//! compiling the RDFS constraints into the query:
//! `q(G∞) = qref(G)` (§3.1 of the paper).
//!
//! * [`rules`] — the 13 single-step rewriting rules w.r.t. the schema
//!   closure;
//! * [`ucq`] — the classic UCQ reformulation, built as the product of
//!   one-step atom unions under a size limit and then minimised (subsumed
//!   disjuncts dropped, survivors cored); the exhaustive rule fixpoint stays
//!   as the paper's size and the oracle;
//! * [`jucq`] — cover-induced JUCQ reformulations, including the SCQ special
//!   case ([`reformulate_scq`]) and the one-fragment case (≡ UCQ), through a
//!   per-request cache of atom and fragment unions that GCov shares.

pub mod jucq;
pub mod rules;
pub mod ucq;

pub use jucq::{reformulate_jucq, reformulate_scq};
pub use rules::{RewriteContext, RuleId};
pub use ucq::{reformulate_ucq, reformulate_ucq_raw, ucq_size_product, ReformulationLimits};
