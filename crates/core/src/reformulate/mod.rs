//! Query reformulation: CQ → UCQ / SCQ / JUCQ.
//!
//! Reformulation answers a query `q` against a **non-saturated** graph by
//! compiling the RDFS constraints into the query:
//! `q(G∞) = qref(G)` (§3.1 of the paper).
//!
//! * [`rules`] — the 13 single-step rewriting rules w.r.t. the schema
//!   closure;
//! * [`ucq`] — the exhaustive fixpoint producing the classic UCQ
//!   reformulation, with canonical deduplication and a size limit, then
//!   minimised (subsumed disjuncts dropped, survivors cored);
//! * [`jucq`] — cover-induced JUCQ reformulations, including the SCQ special
//!   case ([`reformulate_scq`]) and the one-fragment case (≡ UCQ).

pub mod jucq;
pub mod rules;
pub mod ucq;

pub use jucq::{reformulate_jucq, reformulate_scq};
pub use rules::{RewriteContext, RuleId};
pub use ucq::{reformulate_ucq, reformulate_ucq_raw, ucq_size_product, ReformulationLimits};
