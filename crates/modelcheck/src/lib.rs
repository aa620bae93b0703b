//! Deterministic schedule-exploring model checker for the workspace's
//! publication protocols (loom-style, self-contained).
//!
//! The pieces:
//!
//! * [`runtime`] — a cooperative scheduler over real OS threads: exactly one
//!   model thread is runnable at a time, and every instrumented sync
//!   operation is a *yield point* where the scheduler may switch threads.
//!   Which thread runs next is a recorded *choice*; an execution is fully
//!   described by its choice vector, which makes every run replayable.
//! * [`shim`] — instrumented drop-ins for `AtomicU64`/`AtomicUsize`/
//!   `AtomicBool`, a parking_lot-style `Mutex`, `mpsc` channels and
//!   `thread::spawn`/`join`. Outside a model execution they pass straight
//!   through to the real primitives, so the same binary can run normal
//!   tests and model tests.
//! * [`mod@explore`] — the drivers: bounded-exhaustive DFS over schedules with
//!   a preemption bound, seeded-random deep runs, and single-schedule
//!   replay from a recorded choice vector.
//!
//! Atomics are modeled with a per-location *store history* plus vector
//! clocks, so `Relaxed` loads may legally return stale values and ordering
//! bugs — not just timing bugs — are observable. See `DESIGN.md` §5d for
//! the memory-model approximation and its limits.

mod clock;
pub mod explore;
pub mod runtime;
pub mod shim;

pub use explore::{explore, replay, BugReport, ExploreOptions, Outcome, Stats};
pub use shim::thread::{spawn, JoinHandle};
