//! The sync primitives `core` and `storage` import: plain re-exports of
//! the poison-free [`Mutex`] and of `std::sync` / `std::thread`.
//!
//! The crate adds no code of its own. It stays a separate crate because the
//! frozen benchmark's lockfile (`crates/bench/src/bin/benchmark/Cargo.lock`)
//! records the edges `rdfref-core`/`rdfref-storage` → `rdfref-sync` →
//! `parking_lot`.

pub use parking_lot::Mutex;
pub use std::sync::{atomic, mpsc, Arc, OnceLock};
pub use std::thread;
