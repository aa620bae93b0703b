//! The workspace's **sync facade**.
//!
//! Every sync primitive that participates in the snapshot
//! publication protocol (and everything near it in `core`/`storage`) is
//! imported from here instead of from `std::sync`/`parking_lot`:
//!
//! * in normal builds this module is nothing but re-exports — zero cost,
//!   type-identical to the primitives it replaces (compile-tested below);
//! * with the `model-check` feature, the same names resolve to the
//!   instrumented shims from `rdfref-modelcheck`, making every atomic,
//!   lock, channel and spawn/join a deterministic-scheduler yield point.
//!
//! `tests/modelcheck_isolation.rs`
//! (`engine_crates_reach_sync_primitives_through_the_facade`) enforces that
//! `core`/`storage` code reaches sync primitives only through this facade,
//! so nothing the model checker cannot see creeps back in.
//!
//! Deliberately *not* shimmed, in both modes: [`Arc`] (refcounts carry no
//! protocol state), [`OnceLock`] (init-once, no ordering choice to
//! explore), and [`thread::scope`]/[`thread::available_parallelism`]
//! (morsel worker pools are outside the modeled protocol — model
//! scenarios must not drive them).

#[cfg(not(feature = "model-check"))]
mod imp {
    pub use parking_lot::Mutex;

    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }

    pub mod mpsc {
        pub use std::sync::mpsc::{channel, Receiver, RecvError, SendError, Sender, TryRecvError};
    }

    pub mod thread {
        pub use std::thread::{available_parallelism, scope, spawn, Builder, JoinHandle};
    }
}

#[cfg(feature = "model-check")]
mod imp {
    pub use rdfref_modelcheck::shim::Mutex;

    pub mod atomic {
        pub use rdfref_modelcheck::shim::{AtomicBool, AtomicU64, AtomicUsize};
        pub use std::sync::atomic::Ordering;
    }

    pub use rdfref_modelcheck::shim::mpsc;

    pub mod thread {
        pub use rdfref_modelcheck::shim::thread::{spawn, Builder, JoinHandle};
        pub use std::thread::{available_parallelism, scope};
    }

    /// The checker itself, for `#[cfg(feature = "model-check")]` protocol
    /// models in dependent crates (they depend only on the facade).
    pub mod modelcheck {
        pub use rdfref_modelcheck::{explore, replay, BugReport, ExploreOptions, Outcome, Stats};
    }
}

pub use imp::*;
pub use std::sync::{Arc, OnceLock};

/// Compile-time pin: in normal builds the facade's types ARE the std /
/// parking_lot types, not lookalikes — a facade that quietly wrapped them
/// would change performance and `Send`/`Sync` fine print.
#[cfg(not(feature = "model-check"))]
mod zero_cost_identity {
    #[allow(dead_code)]
    fn atomic_u64(x: crate::atomic::AtomicU64) -> std::sync::atomic::AtomicU64 {
        x
    }
    #[allow(dead_code)]
    fn atomic_usize(x: crate::atomic::AtomicUsize) -> std::sync::atomic::AtomicUsize {
        x
    }
    #[allow(dead_code)]
    fn atomic_bool(x: crate::atomic::AtomicBool) -> std::sync::atomic::AtomicBool {
        x
    }
    #[allow(dead_code)]
    fn ordering(x: crate::atomic::Ordering) -> std::sync::atomic::Ordering {
        x
    }
    #[allow(dead_code)]
    fn arc(x: crate::Arc<u8>) -> std::sync::Arc<u8> {
        x
    }
    #[allow(dead_code)]
    fn once_lock(x: crate::OnceLock<u8>) -> std::sync::OnceLock<u8> {
        x
    }
    #[allow(dead_code)]
    fn mutex(x: crate::Mutex<u8>) -> parking_lot::Mutex<u8> {
        x
    }
    #[allow(dead_code)]
    fn sender(x: crate::mpsc::Sender<u8>) -> std::sync::mpsc::Sender<u8> {
        x
    }
    #[allow(dead_code)]
    fn receiver(x: crate::mpsc::Receiver<u8>) -> std::sync::mpsc::Receiver<u8> {
        x
    }
    #[allow(dead_code)]
    fn join_handle(x: crate::thread::JoinHandle<u8>) -> std::thread::JoinHandle<u8> {
        x
    }
}

#[cfg(test)]
mod tests {
    /// The facade behaves like the primitives it re-exports (both modes).
    #[test]
    fn facade_round_trip() {
        use crate::atomic::{AtomicU64, Ordering};
        let a = AtomicU64::new(1);
        a.store(2, Ordering::Release);
        assert_eq!(a.load(Ordering::Acquire), 2);
        assert_eq!(a.fetch_add(3, Ordering::Relaxed), 2);

        let m = crate::Mutex::new(10u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 11);

        let (tx, rx) = crate::mpsc::channel();
        let h = crate::thread::spawn(move || tx.send(41u64).unwrap());
        assert_eq!(rx.recv().unwrap(), 41);
        h.join().unwrap();
    }
}
