//! `interleave` — an offline, dependency-free, loom-style deterministic
//! schedule explorer.
//!
//! The build container has no crates.io access, so `loom`, `miri` and
//! ThreadSanitizer are unavailable — yet the repo's correctness rests on
//! hand-rolled unsafe concurrency (`simcore::spsc`, `EpochBarrier`, the
//! epoch protocol in `engine::parallel`). This shim makes those
//! primitives *model-checkable* in the same spirit as the offline
//! `proptest` shim: API-compatible types, no behavioral
//! surprises in real builds, and a checker that actually explores
//! interleavings in test builds.
//!
//! # Use
//!
//! Code under test imports its atomics/cells/locks from a facade (the
//! repo's is [`simcore::sync`]) that re-exports `std` in real builds and
//! this crate's [`sync`] module under `cfg(feature =
//! "interleave-check")`. Tests then wrap a closure in a [`Checker`]:
//!
//! ```
//! use interleave::{thread, Checker};
//! use interleave::sync::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let report = Checker::new().run(|| {
//!     let a = Arc::new(AtomicU64::new(0));
//!     let b = Arc::clone(&a);
//!     let t = thread::spawn(move || b.store(1, Ordering::Release));
//!     let _ = a.load(Ordering::Acquire);
//!     t.join().unwrap();
//! });
//! assert!(report.violation.is_none());
//! assert!(report.schedules > 1);
//! ```
//!
//! The closure runs once per explored schedule; panics inside it, data
//! races on [`sync::UnsafeCell`], deadlocks and livelocks are reported
//! as [`Violation`]s with an operation trace. See the `rt` module docs
//! for the exploration strategies and the memory-model approximation,
//! and `simcore::sync` for what the model can and cannot catch.
//!
//! [`simcore::sync`]: ../simcore/sync/index.html

#![deny(clippy::undocumented_unsafe_blocks)]

mod rt;
mod vclock;

pub mod rng;
pub mod sync;
pub mod thread;

pub use rng::DetRng;
pub use rt::{model, Checker, Report, Violation, ViolationKind};

/// Spin-loop hint: in the model this must hand the schedule to another
/// thread (a modeled spin would livelock the explored execution); in
/// fallback mode it is a plain `std::hint::spin_loop`.
pub mod hint {
    /// See the module docs.
    pub fn spin_loop() {
        if crate::rt::in_model() {
            crate::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}
