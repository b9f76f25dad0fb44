//! `simcore` — a deterministic discrete-event simulation kernel.
//!
//! This crate provides the building blocks the `streamflow` engine runs on:
//!
//! * [`SimTime`] / [`time`] — simulated time in microseconds with helpers,
//! * [`FutureEventList`] — a monotonic future-event list with stable FIFO
//!   ordering among same-timestamp events, stored in a binary heap keyed
//!   `(at, seq)` (one per [`region`] under PDES),
//! * [`KeyMap`] — a dense open-addressing `u64 → V` table with inline
//!   slots, any capacity and no removal: the keyed state backend's
//!   per-sub-group table (see [`keymap`]),
//! * [`rng`] — a seedable deterministic random source plus a Zipf sampler
//!   (used by workload generators; `rand_distr` is not vendored offline, so
//!   the Zipf sampler is implemented here),
//! * [`stats`] — time series and summary statistics used by the
//!   experiment harnesses.
//!
//! Everything is single-threaded and fully deterministic given a seed, which
//! is what makes the paper's latency/suspension measurements reproducible
//! down to the microsecond.

pub mod hash;
pub mod keymap;
pub mod queue;
pub mod region;
pub mod rng;
pub mod slab;
pub mod spsc;
pub mod stats;
pub mod sync;
pub mod time;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use keymap::KeyMap;
pub use queue::FutureEventList;
pub use region::{RegionScheduler, SyncStats};
pub use rng::{DetRng, Zipf};
pub use slab::{Slab, SlabRef};
pub use stats::{Summary, TimeSeries};
pub use time::{SimTime, GIGA, MICROS_PER_MS, MICROS_PER_SEC};
