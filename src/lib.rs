//! `drrs-repro` — umbrella crate for the DRRS reproduction.
//!
//! Re-exports the workspace crates so that examples and integration tests
//! can `use drrs_repro::...` a single coherent API:
//!
//! * [`engine`] — the `streamflow` stream-processing substrate,
//! * [`drrs`] — the paper's mechanism (Decoupling & Re-routing, Record
//!   Scheduling, Subscale Division),
//! * [`baselines`] — Megaphone, Meces, generalized OTFS, Unbound,
//!   Stop-Checkpoint-Restart,
//! * [`workloads`] — NEXMark Q7/Q8, the Twitch pipeline, and the custom
//!   3-operator sensitivity workload,
//! * [`sim`] — the deterministic simulation kernel,
//! * [`bench`](mod@bench) — the experiment harness: the scenario registry, the grid
//!   runner and typed run reports (`bench::scenario`).
//!
//! For the common case, [`prelude`] pulls the whole working set into scope
//! with one `use`:
//!
//! ```no_run
//! use drrs_repro::prelude::*;
//! ```

pub use ::bench;
pub use baselines;
pub use drrs_core as drrs;
pub use simcore as sim;
pub use streamflow as engine;
pub use workloads;

/// The working set for building, scaling and measuring a job — one `use`
/// instead of five nested paths.
///
/// Covers: job construction (`JobBuilder`, `EdgeKind`, operators, sources),
/// engine configuration and driving (`EngineConfig`, `Sim`, `World`), the
/// mechanisms (`FlexScaler`, `MechanismConfig`, the baselines), the
/// workloads, timing helpers, and the experiment API (`ScenarioSpec`,
/// `registry`, `run_all`, `RunReport`).
pub mod prelude {
    pub use baselines::{megaphone, otfs_fluid, MecesPlugin, StopRestartPlugin, UnboundPlugin};
    pub use bench::scenario::{
        registry, run_all, EngineProfile, MechanismSpec, RunReport, ScaleSpec, ScenarioSpec,
        WorkloadSpec,
    };
    pub use drrs_core::{FlexScaler, MechanismConfig};
    pub use simcore::time::{as_ms, as_secs, ms, secs, SimTime};
    pub use simcore::{DetRng, Zipf};
    pub use streamflow::graph::{EdgeKind, JobBuilder};
    pub use streamflow::instance::SourceGen;
    pub use streamflow::operator::{
        KeyedAgg, KeyedTouch, ReKeyByValue, Relay, WindowAgg, WindowJoin,
    };
    pub use streamflow::window::Agg;
    pub use streamflow::world::Sim;
    pub use streamflow::{EngineConfig, NoScale, OpId, ScalePlugin, World};
    pub use workloads::custom::{cluster_engine_config, custom, CustomParams};
    pub use workloads::nexmark::{nexmark_engine_config, q7, q8, Q7Params, Q8Params};
    pub use workloads::twitch::{twitch, twitch_engine_config, TwitchParams};
}
