//! `streamflow` — a from-scratch stateful stream-processing engine running
//! on a deterministic discrete-event simulator.
//!
//! This crate is the substrate for the DRRS reproduction (ICDE 2025,
//! "Towards Fine-Grained Scalability for Stateful Stream Processing
//! Systems"). It models the parts of Apache Flink that rescaling mechanisms
//! interact with:
//!
//! * a job DAG of operators with parallel instances ([`graph`], [`instance`]),
//! * keyed state partitioned into key-groups with per-predecessor routing
//!   tables ([`state`], [`keygroup`]),
//! * bounded credit-based channels whose backpressure propagates to the
//!   sources ([`channel`]),
//! * event-time watermarks, sliding windows and aligned checkpoints
//!   ([`operator`], [`window`]),
//! * migration links with serialization + bandwidth costs, suspension
//!   accounting and the scaling-plugin API every mechanism implements
//!   ([`scaling`]),
//! * latency / throughput / suspension measurement and the paper's
//!   scaling-period detector ([`metrics`]),
//! * an execution-order semantics checker ([`semantics`]), and
//! * an in-flight event/metrics bus: one append-only, time-ordered event
//!   log behind a `Null` (off) or `Mem` sink ([`bus`]).
//!
//! # Quick start
//!
//! ```
//! use streamflow::config::EngineConfig;
//! use streamflow::graph::{EdgeKind, JobBuilder};
//! use streamflow::operator::KeyedAgg;
//! use streamflow::scaling::NoScale;
//! use streamflow::world::tests_support::FixedGen;
//! use streamflow::world::Sim;
//!
//! let mut b = JobBuilder::new(EngineConfig::test());
//! let src = b.source("src", 1, Box::new(|_| Box::new(FixedGen::new(1000.0, 64))));
//! let agg = b.operator("agg", 2, Box::new(|| Box::new(KeyedAgg {
//!     service: 50, bytes_per_key: 1000, bytes_per_record: 0, emit_every: 1,
//! })));
//! let sink = b.sink("sink", 1);
//! b.connect(src, agg, EdgeKind::Keyed);
//! b.connect(agg, sink, EdgeKind::Rebalance);
//! let mut sim = Sim::new(b.build(), Box::new(NoScale));
//! sim.run_until(simcore::time::secs(2));
//! assert!(sim.world.metrics.sink_records > 0);
//! ```

pub mod bus;
pub mod channel;
pub mod config;
pub mod events;
pub mod graph;
pub mod ids;
pub mod instance;
pub mod keygroup;
pub mod metrics;
pub mod operator;
pub mod parallel;
pub mod record;
pub mod region;
pub mod scaling;
pub mod semantics;
pub mod state;
pub mod window;
pub mod world;

pub use bus::{Bus, BusEvent, BusEventKind, BusSinkKind, BusSummary};
pub use config::{ConfigError, EngineConfig};
pub use graph::{EdgeKind, JobBuilder};
pub use ids::{InstId, Key, KeyGroup, OpId, SubscaleId};
pub use parallel::{run_parallel, ParallelReport};
pub use record::{Record, ScaleSignal, SignalKind, StreamElement};
pub use region::RegionMap;
pub use scaling::{NoScale, ScalePlan, ScalePlugin, Selection};
pub use world::{Observables, Sim, World};
