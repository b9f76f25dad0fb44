//! `bench::scenario` — the unified experiment API: **spec → registry →
//! run → report**.
//!
//! The paper's evaluation is a grid of scenarios (workload × mechanism ×
//! scale plan × seed). This module makes that shape first-class:
//!
//! * [`ScenarioSpec`] — a declarative, nameable description of **one run**:
//!   workload parameters, mechanism, scale plan, horizon, seed, and the
//!   PDES partition (`regions`, `resume_latency`). Specs are plain data (`Clone` +
//!   `PartialEq`), so a run is identified by its name and reconstructible
//!   anywhere.
//! * [`registry`] — the central catalog naming every run used in the repo:
//!   the eight `perf/` scenarios, every fig02–fig15 row, and the
//!   ablation cells. Binaries pull specs from here (or, in `drrs_sim`,
//!   build one from flags) instead of hand-assembling `(World, OpId)` pairs.
//! * [`run_all`] — executes a grid of specs deterministically on
//!   [`crate::parallel_map`] (one single-threaded sim per worker thread,
//!   canonical-order join).
//! * [`figures`] — the paper's figures, each a registry plan that renders
//!   itself from its grid's reports (`scenario --figure NAME`).
//! * [`RunReport`] — the typed result of one run: the deterministic
//!   metrics digest, the sink-content hash, the latency/throughput/
//!   suspension series, Lp/Ld, suspension, migration progress.
//! * [`golden`] — the pin store: one row format for every pinned run
//!   ([`registry::Pinned`]), the one function that checks a build against
//!   it and the one that rewrites it (`scenario --bless`).
//!
//! # Determinism contract
//!
//! Building a spec twice yields byte-identical simulations: every field of
//! [`ScenarioSpec`] is plain data and the engine seed is part of the spec.
//! Consequently:
//!
//! * the same spec run twice produces `==` [`RunReport`]s (a report holds
//!   no wall-clock field);
//! * [`run_all`] returns the same reports in the same order whatever the
//!   worker count — a worker only decides *which thread* runs a cell,
//!   never what the cell computes — so a figure renders byte-identically
//!   at every `--threads N`.

pub mod figures;
pub mod golden;
pub mod registry;
pub mod report;

pub use report::RunReport;

use baselines::{MecesPlugin, StopRestartPlugin, UnboundPlugin};
use drrs_core::{FlexScaler, MechanismConfig};
use simcore::time::SimTime;
use streamflow::world::tests_support::{tiny_job, twin_jobs};
use streamflow::world::Sim;
use streamflow::{BusEvent, BusSinkKind, EngineConfig, NoScale, OpId, ScalePlugin, World};
use workloads::custom::{cluster_engine_config, custom, CustomParams};
use workloads::nexmark::{nexmark_engine_config, q7, q8, Q7Params, Q8Params};
use workloads::twitch::{twitch, twitch_engine_config, TwitchParams};

/// Which engine-configuration family a scenario runs on. Profiles are the
/// deployment shapes the paper uses; the seed rides on the spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineProfile {
    /// `EngineConfig::test()` with 128 key-groups — the profile of the
    /// `perf/` group, whose digests the pin store holds.
    Perf,
    /// The paper's single-machine NEXMark deployment (128 key-groups).
    Nexmark,
    /// The Twitch pipeline deployment (128 key-groups).
    Twitch,
    /// The Swarm-cluster sensitivity deployment (256 key-groups).
    Cluster,
}

/// The workload half of a scenario: which job to build, from serializable
/// parameters only.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// The tiny source → keyed-agg → sink job used by the perf scenarios
    /// and the determinism tests.
    TinyJob {
        /// Source rate, records/second.
        rate: f64,
        /// Key universe size.
        universe: u64,
        /// Aggregator parallelism.
        par: usize,
    },
    /// NEXMark Q7 (sliding-window max).
    Q7(Q7Params),
    /// NEXMark Q8 (windowed person⋈auction join).
    Q8(Q8Params),
    /// The seven-operator Twitch pipeline.
    Twitch(TwitchParams),
    /// The custom 3-operator sensitivity workload.
    Custom(CustomParams),
    /// `pipes` disjoint copies of the tiny job side by side. The operator
    /// graph has no edges between the copies, so a region partitioner puts
    /// them in different regions with zero cut channels and infinite
    /// lookahead — the best case for region-partitioned execution.
    TwinPipes {
        /// Source rate per pipeline, records/second.
        rate: f64,
        /// Key universe size.
        universe: u64,
        /// Aggregator parallelism per pipeline.
        par: usize,
        /// Number of disjoint pipelines.
        pipes: usize,
    },
}

/// The mechanism half of a scenario: which rescaling plugin drives the run.
#[derive(Clone, Debug, PartialEq)]
pub enum MechanismSpec {
    /// No scaling at all.
    NoScale,
    /// Any `FlexScaler` configuration: DRRS and its ablation variants,
    /// Megaphone, OTFS.
    Flex(MechanismConfig),
    /// Meces (fetch-on-demand).
    Meces,
    /// The correctness-free "Unbound" probe from fig. 2.
    Unbound,
    /// Stop the job, move the state, restart.
    StopRestart,
}

impl MechanismSpec {
    /// The mechanism a CLI name selects (`drrs_sim --mechanism NAME`).
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "drrs" => Self::Flex(MechanismConfig::drrs()),
            "dr" => Self::Flex(MechanismConfig::dr_only()),
            "schedule" => Self::Flex(MechanismConfig::schedule_only()),
            "subscale" => Self::Flex(MechanismConfig::subscale_only()),
            "otfs" => Self::Flex(MechanismConfig::otfs_fluid()),
            "megaphone" => Self::Flex(MechanismConfig::megaphone(1)),
            "meces" => Self::Meces,
            "unbound" => Self::Unbound,
            "stop-restart" => Self::StopRestart,
            "none" => Self::NoScale,
            other => return Err(format!("unknown mechanism {other:?}")),
        })
    }

    /// Display label, as the figures print it: the plugin's `name()`,
    /// except `No Scale`.
    pub fn label(&self) -> &'static str {
        match self {
            Self::NoScale => "No Scale",
            Self::Flex(cfg) => cfg.name,
            Self::Meces => "Meces",
            Self::Unbound => "Unbound",
            Self::StopRestart => "Stop-Restart",
        }
    }

    /// Build the scale plugin this spec describes.
    pub fn plugin(&self) -> Box<dyn ScalePlugin> {
        match self {
            Self::NoScale => Box::new(NoScale),
            Self::Flex(cfg) => Box::new(FlexScaler::new(cfg.clone())),
            Self::Meces => Box::new(MecesPlugin::new()),
            Self::Unbound => Box::new(UnboundPlugin::new()),
            Self::StopRestart => Box::new(StopRestartPlugin::new()),
        }
    }
}

/// A requested mid-run scale of the workload's scaling operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaleSpec {
    /// When to request the scale.
    pub at: SimTime,
    /// Target parallelism.
    pub to: usize,
}

/// A declarative, serializable description of one experiment run.
///
/// Everything a run needs is in here; [`ScenarioSpec::run`] is a pure
/// function of the spec. Specs come from
/// [`registry`]; ad-hoc variations are derived with the `with_*` builders
/// so tests and A/B harnesses never re-assemble worlds by hand.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Unique registry name, `group/detail...` (e.g. `perf/steady_50k`).
    pub name: String,
    /// Engine-configuration family.
    pub engine: EngineProfile,
    /// Run the semantics checker (order violations are counted, at a
    /// cost); every profile leaves it off.
    pub check_semantics: bool,
    /// Engine seed (drives every RNG in the run).
    pub seed: u64,
    /// The job to build.
    pub workload: WorkloadSpec,
    /// The rescaling mechanism under test.
    pub mechanism: MechanismSpec,
    /// Optional mid-run scale of the workload's scaling operator.
    pub scale: Option<ScaleSpec>,
    /// How long to run.
    pub horizon: SimTime,
    /// PDES region count (`EngineConfig::regions`; consulted only when
    /// `resume_latency > 0`).
    pub regions: usize,
    /// Cut-channel resume-notice latency, µs (`EngineConfig::resume_latency`).
    /// 0 (the default) is the sequential engine and every historical
    /// digest; a positive value with `regions > 1` engages PDES mode, where
    /// the digest contract becomes *parallel == sequential at the same
    /// `resume_latency`* rather than equality with the 0-latency run.
    pub resume_latency: SimTime,
    /// Which sink the engine's event/metrics bus feeds
    /// (`streamflow::bus`). `Null` (the default) disables the bus; `Mem`
    /// keeps its events for [`ScenarioSpec::run_logged`] (sequential) or
    /// `ParallelReport::bus_events` (threaded) to hand back. Either sink
    /// is digest-neutral by the engine's contract.
    pub bus_sink: BusSinkKind,
}

impl ScenarioSpec {
    /// Does this spec engage PDES mode (a region partition with lookahead)?
    pub fn pdes(&self) -> bool {
        self.regions > 1 && self.resume_latency > 0
    }

    /// A scale plan in PDES mode: the engine cannot execute one
    /// (`start_scale` asserts), so the CLI and the pin store refuse it.
    pub fn scales_under_pdes(&self) -> bool {
        self.scale.is_some() && self.pdes()
    }

    /// Derive a spec with a different scheduler region count.
    pub fn with_regions(mut self, regions: usize) -> Self {
        self.regions = regions;
        self
    }

    /// Derive a spec with a different cut-channel resume latency (µs).
    pub fn with_resume_latency(mut self, resume_latency: SimTime) -> Self {
        self.resume_latency = resume_latency;
        self
    }

    /// Derive a spec with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Derive a spec with a different horizon.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Derive a spec with a different mechanism.
    pub fn with_mechanism(mut self, mechanism: MechanismSpec) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Derive a spec with a different event-bus sink.
    pub fn with_bus_sink(mut self, sink: BusSinkKind) -> Self {
        self.bus_sink = sink;
        self
    }

    /// The engine configuration this spec resolves to.
    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = match self.engine {
            EngineProfile::Perf => EngineConfig {
                max_key_groups: 128,
                ..EngineConfig::test()
            },
            EngineProfile::Nexmark => nexmark_engine_config(self.seed),
            EngineProfile::Twitch => twitch_engine_config(self.seed),
            EngineProfile::Cluster => cluster_engine_config(self.seed),
        };
        cfg.check_semantics = self.check_semantics;
        cfg.seed = self.seed;
        cfg.regions = self.regions;
        cfg.resume_latency = self.resume_latency;
        cfg.bus_sink = self.bus_sink;
        cfg
    }

    /// Build the world and return it with the scaling operator.
    pub fn build_world(&self) -> (World, OpId) {
        let cfg = self.engine_config();
        match &self.workload {
            WorkloadSpec::TinyJob {
                rate,
                universe,
                par,
            } => tiny_job(cfg, *rate, *universe, *par),
            WorkloadSpec::Q7(p) => q7(cfg, p),
            WorkloadSpec::Q8(p) => q8(cfg, p),
            WorkloadSpec::Twitch(p) => twitch(cfg, p),
            WorkloadSpec::Custom(p) => custom(cfg, p),
            WorkloadSpec::TwinPipes {
                rate,
                universe,
                par,
                pipes,
            } => (
                // The scaling operator is the first pipeline's aggregator
                // (operators are minted src0, agg0, sink0, src1, ...).
                twin_jobs(cfg, *rate, *universe, *par, *pipes),
                OpId(1),
            ),
        }
    }

    /// Build the ready-to-run simulation: world built, scale scheduled,
    /// plugin attached. Identical construction order
    /// to the pre-registry binaries (schedule before `Sim::new`), so event
    /// sequence numbers — and therefore digests — are preserved.
    pub fn build_sim(&self) -> (Sim, OpId) {
        let (mut w, op) = self.build_world();
        if let Some(s) = self.scale {
            w.schedule_scale(s.at, op, s.to);
        }
        (Sim::new(w, self.mechanism.plugin()), op)
    }

    /// Execute the spec to completion and harvest a [`RunReport`].
    pub fn run(&self) -> RunReport {
        self.run_logged().0
    }

    /// [`ScenarioSpec::run`], also returning the bus's event log
    /// (empty unless `bus_sink` is `Mem`).
    pub fn run_logged(&self) -> (RunReport, Vec<BusEvent>) {
        let (mut sim, op) = self.build_sim();
        sim.run_until(self.horizon);
        let report = RunReport::harvest(self, &sim, op);
        (report, sim.world.bus.take_log())
    }

    /// Execute the spec on the thread-per-region parallel executor
    /// ([`streamflow::run_parallel`]) and return the merged report. When
    /// the spec is not in PDES mode (`resume_latency == 0` or one region)
    /// this is the sequential engine on the calling thread; either way the
    /// report's digest obeys the *parallel == sequential at the same
    /// config* contract. Scale plans are rejected by the engine in PDES
    /// mode, so sweeps route only `NoScale` scenarios here.
    pub fn run_threaded(&self) -> streamflow::ParallelReport {
        streamflow::run_parallel(|| self.build_sim().0, self.horizon)
    }
}

/// Run every spec of a grid on a pool of `threads` workers
/// ([`crate::parallel_map`]; `None` is one per available CPU) and return
/// the reports in the grid's order.
pub fn run_all(specs: &[ScenarioSpec], threads: Option<usize>) -> Vec<RunReport> {
    crate::parallel_map(specs.iter().collect(), threads, ScenarioSpec::run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::secs;

    fn steady() -> ScenarioSpec {
        registry::find("perf/steady_50k", true).expect("registered")
    }

    #[test]
    fn perf_profile_is_128_key_groups_unchecked_on_the_fixed_seed() {
        let cfg = steady().engine_config();
        assert_eq!(cfg.max_key_groups, 128);
        assert!(!cfg.check_semantics);
        assert_eq!(cfg.seed, 0xD225);
    }

    #[test]
    fn regions_override_reaches_the_engine_config() {
        let spec = steady().with_regions(2);
        assert_eq!(spec.regions, 2);
        assert_eq!(spec.engine_config().regions, 2);
        assert_eq!(steady().engine_config().regions, 1, "sequential default");
    }

    #[test]
    fn resume_latency_override_reaches_the_engine_config() {
        let spec = steady().with_resume_latency(100);
        assert_eq!(spec.resume_latency, 100);
        assert_eq!(spec.engine_config().resume_latency, 100);
        assert_eq!(
            steady().engine_config().resume_latency,
            0,
            "sequential default"
        );
    }

    #[test]
    fn threaded_run_matches_sequential_at_the_same_config() {
        let spec = steady()
            .with_horizon(secs(1))
            .with_regions(2)
            .with_resume_latency(100);
        let seq = spec.run();
        let par = spec.run_threaded();
        assert_eq!(par.threads, 2, "PDES config must engage both workers");
        assert_eq!(par.digest(), seq.digest);
        assert_eq!(par.obs.processed, seq.events);
        assert_eq!(par.obs.sink_records, seq.sink_records);
    }

    #[test]
    fn same_spec_runs_digest_identically() {
        let spec = steady().with_horizon(secs(2));
        assert_eq!(
            spec.run(),
            spec.run(),
            "same spec diverged between two runs"
        );
    }

    #[test]
    fn mechanism_labels_match_the_figures() {
        // Every CLI name parses, and its label is the built plugin's name,
        // except fig. 2's `No Scale`.
        let names = [
            ("drrs", "DRRS"),
            ("dr", "DR"),
            ("schedule", "Schedule"),
            ("subscale", "Subscale"),
            ("otfs", "OTFS"),
            ("megaphone", "Megaphone"),
            ("meces", "Meces"),
            ("unbound", "Unbound"),
            ("stop-restart", "Stop-Restart"),
            ("none", "No Scale"),
        ];
        for (name, label) in names {
            let spec = MechanismSpec::parse(name).expect(name);
            assert_eq!(spec.label(), label, "{name}");
            let plugin = if name == "none" { "no-scale" } else { label };
            assert_eq!(spec.plugin().name(), plugin, "{name}");
        }
        assert_eq!(
            MechanismSpec::parse("magic"),
            Err("unknown mechanism \"magic\"".to_string())
        );
    }
}
