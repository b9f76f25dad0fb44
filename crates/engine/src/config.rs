//! Engine-level configuration: the [`EngineConfig`] fields that runs vary,
//! and the deployment constants every run shares.
//!
//! The paper evaluates every mechanism on one deployment: Flink in Docker
//! containers on one machine, Gigabit Ethernet between them and Flink's
//! credit-based network buffers. What that deployment fixes (channel
//! credits and backlog watermarks, migration bandwidth, the sources'
//! watermark period, snapshot cost, sink service) and the simulator's
//! processing quantum are constants here; latencies, serialization
//! throughput, deploy delay, key-group counts, checkpointing, sampling,
//! PDES regions, seed and bus sink are fields.

use crate::bus::BusSinkKind;
use simcore::time::{ms, SimTime};

/// Receiver-side queue capacity per channel, in records (Flink credits).
pub const CHANNEL_CAPACITY: usize = 256;
/// Sender-side backlog high watermark: beyond this the sender blocks.
pub const BACKLOG_BLOCK: usize = 512;
/// Backlog low watermark: the sender resumes below this.
pub const BACKLOG_RESUME: usize = 128;
// A blocked sender must be able to resume, and a backlogged one to block.
const _: () = assert!(BACKLOG_RESUME < BACKLOG_BLOCK);
/// Migration link bandwidth, Gbps (paper: Gigabit Ethernet).
pub const MIGRATION_GBPS: f64 = 1.0;
/// Max records fused into one processing quantum (simulation efficiency;
/// admissibility is still checked per record).
pub const QUANTUM_RECORDS: usize = 64;
/// Max busy time per quantum.
pub const QUANTUM_TIME: SimTime = ms(4);
/// Watermark emission period at sources.
pub const WATERMARK_INTERVAL: SimTime = ms(200);
/// Per-instance snapshot cost per MB of state, µs (synchronous part).
pub const SNAPSHOT_US_PER_MB: SimTime = 200;
/// Per-record service time at sinks, µs.
pub const SINK_SERVICE: SimTime = 1;

/// Engine configuration: what runs vary. Defaults model the paper's
/// single-machine Docker deployment: sub-millisecond network and a
/// multi-second container deploy delay.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of key-groups (128 single-machine, 256 cluster experiments).
    pub max_key_groups: u16,
    /// Sub-key-group fanout for hierarchical state organization (Meces).
    /// 1 = plain key-group granularity.
    pub sub_group_fanout: u8,
    /// One-way channel latency for data records.
    pub net_latency: SimTime,
    /// Latency for priority/control messages (trigger barriers, fetch
    /// requests) — these skip queues but still cross the wire.
    pub ctrl_latency: SimTime,
    /// State (de)serialization throughput, bytes/µs (part of the paper's Lo).
    pub ser_bytes_per_us: f64,
    /// Time for a newly deployed instance container to become operational
    /// (part of Lo: "physical resource initialization").
    pub deploy_delay: SimTime,
    /// Latency-marker injection period (paper: periodically inserted markers
    /// that bypass windowing operators).
    pub marker_interval: SimTime,
    /// Checkpoint interval; `None` disables checkpointing.
    pub checkpoint_interval: Option<SimTime>,
    /// Metric sampling period (cumulative-suspension series etc.).
    pub sample_interval: SimTime,
    /// Track per-key execution-order semantics (costs memory; on for tests,
    /// off for the big sensitivity grid).
    pub check_semantics: bool,
    /// Number of scheduler regions the operator graph is partitioned into
    /// for PDES (see [`crate::region`], `simcore::region`). Consulted only
    /// when `resume_latency > 0`: at `resume_latency = 0` a cut has a
    /// zero-lookahead reverse edge that no region could run ahead on, so
    /// the world is built as the single-queue sequential engine whatever
    /// this says (the same rule [`crate::run_parallel`]'s fallback
    /// follows). 1 (the default) is that sequential engine.
    pub regions: usize,
    /// Latency of a sender-resume notice crossing a region cut, µs. This
    /// is the PDES mode switch:
    ///
    /// * `0` (the default) — the sequential engine: one event queue,
    ///   receiver-side `pump()` wakes blocked senders synchronously, every
    ///   `1 0` golden digest (`perf_digests.txt`) is this timeline, and the
    ///   thread-per-region executor runs it on the calling thread.
    /// * `> 0` with `regions > 1` — the graph is partitioned, cut channels
    ///   switch to a latency-bearing credit protocol (credits return to
    ///   the sender's region as `CutCredit` events after this delay, as
    ///   resume notices do in a real deployment), reverse cut edges gain
    ///   this much lookahead, and regions may genuinely execute
    ///   concurrently. Exactness is then *parallel digest == sequential
    ///   digest at the same `resume_latency`* — a new semantic point, not
    ///   the `resume_latency = 0` timeline.
    pub resume_latency: SimTime,
    /// RNG seed for the run.
    pub seed: u64,
    /// Which sink the event/metrics bus feeds (see [`crate::bus`]).
    /// `Null` (the default) disables the bus entirely: publishing is a
    /// single branch and steady state allocates and hashes nothing, so
    /// every digest is byte-identical to a bus-less build. `Mem` appends
    /// every published event to an in-memory log, in publish order, for
    /// the run's owner to take after the run. Behavior-neutral by contract for either sink: the bus
    /// observes, never steers.
    pub bus_sink: BusSinkKind,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_key_groups: 128,
            sub_group_fanout: 1,
            net_latency: ms(1),
            ctrl_latency: 300,
            // Effective state extraction+serialization throughput. The
            // paper's measured scaling durations imply ~10-15 MB/s through
            // the Flink/JVM migration path (e.g. DRRS moves ~500 MB of
            // Twitch state in tens of seconds), far below wire speed.
            ser_bytes_per_us: 15.0,
            deploy_delay: ms(3_000),
            marker_interval: ms(100),
            checkpoint_interval: None,
            sample_interval: ms(500),
            check_semantics: false,
            regions: 1,
            resume_latency: 0,
            seed: 0xD225,
            bus_sink: BusSinkKind::Null,
        }
    }
}

/// A configuration [`EngineConfig::validate`] refuses, naming the field.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A count the engine divides by or loops on is 0.
    Zero(&'static str),
    /// A throughput that must be finite and positive is not.
    NotPositive {
        /// The field's name.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Zero(field) => write!(f, "engine config: {field} must be positive, got 0"),
            Self::NotPositive { field, value } => write!(
                f,
                "engine config: {field} must be finite and positive, got {value}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineConfig {
    /// Check the fields a run cannot start without: the key-group,
    /// sub-group and region counts are positive and the serialization
    /// throughput is finite and positive. The deployment constants need
    /// no check: `BACKLOG_RESUME < BACKLOG_BLOCK` is asserted at compile
    /// time. `regions > 1` with `resume_latency = 0` is valid: it is the
    /// sequential fallback documented on [`EngineConfig::regions`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let counts = [
            ("max_key_groups", self.max_key_groups as u64),
            ("sub_group_fanout", self.sub_group_fanout as u64),
            ("regions", self.regions as u64),
        ];
        if let Some(&(field, _)) = counts.iter().find(|&&(_, v)| v == 0) {
            return Err(ConfigError::Zero(field));
        }
        let value = self.ser_bytes_per_us;
        if !(value.is_finite() && value > 0.0) {
            return Err(ConfigError::NotPositive {
                field: "ser_bytes_per_us",
                value,
            });
        }
        Ok(())
    }

    /// Convenience: a small, fast configuration for unit/integration tests.
    pub fn test() -> Self {
        Self {
            max_key_groups: 16,
            net_latency: 200,
            ctrl_latency: 50,
            ser_bytes_per_us: 1_500.0,
            deploy_delay: ms(100),
            marker_interval: ms(50),
            sample_interval: ms(100),
            check_semantics: true,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = EngineConfig::default();
        assert_eq!(c.regions, 1, "the sequential engine is the default");
        assert_eq!(
            c.resume_latency, 0,
            "PDES mode is opt-in; 0 is the recorded sequential timeline"
        );
        assert_eq!(
            c.bus_sink,
            BusSinkKind::Null,
            "the bus must be off by default: the Null sink is the \
             zero-cost steady-state contract"
        );
    }

    #[test]
    fn both_profiles_validate() {
        assert_eq!(EngineConfig::default().validate(), Ok(()));
        assert_eq!(EngineConfig::test().validate(), Ok(()));
        // The sequential fallback, not an error.
        let fallback = EngineConfig {
            regions: 4,
            ..EngineConfig::test()
        };
        assert_eq!(fallback.validate(), Ok(()));
    }

    #[test]
    fn validate_names_a_zero_field() {
        type Zero = fn(&mut EngineConfig);
        let zeroed: [(&str, Zero); 3] = [
            ("max_key_groups", |c| c.max_key_groups = 0),
            ("sub_group_fanout", |c| c.sub_group_fanout = 0),
            ("regions", |c| c.regions = 0),
        ];
        for (field, zero) in zeroed {
            let mut c = EngineConfig::test();
            zero(&mut c);
            assert_eq!(c.validate(), Err(ConfigError::Zero(field)));
            assert!(c.validate().unwrap_err().to_string().contains(field));
        }
    }

    #[test]
    fn validate_wants_finite_positive_throughputs() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let ser = EngineConfig {
                ser_bytes_per_us: bad,
                ..EngineConfig::test()
            };
            let e = ser.validate().unwrap_err();
            assert!(
                matches!(
                    e,
                    ConfigError::NotPositive {
                        field: "ser_bytes_per_us",
                        ..
                    }
                ),
                "{e}"
            );
            assert!(e.to_string().contains("ser_bytes_per_us"), "{e}");
        }
    }

    #[test]
    fn test_profile_checks_semantics() {
        assert!(EngineConfig::test().check_semantics);
    }
}
