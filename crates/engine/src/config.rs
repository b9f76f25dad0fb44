//! Engine-level configuration: the knobs that correspond to the paper's
//! deployment settings (network, buffers, key-groups, deploy delay).

use crate::bus::BusSinkKind;
use simcore::time::{ms, SimTime};

/// Engine configuration. Defaults model the paper's single-machine Docker
/// deployment: sub-millisecond network, 1 Gbps migration bandwidth, Flink's
/// credit-based buffers, and a multi-second container deploy delay.
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
    /// Receiver-side queue capacity per channel, in records (Flink credits).
    pub channel_capacity: usize,
    /// Sender-side backlog high watermark: beyond this the sender blocks.
    pub backlog_block: usize,
    /// Backlog low watermark: the sender resumes below this.
    pub backlog_resume: usize,
    /// Migration link bandwidth, Gbps (paper: Gigabit Ethernet).
    pub migration_gbps: f64,
    /// State (de)serialization throughput, bytes/µs (part of the paper's Lo).
    pub ser_bytes_per_us: f64,
    /// Time for a newly deployed instance container to become operational
    /// (part of Lo: "physical resource initialization").
    pub deploy_delay: SimTime,
    /// Max records fused into one processing quantum (simulation efficiency;
    /// admissibility is still checked per record).
    pub quantum_records: usize,
    /// Max busy time per quantum.
    pub quantum_time: SimTime,
    /// Latency-marker injection period (paper: periodically inserted markers
    /// that bypass windowing operators).
    pub marker_interval: SimTime,
    /// Watermark emission period at sources.
    pub watermark_interval: SimTime,
    /// Checkpoint interval; `None` disables checkpointing.
    pub checkpoint_interval: Option<SimTime>,
    /// Per-instance snapshot cost per byte of state, µs (synchronous part).
    pub snapshot_us_per_mb: SimTime,
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
            channel_capacity: 256,
            backlog_block: 512,
            backlog_resume: 128,
            migration_gbps: 1.0,
            // Effective state extraction+serialization throughput. The
            // paper's measured scaling durations imply ~10-15 MB/s through
            // the Flink/JVM migration path (e.g. DRRS moves ~500 MB of
            // Twitch state in tens of seconds), far below wire speed.
            ser_bytes_per_us: 15.0,
            deploy_delay: ms(3_000),
            quantum_records: 64,
            quantum_time: ms(4),
            marker_interval: ms(100),
            watermark_interval: ms(200),
            checkpoint_interval: None,
            snapshot_us_per_mb: 200,
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
    /// A count or duration the engine divides by or loops on is 0.
    Zero(&'static str),
    /// The backlog's low watermark is not below its high watermark, so a
    /// blocked sender could never resume (or never block).
    BacklogOrder {
        /// `backlog_resume`.
        resume: usize,
        /// `backlog_block`.
        block: usize,
    },
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
            Self::BacklogOrder { resume, block } => write!(
                f,
                "engine config: backlog_resume ({resume}) must be below backlog_block ({block})"
            ),
            Self::NotPositive { field, value } => write!(
                f,
                "engine config: {field} must be finite and positive, got {value}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineConfig {
    /// Check the fields a run cannot start without: the counts and the
    /// quantum length are positive, the backlog watermarks are ordered,
    /// and the migration and serialization throughputs are finite and
    /// positive. `regions > 1` with `resume_latency = 0` is valid: it is
    /// the sequential fallback documented on [`EngineConfig::regions`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let counts = [
            ("max_key_groups", self.max_key_groups as u64),
            ("sub_group_fanout", self.sub_group_fanout as u64),
            ("channel_capacity", self.channel_capacity as u64),
            ("quantum_records", self.quantum_records as u64),
            ("quantum_time", self.quantum_time),
            ("regions", self.regions as u64),
        ];
        if let Some(&(field, _)) = counts.iter().find(|&&(_, v)| v == 0) {
            return Err(ConfigError::Zero(field));
        }
        if self.backlog_resume >= self.backlog_block {
            return Err(ConfigError::BacklogOrder {
                resume: self.backlog_resume,
                block: self.backlog_block,
            });
        }
        let rates = [
            ("migration_gbps", self.migration_gbps),
            ("ser_bytes_per_us", self.ser_bytes_per_us),
        ];
        match rates
            .into_iter()
            .find(|&(_, v)| !(v.is_finite() && v > 0.0))
        {
            Some((field, value)) => Err(ConfigError::NotPositive { field, value }),
            None => Ok(()),
        }
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
        let zeroed: [(&str, Zero); 6] = [
            ("max_key_groups", |c| c.max_key_groups = 0),
            ("sub_group_fanout", |c| c.sub_group_fanout = 0),
            ("channel_capacity", |c| c.channel_capacity = 0),
            ("quantum_records", |c| c.quantum_records = 0),
            ("quantum_time", |c| c.quantum_time = 0),
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
    fn validate_wants_backlog_resume_below_block() {
        for resume in [512, 600] {
            let c = EngineConfig {
                backlog_resume: resume,
                backlog_block: 512,
                ..EngineConfig::test()
            };
            let e = c.validate().unwrap_err();
            assert_eq!(e, ConfigError::BacklogOrder { resume, block: 512 });
            assert!(e.to_string().contains("backlog_resume"), "{e}");
        }
    }

    #[test]
    fn validate_wants_finite_positive_throughputs() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let gbps = EngineConfig {
                migration_gbps: bad,
                ..EngineConfig::test()
            };
            let e = gbps.validate().unwrap_err();
            assert!(
                matches!(
                    e,
                    ConfigError::NotPositive {
                        field: "migration_gbps",
                        ..
                    }
                ),
                "{e}"
            );
            let ser = EngineConfig {
                ser_bytes_per_us: bad,
                ..EngineConfig::test()
            };
            let e = ser.validate().unwrap_err();
            assert!(e.to_string().contains("ser_bytes_per_us"), "{e}");
        }
    }

    #[test]
    fn test_profile_checks_semantics() {
        assert!(EngineConfig::test().check_semantics);
    }
}
