//! Mechanism configuration: the axes along which DRRS, its ablation
//! variants, and the barrier-based baselines differ.

use simcore::time::{ms, SimTime};

/// Where scaling signals enter the dataflow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Injection {
    /// Conventional source injection: the signal propagates through the
    /// whole topology with alignment at every operator (generalized OTFS).
    Source,
    /// Direct predecessor injection (DRRS; also the paper's faithful
    /// Megaphone port).
    Predecessor,
}

/// Full mechanism configuration for [`FlexScaler`](crate::plugin::FlexScaler).
///
/// Every preset migrates fluidly: a subscale's source extracts one
/// key-group at a time, the next when the last is installed, and the
/// destination resumes each key-group as soon as its state lands. The
/// traditional all-at-once move is Stop-Restart's, a plugin of its own.
#[derive(Clone, Debug, PartialEq)]
pub struct MechanismConfig {
    /// Mechanism name for reports.
    pub name: &'static str,
    /// Signal injection point.
    pub injection: Injection,
    /// Decoupled trigger/confirm barriers with re-routing (DRRS §III-A);
    /// `false` = coupled barrier with alignment and input blocking.
    pub decouple: bool,
    /// Number of subscales to divide the migration into (§III-C); 1 = none.
    pub subscale_count: usize,
    /// Max concurrent subscales per instance (paper default: 2).
    pub concurrency_limit: usize,
    /// Launch subscales strictly one-after-another (Megaphone's
    /// timestamp-driven naive division).
    pub sequential: bool,
    /// Record Scheduling's buffer depth (inter- + intra-channel, §III-B;
    /// paper: 200 records); 0 = no Record Scheduling.
    pub sched_buffer: usize,
    /// Re-route Manager: flush when this many records are buffered.
    pub reroute_batch: usize,
    /// Re-route Manager: flush at least this often.
    pub reroute_timeout: SimTime,
}

impl MechanismConfig {
    /// Full DRRS: all three mechanisms enabled.
    pub fn drrs() -> Self {
        Self {
            name: "DRRS",
            injection: Injection::Predecessor,
            decouple: true,
            subscale_count: 8,
            concurrency_limit: 2,
            sequential: false,
            sched_buffer: 200,
            reroute_batch: 32,
            reroute_timeout: ms(5),
        }
    }

    /// Ablation: Decoupling & Re-routing only (no scheduling, no division).
    pub fn dr_only() -> Self {
        Self {
            name: "DR",
            sched_buffer: 0,
            subscale_count: 1,
            ..Self::drrs()
        }
    }

    /// Ablation: Record Scheduling only, on top of conventional coupled
    /// source-injected signals.
    pub fn schedule_only() -> Self {
        Self {
            name: "Schedule",
            injection: Injection::Source,
            decouple: false,
            subscale_count: 1,
            ..Self::drrs()
        }
    }

    /// Ablation: Subscale Division only — naive division over coupled
    /// barriers, which exhibits the inter-subscale synchronization
    /// interference of the paper's Fig. 7a.
    pub fn subscale_only() -> Self {
        Self {
            name: "Subscale",
            decouple: false,
            sched_buffer: 0,
            ..Self::drrs()
        }
    }

    /// Generalized on-the-fly scaling with fluid migration (the paper's
    /// OTFS baseline in Fig. 2).
    pub fn otfs_fluid() -> Self {
        Self {
            name: "OTFS",
            injection: Injection::Source,
            decouple: false,
            subscale_count: 1,
            concurrency_limit: 1,
            sequential: false,
            sched_buffer: 0,
            reroute_batch: 32,
            reroute_timeout: ms(5),
        }
    }

    /// Megaphone (as ported in the paper §V-A): predecessor injection,
    /// coupled barriers with alignment, timestamp-driven naive division
    /// (sequential per-key-group batches), fluid migration, and the same
    /// 200-record scheduling buffer the paper grants it.
    pub fn megaphone(batch_kgs: usize) -> Self {
        Self {
            name: "Megaphone",
            injection: Injection::Predecessor,
            decouple: false,
            subscale_count: usize::MAX / batch_kgs.max(1), // one batch per `batch_kgs` groups
            concurrency_limit: 1,
            sequential: true,
            sched_buffer: 200,
            reroute_batch: 32,
            reroute_timeout: ms(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_axes() {
        let d = MechanismConfig::drrs();
        assert!(d.decouple && d.sched_buffer == 200 && d.subscale_count > 1);
        let dr = MechanismConfig::dr_only();
        assert!(dr.decouple && dr.sched_buffer == 0 && dr.subscale_count == 1);
        let s = MechanismConfig::schedule_only();
        assert!(!s.decouple && s.sched_buffer == 200 && s.injection == Injection::Source);
        let ss = MechanismConfig::subscale_only();
        assert!(!ss.decouple && ss.sched_buffer == 0 && ss.subscale_count > 1);
        let o = MechanismConfig::otfs_fluid();
        assert!(!o.decouple && o.sched_buffer == 0 && o.injection == Injection::Source);
        let m = MechanismConfig::megaphone(1);
        assert!(m.sequential && !m.decouple && m.sched_buffer == 200);
    }
}
