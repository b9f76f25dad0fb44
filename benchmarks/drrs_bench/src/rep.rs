//! One rep: a workload set up and run once, untraced, in a process of its
//! own (so `VmHWM` is that rep's peak and nobody else's), and the line
//! protocol its result travels back to the parent in.

use std::time::Instant;

use crate::host;
use crate::run::{check_name, run_plan, Check, SimMetrics, SimOutcome};
use crate::stats::median_u64;
use crate::workloads::{setup, Plan, Variant};

/// Set-up is cheap next to a run and noisy in relative terms, so each rep
/// sets up this many times and reports the median.
const SETUPS_PER_REP: usize = 5;

/// What one rep measured. Everything but the three host measurements
/// (`wall_ns`, `setup_ns`, `hwm_kb`) and the fingerprint repeats exactly for
/// a given workload and seed.
#[derive(Clone, Debug, Default)]
pub struct RepResult {
    /// Host time inside `run_until` / `run_parallel`, all simulations.
    pub wall_ns: u64,
    /// Input generation + world build, median of the rep's set-ups.
    pub setup_ns: u64,
    pub hwm_kb: u64,
    /// The calibration loop right before and right after the timed region.
    pub calib_ns: u64,
    pub calib_after_ns: u64,
    pub load1: f64,
    pub events: u64,
    pub sink_records: u64,
    pub digest: u64,
    pub sim: SimMetrics,
    pub checks: Vec<Check>,
}

/// FNV-1a over the per-simulation digests, in order.
pub fn fold_digests(digests: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in digests {
        for b in d.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Workload-level simulated metrics: the mean over its simulations.
pub fn mean_sim_metrics(plans: &[Plan], outcomes: &[SimOutcome]) -> SimMetrics {
    let n = outcomes.len().max(1) as f64;
    let mut m = SimMetrics::default();
    for (p, o) in plans.iter().zip(outcomes) {
        let s = SimMetrics::of(p, o);
        m.latency_peak_ms += s.latency_peak_ms / n;
        m.latency_mean_ms += s.latency_mean_ms / n;
        m.scaling_duration_ms += s.scaling_duration_ms / n;
        m.suspension_ms += s.suspension_ms / n;
    }
    m
}

/// The checks one finished simulation contributes: conservation, and every
/// requested plan settled before the next was due.
pub fn sim_checks(o: &SimOutcome) -> Vec<Check> {
    let mut checks = vec![o.conservation.clone()];
    if !o.plans.is_empty() {
        checks.push(Check {
            name: "plans_settled",
            left: o.plans.iter().filter(|p| p.settled()).count() as u64,
            right: o.plans.len() as u64,
        });
    }
    checks
}

/// Set up and run every simulation of `workload` once, untraced.
pub fn run_rep(workload: &str, seed: u64, smoke: bool) -> RepResult {
    let mut setups = Vec::with_capacity(SETUPS_PER_REP);
    let mut built = None;
    for _ in 0..SETUPS_PER_REP {
        drop(built.take());
        let t0 = Instant::now();
        let plans = setup(workload, seed, smoke, Variant::TIMED);
        let sims: Vec<_> = plans.iter().map(Plan::build).collect();
        setups.push(t0.elapsed().as_nanos() as u64);
        built = Some((plans, sims));
    }
    let (plans, sims) = built.expect("at least one set-up");

    let load1 = host::load1();
    let calib_ns = host::calibrate_ns();
    let outcomes: Vec<SimOutcome> = plans
        .iter()
        .zip(sims)
        .map(|(plan, sim)| run_plan(plan, sim, None))
        .collect();

    RepResult {
        wall_ns: outcomes.iter().map(|o| o.wall_ns).sum(),
        setup_ns: median_u64(&setups),
        calib_after_ns: host::calibrate_ns(),
        hwm_kb: host::vm_hwm_kb(),
        calib_ns,
        load1,
        events: outcomes.iter().map(|o| o.events).sum(),
        sink_records: outcomes.iter().map(|o| o.sink_records).sum(),
        digest: fold_digests(outcomes.iter().map(|o| o.digest)),
        sim: mean_sim_metrics(&plans, &outcomes),
        checks: outcomes.iter().flat_map(sim_checks).collect(),
    }
}

impl RepResult {
    /// `wall_ns` at the reference clock (see [`host::clock_factor`]).
    pub fn wall_at_reference_ns(&self) -> f64 {
        self.wall_ns as f64 * host::clock_factor(self.calib_ns, self.calib_after_ns)
    }

    /// One `key<TAB>value` line per field; floats in shortest round-trip
    /// form, so simulated metrics cross the process boundary bit-exactly.
    pub fn to_lines(&self) -> String {
        let mut s = String::new();
        let mut put = |k: &str, v: String| {
            s.push_str(k);
            s.push('\t');
            s.push_str(&v);
            s.push('\n');
        };
        put("wall_ns", self.wall_ns.to_string());
        put("setup_ns", self.setup_ns.to_string());
        put("hwm_kb", self.hwm_kb.to_string());
        put("calib_ns", self.calib_ns.to_string());
        put("calib_after_ns", self.calib_after_ns.to_string());
        put("load1", format!("{:?}", self.load1));
        put("events", self.events.to_string());
        put("sink_records", self.sink_records.to_string());
        put("digest", self.digest.to_string());
        put("latency_peak_ms", format!("{:?}", self.sim.latency_peak_ms));
        put("latency_mean_ms", format!("{:?}", self.sim.latency_mean_ms));
        put(
            "scaling_duration_ms",
            format!("{:?}", self.sim.scaling_duration_ms),
        );
        put("suspension_ms", format!("{:?}", self.sim.suspension_ms));
        for c in &self.checks {
            put("check", format!("{}\t{}\t{}", c.name, c.left, c.right));
        }
        s
    }

    /// Parse what [`to_lines`](Self::to_lines) wrote. Lines that are not
    /// part of the protocol (anything the child printed besides) are errors:
    /// a rep that did not report cleanly must not be counted.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut r = RepResult::default();
        let mut seen = 0;
        for line in text.lines().filter(|l| !l.is_empty()) {
            let (k, v) = line
                .split_once('\t')
                .ok_or_else(|| format!("malformed rep line {line:?}"))?;
            let int = || v.parse::<u64>().map_err(|e| format!("{k}: {e}"));
            let float = || v.parse::<f64>().map_err(|e| format!("{k}: {e}"));
            match k {
                "wall_ns" => r.wall_ns = int()?,
                "setup_ns" => r.setup_ns = int()?,
                "hwm_kb" => r.hwm_kb = int()?,
                "calib_ns" => r.calib_ns = int()?,
                "calib_after_ns" => r.calib_after_ns = int()?,
                "load1" => r.load1 = float()?,
                "events" => r.events = int()?,
                "sink_records" => r.sink_records = int()?,
                "digest" => r.digest = int()?,
                "latency_peak_ms" => r.sim.latency_peak_ms = float()?,
                "latency_mean_ms" => r.sim.latency_mean_ms = float()?,
                "scaling_duration_ms" => r.sim.scaling_duration_ms = float()?,
                "suspension_ms" => r.sim.suspension_ms = float()?,
                "check" => {
                    let mut f = v.split('\t');
                    let (Some(name), Some(l), Some(rt), None) =
                        (f.next(), f.next(), f.next(), f.next())
                    else {
                        return Err(format!("malformed check line {line:?}"));
                    };
                    let name = check_name(name)?;
                    r.checks.push(Check {
                        name,
                        left: l.parse().map_err(|e| format!("check {name}: {e}"))?,
                        right: rt.parse().map_err(|e| format!("check {name}: {e}"))?,
                    });
                    continue;
                }
                _ => return Err(format!("unknown rep field {k:?}")),
            }
            seen += 1;
        }
        if seen != 13 {
            return Err(format!("rep reported {seen} of 13 fields"));
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_results_round_trip_through_the_line_protocol() {
        let r = RepResult {
            wall_ns: 1_234_567_890,
            setup_ns: 4_321,
            hwm_kb: 20_480,
            calib_ns: 50_000_123,
            calib_after_ns: 49_000_456,
            load1: 0.37,
            events: 20_000_001,
            sink_records: 9_900_000,
            digest: u64::MAX - 5,
            sim: SimMetrics {
                latency_peak_ms: 12.345678901234567,
                latency_mean_ms: 0.1 + 0.2,
                scaling_duration_ms: 0.0,
                suspension_ms: 1e-9,
            },
            checks: vec![Check {
                name: "plans_settled",
                left: 4,
                right: 4,
            }],
        };
        let back = RepResult::parse(&r.to_lines()).unwrap();
        assert_eq!(back.wall_ns, r.wall_ns);
        assert_eq!(back.digest, r.digest);
        assert_eq!(
            back.sim.latency_mean_ms.to_bits(),
            r.sim.latency_mean_ms.to_bits()
        );
        assert_eq!(
            back.sim.latency_peak_ms.to_bits(),
            r.sim.latency_peak_ms.to_bits()
        );
        assert_eq!(back.checks.len(), 1);
        assert!(back.checks[0].passed());
    }

    #[test]
    fn a_rep_that_did_not_report_cleanly_is_rejected() {
        assert!(RepResult::parse("wall_ns\t1\n").is_err());
        assert!(RepResult::parse("thread 'main' panicked\n").is_err());
        assert!(RepResult::parse("bogus\t1\n").is_err());
    }

    #[test]
    fn digest_fold_depends_on_order() {
        assert_ne!(
            fold_digests([1, 2].into_iter()),
            fold_digests([2, 1].into_iter())
        );
    }
}
