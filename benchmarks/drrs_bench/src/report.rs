//! Turning reps and layer reports into what is printed and written: the
//! per-workload summary, the contract's one-line JSON result, the suite's
//! table and `latest.json`, and `BENCHMARK.json` itself.

use std::fmt::Write as _;

use crate::host;
use crate::layers::{Baseline, LayerReport};
use crate::metrics::{ratio, share_bound, value, Bound, Values, END_TO_END, PER_LAYER};
use crate::rep::RepResult;
use crate::run::Check;
use crate::stats::{median_u64, Quartiles, NOISY_ABOVE};
use crate::workloads;

/// The timed, untraced reps of one workload and seed.
pub struct Summary {
    pub seed: u64,
    pub reps: Vec<RepResult>,
    /// Untraced wall time over the reps at the reference clock, ns. Host
    /// interference only ever adds time to a deterministic simulation, so
    /// the statistic is the fast quartile; median and IQR are printed
    /// beside it.
    pub wall: Quartiles,
    /// The same reps as the host's clock showed them, for the record.
    pub raw_wall: Quartiles,
    pub checks: Vec<Check>,
}

impl Summary {
    pub fn of(seed: u64, reps: Vec<RepResult>) -> Self {
        let walls: Vec<f64> = reps.iter().map(|r| r.wall_at_reference_ns()).collect();
        let raw_walls: Vec<f64> = reps.iter().map(|r| r.wall_ns as f64).collect();
        let mut checks: Vec<Check> = reps.iter().flat_map(|r| r.checks.clone()).collect();
        for r in &reps[1..] {
            checks.push(Check {
                name: "digest_equal_across_rounds",
                left: r.digest,
                right: reps[0].digest,
            });
        }
        Self {
            seed,
            wall: Quartiles::of_any(&walls),
            raw_wall: Quartiles::of_any(&raw_walls),
            reps,
            checks,
        }
    }

    pub fn baseline(&self) -> Baseline {
        Baseline {
            wall_p25_ns: self.wall.p25,
            iqr_over_median: self.wall.iqr_over_median(),
            digest: self.reps[0].digest,
            sim: self.reps[0].sim,
            calib_ns: median_u64(&self.reps.iter().map(|r| r.calib_ns).collect::<Vec<_>>()),
        }
    }

    pub fn records_per_sec(&self) -> f64 {
        ratio(self.reps[0].sink_records as f64, self.wall.p25 / 1e9)
    }

    pub fn peak_rss_mb(&self) -> f64 {
        median_u64(&self.reps.iter().map(|r| r.hwm_kb).collect::<Vec<_>>()) as f64 / 1024.0
    }

    pub fn setup_s(&self) -> f64 {
        median_u64(&self.reps.iter().map(|r| r.setup_ns).collect::<Vec<_>>()) as f64 / 1e9
    }

    pub fn noisy(&self) -> bool {
        self.wall.iqr_over_median() > NOISY_ABOVE
    }
}

/// Everything reported for one workload.
pub struct WorkloadReport {
    pub name: &'static str,
    pub summary: Summary,
    pub layer: Option<LayerReport>,
}

/// A float as a JSON number with all its digits (non-finite values, which
/// no metric should produce, become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

impl WorkloadReport {
    pub fn new(name: &str, summary: Summary, layer: Option<LayerReport>) -> Self {
        let name = workloads::NAMES
            .iter()
            .find(|n| **n == name)
            .expect("a known workload");
        Self {
            name,
            summary,
            layer,
        }
    }

    fn checks(&self) -> impl Iterator<Item = &Check> {
        self.summary
            .checks
            .iter()
            .chain(self.layer.iter().flat_map(|l| l.checks.iter()))
    }

    pub fn attempted(&self) -> u64 {
        self.checks().count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.checks().filter(|c| !c.passed()).count() as u64
    }

    fn checks_failed_share(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted() as f64)
    }

    /// A failed check names the workload, the seed and the two values that
    /// disagreed; the same disagreement seen again (every rep repeats a
    /// deterministic failure) is counted, not printed again.
    pub fn print_failed_checks(&self) {
        let mut seen: Vec<(&Check, usize)> = Vec::new();
        for c in self.checks().filter(|c| !c.passed()) {
            match seen
                .iter_mut()
                .find(|(s, _)| (s.name, s.left, s.right) == (c.name, c.left, c.right))
            {
                Some((_, n)) => *n += 1,
                None => seen.push((c, 1)),
            }
        }
        for (c, n) in seen {
            eprintln!(
                "CHECK FAILED {} seed {} {}: {} != {} ({n} times)",
                self.name, self.summary.seed, c.name, c.left, c.right
            );
        }
    }

    /// The eight end-to-end metrics, in catalogue order.
    pub fn end_to_end(&self) -> Values {
        let sim = self.summary.reps[0].sim;
        vec![
            ("records_per_sec", self.summary.records_per_sec()),
            ("peak_rss_mb", self.summary.peak_rss_mb()),
            ("setup_s", self.summary.setup_s()),
            ("checks_failed_share", self.checks_failed_share()),
            ("sim_latency_peak_ms", sim.latency_peak_ms),
            ("sim_latency_mean_ms", sim.latency_mean_ms),
            ("sim_scaling_duration_ms", sim.scaling_duration_ms),
            ("sim_suspension_ms", sim.suspension_ms),
        ]
    }

    /// Every per-layer metric, in catalogue order.
    pub fn per_layer(&self) -> Values {
        let layer = self.layer.as_ref().expect("a traced run");
        let share = self.checks_failed_share();
        PER_LAYER
            .iter()
            .map(|m| {
                let v = if m.name == "checks_failed_share" {
                    share
                } else {
                    value(&layer.values, m.name)
                        .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name))
                };
                (m.name, v)
            })
            .collect()
    }

    /// The contract's result line: `--trace 0` carries every end-to-end
    /// metric `BENCHMARK.json` lists, `--trace 1` every per-layer metric.
    pub fn contract_line(&self, trace: bool) -> String {
        let entry = |name: &str, v: f64, unit: &str| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
        };
        let metrics: Vec<String> = if trace {
            PER_LAYER
                .iter()
                .zip(self.per_layer())
                .map(|(m, (_, v))| entry(m.name, v, m.unit))
                .collect()
        } else {
            let values = self.end_to_end();
            END_TO_END
                .iter()
                .filter(|m| m.across_seeds.is_some())
                .map(|m| {
                    let v = value(&values, m.name).expect("all eight computed");
                    entry(m.name, v, m.unit)
                })
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0,
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }

    fn bound_text(&self, m: &crate::metrics::EndToEnd) -> String {
        match share_bound(self.name, m) {
            Bound::Exact => "exact".into(),
            Bound::Share(s) if m.floor > 0.0 => {
                format!("{:.0}% (at least {} {})", s * 100.0, m.floor, m.unit)
            }
            Bound::Share(s) => format!("{:.0}%", s * 100.0),
        }
    }

    /// The suite's human-readable block for this workload.
    pub fn print(&self) {
        let s = &self.summary;
        println!();
        println!(
            "== {}  (seed {}, {} rounds){}",
            self.name,
            s.seed,
            s.reps.len(),
            if s.noisy() { "  NOISY" } else { "" }
        );
        println!("   {}", workloads::why(self.name));
        println!(
            "   wall at the reference clock: p25 {:.4} s, median {:.4} s, IQR/median {:.3} \
             (as measured: p25 {:.4} s, IQR/median {:.3}); digest {:#018x}",
            s.wall.p25 / 1e9,
            s.wall.median / 1e9,
            s.wall.iqr_over_median(),
            s.raw_wall.p25 / 1e9,
            s.raw_wall.iqr_over_median(),
            s.reps[0].digest
        );
        println!("   end-to-end (bound = allowed worsening)");
        let values = self.end_to_end();
        for m in &END_TO_END {
            let v = value(&values, m.name).expect("all eight computed");
            println!(
                "     {:<44} {:>20} {:<6} {} is better, bound {}",
                m.name,
                num(v),
                m.unit,
                m.better.name(),
                self.bound_text(m)
            );
        }
        if self.layer.is_some() {
            println!("   per-layer");
            for (m, (_, v)) in PER_LAYER.iter().zip(self.per_layer()) {
                // The end-to-end metrics that ride in this list are above.
                if m.name.contains('.') {
                    println!("     {:<44} {:>20} {}", m.name, num(v), m.unit);
                }
            }
        }
        println!(
            "   checks: {} attempted, {} failed",
            self.attempted(),
            self.failed()
        );
        self.print_failed_checks();
    }

    fn json(&self, out: &mut String) {
        let s = &self.summary;
        let _ = writeln!(out, "    \"{}\": {{", self.name);
        let _ = writeln!(out, "      \"digest\": \"{:#018x}\",", s.reps[0].digest);
        let _ = writeln!(out, "      \"noisy\": {},", s.noisy());
        for (key, q) in [
            ("wall_at_reference_clock_s", s.wall),
            ("wall_as_measured_s", s.raw_wall),
        ] {
            let _ = writeln!(
                out,
                "      \"{key}\": {{\"p25\": {}, \"median\": {}, \"p75\": {}, \"iqr_over_median\": {}}},",
                num(q.p25 / 1e9),
                num(q.median / 1e9),
                num(q.p75 / 1e9),
                num(q.iqr_over_median())
            );
        }
        let _ = writeln!(out, "      \"reps\": [");
        for (i, r) in s.reps.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"wall_ns\": {}, \"setup_ns\": {}, \"hwm_kb\": {}, \"calib_ns\": {}, \"calib_after_ns\": {}, \"load1\": {}}}{}",
                r.wall_ns,
                r.setup_ns,
                r.hwm_kb,
                r.calib_ns,
                r.calib_after_ns,
                num(r.load1),
                if i + 1 < s.reps.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"end_to_end\": {{");
        let values = self.end_to_end();
        for (i, m) in END_TO_END.iter().enumerate() {
            let _ = writeln!(
                out,
                "        \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
                m.name,
                num(value(&values, m.name).expect("all eight computed")),
                m.unit,
                m.better.name(),
                match share_bound(self.name, m) {
                    Bound::Exact => "\"exact\"".to_string(),
                    Bound::Share(s) => format!("{{\"share\": {}, \"at_least\": {}}}", num(s), num(m.floor)),
                },
                if i + 1 < END_TO_END.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"per_layer\": {{");
        let layered = self.per_layer();
        for (i, (m, (_, v))) in PER_LAYER.iter().zip(&layered).enumerate() {
            let _ = writeln!(
                out,
                "        \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}{}",
                m.name,
                num(*v),
                m.unit,
                if i + 1 < layered.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"checks\": [");
        let checks: Vec<&Check> = self.checks().collect();
        for (i, c) in checks.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"name\": \"{}\", \"left\": {}, \"right\": {}, \"passed\": {}}}{}",
                c.name,
                c.left,
                c.right,
                c.passed(),
                if i + 1 < checks.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = write!(out, "    }}");
    }
}

/// `benchmarks/out/latest.json`: every metric of every workload, the reps
/// behind them and the host they were taken on.
pub fn suite_json(
    seed: u64,
    rounds: usize,
    smoke: bool,
    load1_start: f64,
    reports: &[WorkloadReport],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"rounds\": {rounds},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"host\": {{\"cpus\": {}, \"load1_start\": {}, \"load1_end\": {}}},",
        host::cpus(),
        num(load1_start),
        num(host::load1())
    );
    let _ = writeln!(out, "  \"workloads\": {{");
    for (i, r) in reports.iter().enumerate() {
        r.json(&mut out);
        let _ = writeln!(out, "{}", if i + 1 < reports.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"command\": [\"bash\", \"benchmarks/run.sh\"],");
    let _ = writeln!(out, "  \"paths\": [\"benchmarks\"],");
    let _ = writeln!(out, "  \"run_seconds\": {},", crate::RUN_SECONDS);
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, name) in workloads::NAMES.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{}\"}}{}",
            workloads::why(name),
            if i + 1 < workloads::NAMES.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"end_to_end\": [");
    let listed: Vec<_> = END_TO_END
        .iter()
        .filter_map(|m| m.across_seeds.map(|b| (m, b)))
        .collect();
    for (i, (m, bound)) in listed.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better.name(),
            num(*bound),
            if i + 1 < listed.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"per_layer\": [");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better.name(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `drrs_bench --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn whys_fit_the_contract() {
        for name in workloads::NAMES {
            let why = workloads::why(name);
            assert!(why.len() <= 200 && !why.contains(['\n', '"']), "{name}");
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn numbers_keep_all_their_digits_and_stay_json() {
        assert_eq!(num(1.0 / 3.0), "0.3333333333333333");
        assert_eq!(num(5e-324), "5e-324");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
    }
}
