//! The paper's figures as renderers over a grid of [`RunReport`]s.
//!
//! Each figure is a registry plan (`registry::*_plan`) that knows its grid
//! and prints itself from that grid's reports, keyed by the plan's registry
//! group name. `scenario --figure NAME` runs the grid once with
//! [`super::run_all`] and renders it; the rendering depends only on the
//! reports, so every `--threads N` prints the same bytes.

use simcore::time::secs;

use super::registry::{
    ablation_plan, fig02_plan, fig10_11_plan, fig12_13_plan, fig14_plan, fig15_plan, AblationPlan,
    Fig02Plan, Fig1011Plan, Fig1213Plan, Fig14Plan, Fig15Plan,
};
use super::{RunReport, ScenarioSpec};
use crate::quick;

/// The figure names, in registry order.
pub const NAMES: [&str; 6] = [
    "fig02", "fig10_11", "fig12_13", "fig14", "fig15", "ablation",
];

/// One figure: the grid it runs and how it prints that grid's reports.
pub trait Figure {
    /// The grid, in the canonical order `render` reads it in.
    fn specs(&self) -> Vec<ScenarioSpec>;
    /// Print the figure to stdout from the reports of `specs`, in order.
    fn render(&self, reports: &[RunReport]);
}

/// The figure registered as `name` (one of [`NAMES`]).
pub fn figure(name: &str, quick: bool) -> Option<Box<dyn Figure>> {
    Some(match name {
        "fig02" => Box::new(fig02_plan(quick)),
        "fig10_11" => Box::new(fig10_11_plan(quick)),
        "fig12_13" => Box::new(fig12_13_plan(quick)),
        "fig14" => Box::new(fig14_plan(quick)),
        "fig15" => Box::new(fig15_plan(quick)),
        "ablation" => Box::new(ablation_plan(quick)),
        _ => return None,
    })
}

/// Render a per-second series as a sparse text table (every `step` seconds).
fn print_series(label: &str, series: &[(u64, f64)], step: u64, unit: &str) {
    println!("  {label} (every {step}s, {unit}):");
    print!("   ");
    for (s, v) in series.iter().filter(|(s, _)| s % step == 0) {
        print!(" {s}:{v:.0}");
    }
    println!();
}

/// Simple mean ± population-σ formatter over per-seed samples.
fn pm(samples: &[f64]) -> String {
    let s = simcore::stats::Summary::of(samples);
    if samples.len() > 1 {
        format!("{:>9.0}(±{:>6.0})", s.mean, s.std)
    } else {
        format!("{:>9.0}", s.mean)
    }
}

/// DRRS's signed change against a baseline, `(ours / theirs − 1) × 100`:
/// a win prints as `-31.5%`, a loss as `+684.2%`.
fn signed_change(ours: f64, theirs: f64) -> String {
    format!("{:+.1}%", (ours / theirs.max(1e-9) - 1.0) * 100.0)
}

/// The series print step, in seconds: `quick` on compressed timelines.
fn step(quick_step: u64, full_step: u64) -> u64 {
    if quick() {
        quick_step
    } else {
        full_step
    }
}

/// Fig. 2 — the overhead-decomposition motivation experiment: latency over
/// time for **Unbound**, **OTFS** (generalized on-the-fly scaling with
/// fluid migration) and **No Scale** on the Twitch workload under a fixed
/// input rate, scaling during [250, 450] s.
///
/// Paper reference values (ms): peak — OTFS 18682, Unbound 4448, No Scale
/// 3893; average — OTFS 4399, Unbound 1583, No Scale 1266. The claim to
/// reproduce: Unbound ≈ No Scale ≪ OTFS, confirming `L = Lp + Ls + Ld + Lo`
/// is dominated by the three mechanism-addressable terms.
impl Figure for Fig02Plan {
    fn specs(&self) -> Vec<ScenarioSpec> {
        self.specs.clone()
    }

    fn render(&self, reports: &[RunReport]) {
        let (scale_at, end) = (self.scale_at, self.end);
        println!("=== Fig. 2: Unbound vs OTFS vs No Scale (Twitch, fixed rate) ===");
        println!(
            "scaling during [{}, {}] s, 8 -> 12 instances\n",
            scale_at / 1_000_000,
            end / 1_000_000
        );
        let mut rows = Vec::new();
        for r in reports {
            let name = r.mechanism.clone();
            let (peak, avg) = r.latency_ms(scale_at, end);
            println!("-- {name}");
            print_series("latency", &r.latency_series_ms(), step(10, 20), "ms");
            println!("  order violations: {}", r.violations);
            rows.push((name, peak, avg, r.violations));
            println!();
        }

        println!("During: [{}, {}] s", scale_at / 1_000_000, end / 1_000_000);
        println!("--------------------------------------------");
        println!(
            "{:<10} {:>12} {:>12} {:>10}",
            "", "Peak(ms)", "Average(ms)", "OrderViol"
        );
        for (n, p, a, v) in &rows {
            println!("{n:<10} {p:>12.0} {a:>12.0} {v:>10}");
        }
        println!("--------------------------------------------");
        println!("paper:      peak OTFS 18682 / Unbound 4448 / NoScale 3893");
        println!("            avg  OTFS  4399 / Unbound 1583 / NoScale 1266");
        let avg = |label: &str| rows.iter().find(|r| r.0 == label).expect(label).2;
        let ns = avg("No Scale").max(1.0);
        println!(
            "shape check: OTFS/NoScale avg = {:.2}x (paper 3.47x), Unbound/NoScale avg = {:.2}x (paper 1.25x)",
            avg("OTFS") / ns,
            avg("Unbound") / ns
        );
    }
}

/// Fig. 10 + Fig. 11 — fundamental effectiveness: end-to-end latency and
/// throughput during scaling for **DRRS**, **Meces** and **Megaphone** on
/// NEXMark Q7, Q8 and Twitch.
///
/// Protocol (paper §V-B): 300 s warm-up, scale the bottleneck operator from
/// 8 to 12 instances (migrating 111 of 128 key-groups, uniform
/// re-partitioning), then a stabilization period. The scaling period ends
/// when latency stays within 110% of the pre-scaling level for 100 s.
///
/// Paper reference (Fig. 10): on Q7 DRRS peak 15.8 s / avg 1.7 s vs Meces
/// 80.2 s / 29.4 s vs Megaphone 83.5 s / 37.8 s; Twitch shows Megaphone
/// with competitive latency but a 5.6× longer scaling period.
impl Figure for Fig1011Plan {
    fn specs(&self) -> Vec<ScenarioSpec> {
        self.specs.clone()
    }

    fn render(&self, all_reports: &[RunReport]) {
        let scale_at = self.scale_at;
        let per_workload = self.mechs.len() * self.seeds.len();
        for (wi, &(wname, horizon)) in self.workloads.iter().enumerate() {
            println!(
                "=== {} (scale at {} s, 8 -> 12 instances) ===",
                wname,
                scale_at / 1_000_000
            );
            // The paper uses "the longest observed scaling period among all
            // three methods as the statistical basis".
            let reports = &all_reports[wi * per_workload..(wi + 1) * per_workload];
            let mut longest_end = scale_at + secs(30);
            for r in reports {
                longest_end = longest_end.max(r.scaling_period_end.unwrap_or(horizon));
            }
            println!(
                "statistical window: [{}, {}] s (longest scaling period)\n",
                scale_at / 1_000_000,
                longest_end / 1_000_000
            );
            #[allow(clippy::type_complexity)]
            let mut table: Vec<(String, Vec<f64>, Vec<f64>, Vec<f64>)> = Vec::new();
            for (mi, mech) in self.mechs.iter().enumerate() {
                let per_seed = &reports[mi * self.seeds.len()..(mi + 1) * self.seeds.len()];
                let mut peaks = Vec::new();
                let mut avgs = Vec::new();
                let mut periods = Vec::new();
                for (si, r) in per_seed.iter().enumerate() {
                    // The slice arithmetic above must agree with the
                    // registry's loop nesting — fail loudly if the grid
                    // order ever drifts.
                    assert_eq!(
                        r.scenario,
                        format!("fig10_11/{wname}/{mech}/seed{}", self.seeds[si]),
                        "registry grid order drifted from the figure layout"
                    );
                    let end = r.scaling_period_end.unwrap_or(horizon);
                    let (peak, avg) = r.latency_ms(scale_at, longest_end);
                    peaks.push(peak);
                    avgs.push(avg);
                    periods.push((end.saturating_sub(scale_at)) as f64 / 1_000_000.0);
                    if si == 0 {
                        println!("-- {mech} (seed {})", self.seeds[0]);
                        let every = step(10, 25);
                        print_series("Fig.10 latency", &r.latency_series_ms(), every, "ms");
                        print_series("Fig.11 throughput", &r.throughput, every, "rec/s");
                        println!(
                            "  migration done: {:?} s, stabilized at: {:?} s, order violations: {}",
                            r.migration_done.map(|t| t / 1_000_000),
                            r.scaling_period_end.map(|t| t / 1_000_000),
                            r.violations
                        );
                    }
                }
                table.push((mech.to_string(), peaks, avgs, periods));
            }
            println!("\nIn scaling window          Peak(ms)           Average(ms)    Period(s)");
            for (m, p, a, d) in &table {
                println!("{:<10} {} {} {}", m, pm(p), pm(a), pm(d));
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            let (drrs_avg, d0) = (mean(&table[0].2), mean(&table[0].3));
            for (m, _, a, d) in table.iter().skip(1) {
                println!(
                    "  DRRS vs {m}: avg latency {}, scaling time {}",
                    signed_change(drrs_avg, mean(a)),
                    signed_change(d0, mean(d))
                );
            }
            println!();
        }
        println!(
            "paper Q7: DRRS 15760/1705, Meces 80172/29439, Megaphone 83482/37791 (peak/avg ms)"
        );
        println!("paper Q8: DRRS 45562/4501, Meces 122373/38266, Megaphone 194566/70182");
        println!("paper Twitch: DRRS 21651/5300, Meces 59978/33293, Megaphone 18422/5598");
    }
}

/// Fig. 12 + Fig. 13 — overhead decomposition of the three mechanisms:
///
/// * Fig. 12a — cumulative propagation delay `Lp` (sum over signals of
///   injection → first state migration),
/// * Fig. 12b — average dependency-related overhead `Ld` (mean over state
///   units of injection → migration),
/// * Fig. 13 — cumulative suspension time `Ls` over time.
///
/// Paper shape: Megaphone ≫ others on Lp and Ld (strict linear dependency
/// between migration units); Meces lowest Lp (single synchronization) but
/// highest suspension growth (fetch conflicts); DRRS low on all three.
impl Figure for Fig1213Plan {
    fn specs(&self) -> Vec<ScenarioSpec> {
        self.specs.clone()
    }

    fn render(&self, reports: &[RunReport]) {
        let nmech = self.mechs.len();
        let cell = |wi: usize, mi: usize| &reports[wi * nmech + mi];
        for (wi, (wname, _)) in self.workloads.iter().enumerate() {
            println!("=== {wname} ===");
            for (mi, mech) in self.mechs.iter().enumerate() {
                let r = cell(wi, mi);
                // The index arithmetic must agree with the registry's loop
                // nesting — fail loudly if the grid order ever drifts.
                assert_eq!(
                    r.scenario,
                    format!("fig12_13/{wname}/{mech}"),
                    "registry grid order drifted from the figure layout"
                );
                println!(
                    "-- {mech}: Lp={:.0} ms, Ld={:.0} ms, final suspension={:.0} ms, migration done at {:?} s",
                    r.lp_ms,
                    r.ld_ms,
                    r.suspension_ms,
                    r.migration_done.map(|t| t / 1_000_000)
                );
                print_series(
                    "Fig.13 cumulative suspension",
                    &r.suspension_series_ms(),
                    step(10, 25),
                    "ms",
                );
            }
            println!();
        }

        // One row per mechanism, one column per workload.
        let print_rows = |field: fn(&RunReport) -> f64| {
            for (mi, m) in self.mechs.iter().enumerate() {
                print!("{m:<10}");
                for wi in 0..self.workloads.len() {
                    print!(" {:>12.1}", field(cell(wi, mi)));
                }
                println!();
            }
        };
        println!("=== Fig. 12a: cumulative propagation delay (ms) ===");
        print!("{:<10}", "");
        for (w, _) in &self.workloads {
            print!(" {w:>12}");
        }
        println!();
        print_rows(|r| r.lp_ms);
        println!("\n=== Fig. 12b: average dependency overhead (ms) ===");
        print_rows(|r| r.ld_ms);
        println!("\n=== Meces back-and-forth (paper §V-B: Q7 avg 6.25x, max 46x) ===");
        if let Some(mi) = self.mechs.iter().position(|m| *m == "Meces") {
            for (wi, (w, _)) in self.workloads.iter().enumerate() {
                let r = cell(wi, mi);
                let (avg, max) = (r.churn_avg, r.churn_max);
                println!("  {w}: avg {avg:.2} migrations/unit, max {max}");
            }
        }
        println!("\npaper shape: Megaphone has the largest Lp and Ld (log-scale dominant);");
        println!("Meces has the smallest Lp; DRRS low everywhere; Meces suspension grows fastest.");
    }
}

/// Fig. 14 — design-rationale validation: ablation of DRRS's mechanisms on
/// the Twitch workload. Four variants: the complete **DRRS** system and
/// three variants each enabling only one core design — Decoupling &
/// Re-routing (**DR**), Record Scheduling (**Schedule**), Subscale Division
/// (**Subscale**).
///
/// Paper reference (during 300–475 s, ms): peaks DRRS 20008 / DR 25963 /
/// Schedule 23625 / Subscale 24652; averages 7187 / 8779 / 8234 / 8511.
/// Shape: full DRRS lowest on both; every single-mechanism variant is
/// 15–30% worse; Subscale shows the largest fluctuations (synchronization
/// interference).
impl Figure for Fig14Plan {
    fn specs(&self) -> Vec<ScenarioSpec> {
        self.specs.clone()
    }

    fn render(&self, reports: &[RunReport]) {
        let (scale_at, window_end) = (self.scale_at, self.window_end);
        println!("=== Fig. 14: DRRS mechanism ablation (Twitch) ===\n");
        let mut rows = Vec::new();
        for r in reports {
            let name = r.mechanism.clone();
            let (peak, avg) = r.latency_ms(scale_at, window_end);
            println!(
                "-- {name}: peak {peak:.0} ms, avg {avg:.0} ms, violations {}",
                r.violations
            );
            print_series("latency", &r.latency_series_ms(), step(10, 20), "ms");
            rows.push((name, peak, avg));
            println!();
        }
        println!(
            "During {}-{} s",
            scale_at / 1_000_000,
            window_end / 1_000_000
        );
        println!("---------------------");
        println!("{:<10} {:>10} {:>10}", "", "Peak(ms)", "Avg(ms)");
        for (n, p, a) in &rows {
            println!("{n:<10} {p:>10.0} {a:>10.0}");
        }
        let full = rows[0].clone();
        println!("---------------------");
        for (n, p, a) in rows.iter().skip(1) {
            println!(
                "{n} vs DRRS: peak +{:.0}%, avg +{:.0}%  (paper: DR +30/+22, Schedule +18/+15, Subscale +23/+18)",
                (p / full.1 - 1.0) * 100.0,
                (a / full.2 - 1.0) * 100.0
            );
        }
    }
}

/// Fig. 15 — sensitivity analysis on the cluster configuration: throughput
/// deviation from the input rate across input rates (5K–20K tps), total
/// state sizes (5–30 GB) and Zipf skewness (0.0/0.5/1.0/1.5) for DRRS,
/// Megaphone and Meces.
///
/// Cluster setup per the paper §V-D: 256 key-groups, the aggregator scales
/// 25 → 30 instances (migrating 229 key-groups), throughput collected over
/// a 10-minute window (latency is unreliable under heavy skew backlogs).
///
/// Paper shape: deviation grows with rate/state/skew; DRRS dominates every
/// cell and is up to 89% better at <20K tps, 30 GB>; Megaphone and Meces
/// show skew anomalies (incomplete migrations / fetch instability).
impl Figure for Fig15Plan {
    fn specs(&self) -> Vec<ScenarioSpec> {
        self.specs.clone()
    }

    fn render(&self, results: &[RunReport]) {
        println!("=== Fig. 15: throughput deviation (input rate - measured, rec/s) ===");
        println!(
            "25 -> 30 instances, 256 key-groups (229 migrated), {}s window\n",
            self.measure / 1_000_000
        );
        let lo = self.scale_at / 1_000_000;
        let hi = (self.scale_at + self.measure) / 1_000_000;
        let mut cells = results.iter();
        for mech in &self.mechs {
            println!("--- {mech} ---");
            for &skew in &self.skews {
                println!("Skewness {skew}:");
                print!("{:>8}", "GB\\tps");
                for r in &self.rates {
                    print!(" {:>12}", *r as u64);
                }
                println!("   (deviation rec/s | migration completed %)");
                for &gb in &self.sizes_gb {
                    print!("{gb:>8}");
                    for &tps in &self.rates {
                        let r = cells.next().expect("one report per grid cell");
                        let deviation = (tps - r.mean_throughput(lo, hi)).max(0.0);
                        // The paper's Megaphone anomaly: low deviation can
                        // mean the migration never finished in the window —
                        // report the completed fraction alongside.
                        print!(" {:>7.0}/{:>3}%", deviation, r.settled_pct());
                    }
                    println!();
                }
            }
            println!();
        }
        println!("paper shape: purple (low deviation) everywhere for DRRS; degradation grows");
        println!("with rate/state/skew; baselines show anomalies at high skew.");
    }
}

/// Design-choice ablations beyond the paper's Fig. 14, on the Twitch
/// workload under the fig-14 protocol:
///
/// * **subscale count** (§III-C: granularity of division),
/// * **per-instance concurrency threshold** (§IV-A: default 2 — parallel
///   acceleration vs contention),
/// * **Re-route Manager strategy** (§IV-A B4: capacity- vs timeout-based
///   flushing),
/// * sliding vs tumbling windows on Q7.
impl Figure for AblationPlan {
    fn specs(&self) -> Vec<ScenarioSpec> {
        self.sections
            .iter()
            .flat_map(|s| s.specs.iter().cloned())
            .collect()
    }

    fn render(&self, reports: &[RunReport]) {
        let mut first = 0;
        for section in &self.sections {
            println!("{}", section.title);
            let rows = &reports[first..first + section.specs.len()];
            first += rows.len();
            for (label, r) in section.labels.iter().zip(rows) {
                let (peak, avg) = r.latency_ms(self.scale_at, self.window_end);
                // §V-A: the paper swaps Tumbling for Sliding windows
                // because tumbling windows' periodic state accumulation
                // destabilizes scaling (reproduced on Q7: same total
                // window, slide = size vs 500 ms slides).
                if section.key == "window" {
                    println!("{label:<34} peak {peak:>8.0} ms  avg {avg:>7.0} ms");
                } else {
                    println!(
                        "{label:<34} peak {peak:>8.0} ms  avg {avg:>7.0} ms  migration {:>6.1} s  susp {:>8.0} ms",
                        r.migration_secs(),
                        r.suspension_ms
                    );
                }
            }
        }
        println!("\nFindings: subscale division is floored by (source,destination) pairing —");
        println!("counts beyond the pair count change nothing; concurrency 1 slows migration");
        println!("but trims suspension; unbounded concurrency adds contention for no gain");
        println!("(supporting the paper's default threshold of 2); tumbling windows spike");
        println!("harder than sliding ones under the same scale (the paper's §V-A rationale).");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_formats_single_and_multi() {
        assert!(pm(&[10.0]).contains("10"));
        let m = pm(&[10.0, 20.0]);
        assert!(m.contains("15") && m.contains("±"));
    }

    #[test]
    fn signed_change_prints_one_sign() {
        assert_eq!(signed_change(685.0, 1000.0), "-31.5%");
        assert_eq!(signed_change(7842.0, 1000.0), "+684.2%");
        assert_eq!(signed_change(1000.0, 1000.0), "+0.0%");
    }

    #[test]
    fn every_figure_runs_its_registry_group_in_registry_order() {
        let all = super::super::registry::all(false);
        for name in NAMES {
            let prefix = format!("{name}/");
            let group: Vec<_> = all
                .iter()
                .filter(|s| s.name.starts_with(&prefix))
                .cloned()
                .collect();
            assert_eq!(figure(name, false).expect(name).specs(), group, "{name}");
        }
        assert!(figure("fig99", false).is_none());
    }
}
