//! Integration tests for the scenario subsystem: registry integrity, the
//! shard partition, shard-file round-trips, and merged-vs-sequential
//! equality — the contracts the process-level sweep sharder stands on.

use bench::scenario::{registry, runner, Runner, ScenarioSpec, Shard};
use simcore::time::secs;

#[test]
fn registry_names_are_unique() {
    for quick in [false, true] {
        let specs = registry::all(quick);
        let mut seen = std::collections::HashSet::new();
        for s in &specs {
            assert!(
                seen.insert(s.name.clone()),
                "duplicate registry name (quick={quick}): {}",
                s.name
            );
        }
        let floor = if quick { 50 } else { 200 };
        assert!(
            specs.len() > floor,
            "registry suspiciously small (quick={quick}): {} specs",
            specs.len()
        );
    }
}

#[test]
fn registry_covers_every_experiment_group() {
    let specs = registry::all(false);
    for group in [
        "perf/",
        "fig02/",
        "fig10_11/",
        "fig12_13/",
        "fig14/",
        "fig15/",
        "ablation/",
    ] {
        assert!(
            specs.iter().any(|s| s.name.starts_with(group)),
            "no specs registered under {group}"
        );
    }
}

#[test]
fn shard_union_is_the_full_grid_with_no_overlap() {
    // Over the real fig15 grid: for several shard counts, the union of
    // shards 0/N..N-1/N must select every cell exactly once.
    let grid = registry::fig15_plan(false).specs;
    for n in [1usize, 2, 3, 4, 7, 16] {
        let mut owned = vec![0u32; grid.len()];
        for k in 0..n {
            let shard = Shard { index: k, count: n };
            for (i, o) in owned.iter_mut().enumerate() {
                if shard.owns(i) {
                    *o += 1;
                }
            }
        }
        assert!(
            owned.iter().all(|&o| o == 1),
            "N={n}: shard union does not cover the grid exactly once"
        );
    }
}

/// A small, fast grid for end-to-end runner tests: real registry specs
/// with shortened horizons.
fn tiny_grid() -> Vec<ScenarioSpec> {
    registry::perf_scenarios(true)
        .into_iter()
        .map(|s| s.with_horizon(secs(2)))
        .collect()
}

#[test]
fn merged_sharded_run_equals_the_sequential_run() {
    let grid = tiny_grid();
    let sequential = Runner::in_process().run(&grid);

    let dir = std::env::temp_dir().join(format!("drrs_shard_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let mut paths = Vec::new();
    for k in 0..2 {
        let shard = Shard { index: k, count: 2 };
        let runs = Runner::sharded(shard).run_indexed(&grid);
        // Sharded runs must be strict subsets, in canonical order.
        assert!(runs.iter().all(|(i, _)| shard.owns(*i)));
        let path = dir.join(format!("shard_{k}.json"));
        runner::write_shard(&path, "test", grid.len(), shard, &runs).expect("write shard");
        paths.push(path);
    }
    let merged = runner::merge_shards("test", &grid, &paths).expect("merge");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(merged.len(), sequential.len());
    for (m, s) in merged.iter().zip(&sequential) {
        // Everything except wall-clock timing must be identical — the
        // shard boundary is not allowed to perturb a single bit.
        let mut m = m.clone();
        let mut s = s.clone();
        m.wall_secs = 0.0;
        s.wall_secs = 0.0;
        assert_eq!(
            m, s,
            "scenario {} drifted across the shard boundary",
            m.scenario
        );
    }
}

#[test]
fn merge_rejects_overlap_gaps_and_grid_mismatch() {
    let grid = tiny_grid();
    let dir = std::env::temp_dir().join(format!("drrs_merge_reject_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let shard0 = Shard { index: 0, count: 2 };
    let runs0 = Runner::sharded(shard0).run_indexed(&grid);
    let p0 = dir.join("s0.json");
    runner::write_shard(&p0, "test", grid.len(), shard0, &runs0).expect("write");

    // Gap: shard 1 missing.
    let err = runner::merge_shards("test", &grid, &[&p0]).unwrap_err();
    assert!(err.contains("missing"), "{err}");

    // Overlap: shard 0 supplied twice.
    let err = runner::merge_shards("test", &grid, &[&p0, &p0]).unwrap_err();
    assert!(err.contains("more than one shard"), "{err}");

    // Wrong sweep name.
    let err = runner::merge_shards("other", &grid, &[&p0]).unwrap_err();
    assert!(err.contains("does not match"), "{err}");

    // Wrong grid (e.g. quick shard merged into a full-grid run).
    let bigger: Vec<ScenarioSpec> = registry::perf_scenarios(false);
    let err = runner::merge_shards("test", &bigger[..4], &[&p0]).unwrap_err();
    assert!(err.contains("grid length"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_report_round_trips_through_shard_files() {
    // A report harvested from a real run (with a scale, so the migration
    // fields are populated) must survive write_shard -> read_shard
    // bit-exactly, wall clock included.
    let spec = registry::find("perf/drrs_rescale_4_to_6", true)
        .expect("registered")
        .with_horizon(secs(3));
    let report = spec.run();
    assert!(report.planned_moves > 0, "scale produced no plan");

    let dir = std::env::temp_dir().join(format!("drrs_report_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let path = dir.join("one.json");
    let shard = Shard { index: 0, count: 1 };
    runner::write_shard(&path, "rt", 1, shard, &[(0, report.clone())]).expect("write");
    let back = runner::read_shard(&path).expect("read");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(back.runs.len(), 1);
    assert_eq!(back.runs[0].0, 0);
    assert_eq!(
        back.runs[0].1, report,
        "shard round-trip perturbed the report"
    );
}

/// Run one of this package's binaries and return `(exit code, stderr)`.
fn run_bin(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(exe)
        .args(args)
        .env_remove("QUICK")
        .output()
        .unwrap_or_else(|e| panic!("spawning {exe}: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn binaries_reject_stale_or_malformed_command_lines() {
    // A stale or malformed invocation must fail loudly (usage, exit 2),
    // never quietly measure something else: `--backend`/`--dispatch` no
    // longer exist, `--reps abc` used to mean 1, a trailing `--out` used
    // to fall back to the default path.
    let perf_report = env!("CARGO_BIN_EXE_perf_report");
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let cases: [(&str, &[&str], &str); 11] = [
        (
            perf_report,
            &["--backend", "heap"],
            "unknown flag --backend",
        ),
        (
            perf_report,
            &["--dispatch", "single"],
            "unknown flag --dispatch",
        ),
        (perf_report, &["--regions", "2"], "unknown flag --regions"),
        (perf_report, &["--quick", "--reps", "abc"], "--reps"),
        (perf_report, &["--quick", "--reps", "0"], "--reps"),
        (perf_report, &["--quick", "--sink", "tape"], "--sink"),
        (perf_report, &["--quick", "--out"], "--out needs a value"),
        (
            scenario,
            &["--list", "--backend", "heap"],
            "unknown flag --backend",
        ),
        (scenario, &["--run"], "--run needs a value"),
        (
            scenario,
            &["--group", "perf", "--threads", "two"],
            "--threads",
        ),
        (
            scenario,
            &["--group", "perf", "--regions", "2"],
            "--resume-latency",
        ),
    ];
    for (exe, args, reason) in cases {
        let (code, stderr) = run_bin(exe, args);
        assert_eq!(
            code,
            Some(2),
            "{exe} {args:?} must exit 2; stderr: {stderr}"
        );
        assert!(
            stderr.contains(reason),
            "{exe} {args:?}: no {reason:?} in: {stderr}"
        );
        assert!(
            stderr.contains("usage:"),
            "{exe} {args:?}: no usage in: {stderr}"
        );
    }
    // The well-formed neighbours still work.
    let (code, stderr) = run_bin(scenario, &["--list"]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = run_bin(
        scenario,
        &["--list", "--regions", "2", "--resume-latency", "100"],
    );
    assert_eq!(code, Some(0), "{stderr}");
}
