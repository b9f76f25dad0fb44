//! Integration tests for the scenario subsystem: registry integrity, the
//! shard partition, shard-file round-trips, and merged-vs-sequential
//! equality — the contracts the process-level sweep sharder stands on —
//! plus the golden digest pin, bus-sink neutrality, the `--events` file,
//! and the strict CLIs.

use bench::scenario::golden::{self, GoldenError};
use bench::scenario::{registry, runner, Runner, ScenarioSpec, Shard};
use simcore::time::secs;
use streamflow::BusSinkKind;

/// The committed cross-build digest pin.
const GOLDEN: &str = include_str!("../golden/perf_digests.txt");

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
        let file = std::fs::File::create(&path).expect("create shard");
        runner::write_shard(file, "test", grid.len(), shard, &runs).expect("write shard");
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
    let file = std::fs::File::create(&p0).expect("create");
    runner::write_shard(file, "test", grid.len(), shard0, &runs0).expect("write");

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
    let file = std::fs::File::create(&path).expect("create");
    runner::write_shard(file, "rt", 1, shard, &[(0, report.clone())]).expect("write");
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
fn golden_digests_hold_on_full_timelines_sequential_and_threaded() {
    // The cross-build pin, as CI's `scenario --group perf --check`: eight
    // sequential rows (a perf spec added without its row is refused) plus
    // the two 100k scenarios under PDES at regions 2 and 4, run on both
    // engines — the seq == threaded contract on full timelines.
    let held = golden::check(GOLDEN, &registry::perf_scenarios(false));
    assert_eq!(held, Ok(12), "a perf/ digest left the golden file");
}

#[test]
fn golden_checker_fails_closed() {
    let group = registry::perf_scenarios(false);
    let digest = "0xc1221c2392952504";
    let row = format!("perf/steady_50k 1 0 {digest} 1033084 500000");
    let line = 1 + GOLDEN.lines().position(|l| l == row).expect("row");

    // A flipped digest is a mismatch carrying name, expected and actual.
    let flipped = GOLDEN.replacen(digest, "0xc1221c2392952505", 1);
    let Err(GoldenError::Mismatch {
        name,
        run,
        expected,
        actual,
    }) = golden::check(&flipped, &group)
    else {
        panic!("a flipped digest must be a Mismatch");
    };
    assert_eq!(name, "perf/steady_50k");
    assert_eq!(run, "regions 1, resume latency 0, sequential engine");
    assert_eq!(expected.digest, 0xc1221c2392952505);
    assert_eq!(actual.digest, 0xc1221c2392952504);
    assert_eq!((actual.events, actual.sink_records), (1_033_084, 500_000));

    // Everything else is refused, naming the line, before anything runs
    // (each case rewrites part or all of the steady_50k row).
    let refused = [
        (" 500000", "", "want 6 fields"),
        (digest, "0xnothex", "0x-prefixed hex"),
        (digest, "c1221c2392952504", "0x-prefixed hex"),
        ("1033084", "many", "events \"many\""),
        (" 1 0 ", " 2 0 ", "partition 2 0"),
        (&row, "perf/drrs_rescale_4_to_6 2 100 0x0 1 1", "scale plan"),
        (&row, "perf/nonexistent 1 0 0x0 1 1", "not in the checked"),
        (&row, "perf/cut_pipeline_100k 1 0 0x0 1 1", "repeats"),
    ];
    for (from, to, reason) in refused {
        let text = GOLDEN.replacen(&row, &row.replacen(from, to, 1), 1);
        let Err(GoldenError::Refused(why)) = golden::check(&text, &group) else {
            panic!("{from:?} -> {to:?} must be refused");
        };
        // A repeat is reported where the second copy sits.
        let here = reason == "repeats" || why.starts_with(&format!("line {line}: "));
        assert!(here && why.contains(reason), "{from:?} -> {to:?}: {why}");
    }
    // So is a perf spec added to the group without its sequential row.
    let mut grown = group.clone();
    grown.push(ScenarioSpec {
        name: "perf/new_scenario".into(),
        ..group[0].clone()
    });
    let unpinned = "no sequential (`1 0`) row for perf/new_scenario".to_string();
    let unrowed = golden::check(GOLDEN, &grown);
    assert_eq!(unrowed, Err(GoldenError::Refused(unpinned)));
}

#[test]
fn bus_sinks_are_digest_neutral_on_every_sequential_perf_scenario() {
    // Enabling the event bus's in-memory sink must not move a digest, an
    // event count or a sink-record count on any perf/ scenario (quick
    // timelines).
    for spec in registry::perf_scenarios(true) {
        let off = spec.run();
        assert_eq!(off.bus_published, 0, "{}: bus on by default", spec.name);
        let on = spec.clone().with_bus_sink(BusSinkKind::Mem).run();
        assert!(on.bus_published > 0, "{}: bus stayed off", spec.name);
        assert_eq!(
            (on.digest, on.events, on.sink_records),
            (off.digest, off.events, off.sink_records),
            "{}: the mem sink moved the run",
            spec.name
        );
    }
}

#[test]
fn events_file_is_the_serialized_in_memory_log_on_both_engines() {
    // `scenario --events FILE` writes, byte for byte, the JSONL of the
    // same spec's in-process `Mem` log: the drained sequential log on a
    // scaled run (scale_planned/scale_deployed events included), and the
    // merged per-region logs of a thread-per-region run.
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let path = std::env::temp_dir().join(format!("drrs_events_{}.jsonl", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");
    let q7 = registry::find("perf/q7_drrs_rescale_8_to_12", true).expect("registered");
    let cut = registry::find("perf/cut_pipeline_100k", true)
        .expect("registered")
        .with_regions(2)
        .with_resume_latency(100);
    let runs = [
        (
            vec!["--run", "perf/q7_drrs_rescale_8_to_12"],
            q7.with_bus_sink(BusSinkKind::Mem).run_logged().1,
            "scale_deployed",
        ),
        (
            vec![
                "--run",
                "perf/cut_pipeline_100k",
                "--regions",
                "2",
                "--resume-latency",
                "100",
                "--threads",
                "2",
            ],
            cut.with_bus_sink(BusSinkKind::Mem)
                .run_threaded()
                .0
                .bus_events,
            "sync_epoch",
        ),
    ];
    for (mut args, log, kind) in runs {
        args.extend(["--events", file]);
        let out = std::process::Command::new(scenario)
            .args(&args)
            .env("QUICK", "1")
            .output()
            .unwrap_or_else(|e| panic!("spawning {scenario}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("wrote {file} ({} events)", log.len())),
            "{args:?}: {stderr}"
        );
        let mut want = Vec::new();
        for ev in &log {
            ev.write_jsonl(&mut want).expect("serialize to memory");
        }
        let got = std::fs::read(&path).expect("read the events file");
        let kind = format!("\"kind\":\"{kind}\"");
        assert!(
            String::from_utf8_lossy(&want).contains(&kind),
            "{args:?}: no {kind} event in the log"
        );
        assert!(
            got == want,
            "{args:?}: the events file differs from the log"
        );
    }
    std::fs::remove_file(&path).expect("remove the events file");
}

#[test]
fn binaries_reject_stale_or_malformed_command_lines() {
    // A stale or malformed invocation must fail loudly (usage, exit 2),
    // never quietly run something else or die in a panic: `--backend` no
    // longer exists, a trailing flag used to parse its missing value as "",
    // a scale plan under PDES used to reach an engine assert mid-run.
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let drrs_sim = env!("CARGO_BIN_EXE_drrs_sim");
    let run_pdes = "--run perf/drrs_rescale_4_to_6 --regions 2 --resume-latency 100";
    let group_pdes = "--group perf --regions 2 --resume-latency 100";
    let scale_plan = "perf/drrs_rescale_4_to_6 has a scale plan";
    let check_alone = "--check FILE goes with --group";
    let cases = [
        (scenario, "--list --backend heap", "unknown flag --backend"),
        (scenario, "--run", "--run needs a value"),
        (scenario, "--group perf --threads two", "--threads"),
        (scenario, "--group perf --regions 2", "--resume-latency"),
        (scenario, run_pdes, scale_plan),
        (scenario, group_pdes, scale_plan),
        (scenario, "--group perf --check", "--check needs a value"),
        (scenario, "--run x --check f", check_alone),
        (scenario, "--group perf --check f --threads 2", check_alone),
        (scenario, "--figure fig99", "unknown figure \"fig99\""),
        (scenario, "--figure fig02 --bogus", "unknown flag --bogus"),
        (scenario, "--shard 0/2 --emit f", "go with --figure"),
        (
            scenario,
            "--figure fig15 --shard 0/2",
            "--shard requires --emit",
        ),
        (scenario, "--merge a.json --shard 0/2", "go with --figure"),
        (
            scenario,
            "--figure fig15 --merge a.json --shard 0/2",
            "cannot be combined",
        ),
        (scenario, "--figure fig15 --check f", check_alone),
        (
            scenario,
            "--figure fig15 --merge",
            "--merge needs one or more",
        ),
        (scenario, "--figure fig15 --emit f", "--emit FILE goes with"),
        (
            scenario,
            "--group perf --events f",
            "--events needs a single run",
        ),
        (drrs_sim, "--rate", "--rate needs a value"),
        (drrs_sim, "--workload", "--workload needs a value"),
        (drrs_sim, "--rate fast", "--rate \"fast\""),
        (drrs_sim, "--backend heap", "unknown flag --backend"),
        (drrs_sim, "--workload q9", "unknown workload \"q9\""),
        (drrs_sim, "--mechanism magic", "unknown mechanism \"magic\""),
    ];
    for (exe, args, reason) in cases {
        let args: Vec<&str> = args.split(' ').collect();
        let args = args.as_slice();
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
    // Unusable files exit 2 naming the file and the reason, before any
    // cell runs: the --emit file is created first. An --events file that
    // cannot take the log exits 2 the same way after the run.
    let dir = std::env::temp_dir().join(format!("drrs_cli_files_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let file = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    };
    std::fs::write(file("bad.json"), "{ \"garbage\": 1 }\n").expect("write bad shard");
    let (missing, bad, no_dir) = (file("missing.json"), file("bad.json"), file("no/x.json"));
    let no_such = "No such file or directory";
    // A write that fails after the run, not at create time.
    let full = "/dev/full".to_string();
    let file_cases = [
        (
            vec!["--figure", "fig15", "--merge", &missing],
            &missing,
            no_such,
        ),
        (
            vec!["--figure", "fig15", "--merge", &bad],
            &bad,
            "missing sweep name",
        ),
        (
            vec!["--figure", "fig15", "--shard", "0/2", "--emit", &no_dir],
            &no_dir,
            no_such,
        ),
        (
            vec!["--run", "perf/steady_50k", "--emit", &no_dir],
            &no_dir,
            no_such,
        ),
        (
            vec!["--run", "perf/steady_50k", "--events", &no_dir],
            &no_dir,
            no_such,
        ),
        (
            vec!["--run", "perf/steady_50k", "--events", &full],
            &full,
            "No space left on device",
        ),
    ];
    for (args, path, reason) in &file_cases {
        let (code, stderr) = run_bin(scenario, args);
        assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains(path.as_str()) && stderr.contains(reason),
            "{args:?}: no {path:?} and {reason:?} in: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    // The well-formed neighbours still work.
    let (code, stderr) = run_bin(scenario, &["--list"]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = run_bin(
        scenario,
        &["--list", "--regions", "2", "--resume-latency", "100"],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = run_bin(drrs_sim, &["--help"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn scenario_check_exits_1_on_a_moved_digest_and_2_on_a_refused_file() {
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let path = std::env::temp_dir().join(format!("drrs_check_cli_{}.txt", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");
    let flipped = GOLDEN.replacen("0xc1221c2392952504", "0xc1221c2392952505", 1);
    let moved = "perf/steady_50k (regions 1, resume latency 0, sequential engine): \
                 expected digest 0xc1221c2392952505 events 1033084 sink_records 500000, \
                 got digest 0xc1221c2392952504 events 1033084 sink_records 500000";
    let truncated = ("perf/steady_50k 1 0\n", 2, "line 1: want 6 fields");
    for (text, code, reason) in [(flipped.as_str(), 1, moved), truncated] {
        std::fs::write(&path, text).expect("write golden variant");
        let (got, stderr) = run_bin(scenario, &["--group", "perf", "--check", file]);
        assert_eq!(got, Some(code), "{text:?}: {stderr}");
        assert!(stderr.contains(reason), "{text:?}: {stderr}");
    }
    std::fs::remove_file(&path).expect("remove golden variant");
    let (got, stderr) = run_bin(scenario, &["--group", "perf", "--check", file]);
    assert_eq!(got, Some(2), "an unreadable file is refused: {stderr}");
}
