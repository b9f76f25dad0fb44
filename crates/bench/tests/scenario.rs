//! Integration tests for the scenario subsystem: registry integrity, grid
//! runs independent of the worker count, the pin store's checker and
//! bless, bus-sink neutrality, the `--events` file, the event stream both engines share,
//! and the strict CLIs.

use bench::scenario::golden::{self, GoldenError};
use bench::scenario::{registry, run_all, ScenarioSpec};
use simcore::time::secs;
use streamflow::{BusEvent, BusEventKind, BusSinkKind};

/// The pin store's `perf/` rows: the cross-build digest pin.
const GOLDEN: &str = include_str!("../golden/perf_digests.txt");

/// The pin store's hand-built and Q7 fire rows.
const PINS: &str = include_str!("../golden/pins.txt");

#[test]
fn every_registry_scenario_config_validates() {
    for quick in [false, true] {
        for s in registry::all(quick) {
            assert_eq!(s.engine_config().validate(), Ok(()), "{}", s.name);
        }
    }
}

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
fn run_all_is_independent_of_the_worker_count() {
    // Every report, every field, in grid order: a worker only decides which
    // thread runs a cell, never what the cell computes. The grid is the
    // perf group on 2 s horizons.
    let grid: Vec<ScenarioSpec> = registry::perf_scenarios(true)
        .into_iter()
        .map(|s| s.with_horizon(secs(2)))
        .collect();
    let (one, three) = (run_all(&grid, Some(1)), run_all(&grid, Some(3)));
    assert_eq!((one.len(), three.len()), (grid.len(), grid.len()));
    for ((a, b), spec) in one.iter().zip(&three).zip(&grid) {
        assert_eq!(a.scenario, spec.name, "reports out of grid order");
        assert!(a == b, "{}: the worker count moved the report", spec.name);
    }
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
    // The cross-build pin, as `scenario --group perf --check`: eight
    // sequential rows (a perf spec added without its row is refused) plus
    // the two 100k scenarios under PDES at regions 2 and 4, run on both
    // engines — the seq == threaded contract on full timelines, sink
    // content included.
    let held = golden::check(GOLDEN, "perf/").map(|rows| rows.len());
    assert_eq!(held, Ok(12), "a perf/ digest left the golden file");
}

#[test]
fn golden_checker_fails_closed() {
    let digest = "0xc1221c2392952504";
    let hash = "sink_hash=0xaee7ac36f39f0fba";
    let row = format!("perf/steady_50k 1 0 {digest} 1033084 500000 {hash}");
    let line = 1 + GOLDEN.lines().position(|l| l == row).expect("row");

    // A flipped value is a mismatch naming the row, the run, the column,
    // the expected and the actual value: a count and a named column.
    let run = "perf/steady_50k (regions 1, resume latency 0, sequential engine)";
    let flips = [
        (digest, "0xc1221c2392952505", "digest"),
        (hash, "sink_hash=0xaee7ac36f39f0fbb", "sink_hash"),
    ];
    for (from, to, column) in flips {
        let flipped = GOLDEN.replacen(&row, &row.replacen(from, to, 1), 1);
        let (expected, actual) = (&to[to.len() - 18..], &from[from.len() - 18..]);
        let moved = format!("{run}: {column} expected {expected}, got {actual}");
        assert_eq!(
            golden::check(&flipped, "perf/"),
            Err(GoldenError::Mismatch(moved))
        );
    }

    // Everything else is refused, naming the line, before anything runs
    // (each case rewrites part or all of the steady_50k row).
    let (counts, named) = (format!(" 1033084 500000 {hash}"), format!(" {hash}"));
    let refused: [(&str, &str, &str); 13] = [
        (&counts, "", "want 6 fields"),
        (digest, "0xnothex", "0x-prefixed hex"),
        (digest, "c1221c2392952504", "0x-prefixed hex"),
        ("1033084", "many", "events \"many\""),
        (" 1 0 ", " 2 0 ", "partition 2 0"),
        (&row, "perf/drrs_rescale_4_to_6 2 100 0x0 1 1", "scale plan"),
        (&row, "perf/nonexistent 1 0 0x0 1 1", "is not a pinned run"),
        (&row, "perf/cut_pipeline_100k 1 0 0x0 1 1", "repeats"),
        // Named columns: unknown, repeated, missing, malformed.
        (hash, "sink_hash=0x1 lp=3", "unknown column lp"),
        (hash, "sink_hash=0x1 sink_hash=0x1", "repeats column"),
        (&named, "", "missing column sink_hash"),
        (hash, "sink_hash=12", "sink_hash \"12\": want 0x"),
        (hash, "sink_hash", "column \"sink_hash\": want name=value"),
    ];
    for (from, to, reason) in refused {
        let text = GOLDEN.replacen(&row, &row.replacen(from, to, 1), 1);
        let Err(GoldenError::Refused(why)) = golden::check(&text, "perf/") else {
            panic!("{from:?} -> {to:?} must be refused");
        };
        // A repeat is reported where the second copy sits.
        let here = reason == "repeats" || why.starts_with(&format!("line {line}: "));
        assert!(here && why.contains(reason), "{from:?} -> {to:?}: {why}");
    }
    // So is a pinned run without its sequential row, and a prefix that
    // names no pinned run.
    let unrowed = GOLDEN.replacen(&format!("{row}\n"), "", 1);
    let unpinned = "no sequential (`1 0`) row for perf/steady_50k".to_string();
    assert_eq!(
        golden::check(&unrowed, "perf/"),
        Err(GoldenError::Refused(unpinned))
    );
    let nothing = "no pinned run starts with fig02/".to_string();
    assert_eq!(
        golden::check(GOLDEN, "fig02/"),
        Err(GoldenError::Refused(nothing))
    );
}

#[test]
fn bless_rewrites_rows_and_reports_every_moved_column() {
    // The world-path rows with one value flipped, one column that no run
    // reports and one row missing: bless restores the committed rows (the
    // missing one at the end) and says what it did.
    let world: Vec<&str> = PINS
        .lines()
        .filter(|l| l.starts_with("pins/world/"))
        .collect();
    assert_eq!(world.len(), 9);
    let flip = |l: &str| l.replacen(" lp=351 ", " lp=352 ", 1);
    let stale = |l: &str| format!("{l} classified=7");
    let text = format!(
        "# header\n{}\n{}\n{}\n",
        flip(world[0]),
        stale(world[1]),
        world[3..].join("\n")
    );
    let (blessed, report) = golden::bless(&text, "pins/world/").unwrap_or_else(|e| panic!("{e}"));
    let mut want = vec!["# header", world[0], world[1]];
    want.extend(&world[3..]);
    want.push(world[2]);
    let want = want.join("\n") + "\n";
    assert_eq!(blessed, want);
    let name = |l: &str| l.split(' ').next().expect("name").to_string();
    assert_eq!(
        report,
        vec![
            format!("{} 1 0: sink content equal", name(world[0])),
            "  lp 352 -> 351".to_string(),
            format!("{} 1 0: sink content equal", name(world[1])),
            "  classified 7 -> (none)".to_string(),
            format!("{} 1 0: new row", name(world[2])),
        ]
    );
    // An unchanged file comes back byte for byte, with nothing to report.
    let again = golden::bless(&blessed, "pins/world/").unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(again, (want, vec![]));
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
fn both_engines_log_the_same_shared_event_stream() {
    // The events both engines publish — backpressure, scale and
    // checkpoint events, and metrics ticks of region-0 instances (the
    // threaded sampler ticks no others) — form the same sequence in the
    // sequential log and in the threaded run's merged log. `SyncEpoch`
    // carries region-scheduler counters on one engine and epoch counters
    // on the other, so it is left out.
    let spec = registry::find("perf/cut_pipeline_100k", true)
        .expect("registered")
        .with_regions(2)
        .with_resume_latency(100)
        .with_bus_sink(BusSinkKind::Mem)
        .with_horizon(secs(2));
    let shared = |log: Vec<BusEvent>| -> Vec<BusEvent> {
        log.into_iter()
            .filter(|e| match e.kind {
                BusEventKind::SyncEpoch { .. } => false,
                BusEventKind::MetricsTick { .. } => e.region == 0,
                _ => true,
            })
            .collect()
    };
    let seq = shared(spec.run_logged().1);
    let threaded = shared(spec.run_threaded().bus_events);
    if let Some(i) = (0..seq.len().min(threaded.len())).find(|&i| seq[i] != threaded[i]) {
        panic!(
            "event {i} differs: sequential {:?}, threaded {:?}",
            seq[i], threaded[i]
        );
    }
    assert_eq!(
        seq.len(),
        threaded.len(),
        "one log is a prefix of the other"
    );
    let has = |f: fn(&BusEventKind) -> bool| seq.iter().any(|e| f(&e.kind));
    assert!(has(|k| matches!(k, BusEventKind::BackpressureBlock { .. })));
    assert!(has(|k| matches!(k, BusEventKind::MetricsTick { .. })));
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
        (scenario, "--shard 0/2", "unknown flag --shard"),
        (scenario, "--merge a.json", "unknown flag --merge"),
        (
            scenario,
            "--run perf/steady_50k --emit f",
            "unknown flag --emit",
        ),
        (scenario, "--figure fig15 --check f", check_alone),
        (
            scenario,
            "--bless --threads 2",
            "--bless takes no other flag",
        ),
        (
            scenario,
            "--run perf/steady_50k --regions 0",
            "perf/steady_50k: engine config: regions must be positive",
        ),
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
        (drrs_sim, "--skew nan", "--skew \"nan\": must be"),
        (drrs_sim, "--skew inf", "--skew \"inf\": must be"),
        (drrs_sim, "--skew -1", "--skew \"-1\": must be"),
        (drrs_sim, "--rate nan", "--rate \"nan\": must be"),
        (drrs_sim, "--rate -5", "--rate \"-5\": must be"),
        (drrs_sim, "--rate inf", "--rate \"inf\": must be"),
        (drrs_sim, "--rate 0", "--rate \"0\": must be"),
        (drrs_sim, "--from 0", "--from \"0\": must be"),
        (drrs_sim, "--to 0", "--to \"0\": must be"),
        (drrs_sim, "--horizon 0", "--horizon \"0\": must be"),
        // Past `SimTime`'s range in seconds, and bytes past u64: these
        // used to wrap and run a different timeline.
        (
            drrs_sim,
            "--horizon 18446744073710",
            "--horizon \"18446744073710\": must be",
        ),
        (
            drrs_sim,
            "--scale-at 18446744073710",
            "--scale-at \"18446744073710\": must be",
        ),
        (
            drrs_sim,
            "--state-gb 18446744074",
            "--state-gb \"18446744074\": must be",
        ),
        (
            drrs_sim,
            "--scale-at 30 --horizon 20",
            "--scale-at 30 is not before --horizon 20",
        ),
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
    // An --events file that cannot be created exits 2 naming the file and
    // the reason before the run; one that cannot take the log exits 2 the
    // same way after it.
    let no_dir = std::env::temp_dir()
        .join(format!("drrs_cli_no_dir_{}/x.jsonl", std::process::id()))
        .to_str()
        .expect("utf-8 temp path")
        .to_string();
    // /dev/full: a write that fails after the run, not at create time.
    let file_cases = [
        (no_dir.as_str(), "No such file or directory"),
        ("/dev/full", "No space left on device"),
    ];
    for (path, reason) in file_cases {
        let args = ["--run", "perf/steady_50k", "--events", path];
        let (code, stderr) = run_bin(scenario, &args);
        assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains(path) && stderr.contains(reason),
            "{args:?}: no {path:?} and {reason:?} in: {stderr}"
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
    let (code, stderr) = run_bin(drrs_sim, &["--help"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn drrs_sim_reports_a_scale_only_when_a_plan_exists() {
    let drrs_sim = env!("CARGO_BIN_EXE_drrs_sim");
    let base = "--horizon 2 --from 2 --scale-at 1";
    for (args, header, migration) in [
        ("--mechanism none --to 3", "2 instances, no scale", false),
        ("--to 2", "2 instances, no scale", false),
        ("--to 3", "2 -> 3 instances at 1 s", true),
    ] {
        let out = std::process::Command::new(drrs_sim)
            .args(format!("{base} {args}").split(' '))
            .output()
            .expect("spawning drrs_sim");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args}: {stdout}");
        assert!(stdout.contains(header), "{args}: no {header:?} in {stdout}");
        assert_eq!(stdout.contains("migration"), migration, "{args}: {stdout}");
    }
}

#[test]
fn scenario_check_exits_1_on_a_moved_value_and_2_on_a_refused_file() {
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let path = std::env::temp_dir().join(format!("drrs_check_cli_{}.txt", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");
    let steady = "perf/steady_50k (regions 1, resume latency 0, sequential engine): ";
    let hash = "sink_hash=0xaee7ac36f39f0fba";
    let (bogus, twice) = (format!("{hash} bogus=1"), format!("{hash} {hash}"));
    let cases = [
        (
            "0xc1221c2392952504",
            "0xc1221c2392952505",
            1,
            "digest expected 0xc1221c2392952505",
        ),
        (
            hash,
            "sink_hash=0x1",
            1,
            "sink_hash expected 0x0000000000000001, got 0xaee7",
        ),
        (
            "0xc1221c2392952504 1033084 500000",
            "",
            2,
            "line 4: want 6 fields",
        ),
        (hash, &bogus, 2, "unknown column bogus"),
        (hash, &twice, 2, "repeats column sink_hash"),
        (
            hash,
            "sink_hash=0xg",
            2,
            "sink_hash \"0xg\": want 0x-prefixed hex",
        ),
    ];
    for (from, to, code, reason) in cases {
        std::fs::write(&path, GOLDEN.replacen(from, to, 1)).expect("write golden variant");
        let (got, stderr) = run_bin(scenario, &["--group", "perf", "--check", file]);
        assert_eq!(got, Some(code), "{reason}: {stderr}");
        let reason = if code == 1 {
            format!("{steady}{reason}")
        } else {
            reason.into()
        };
        assert!(stderr.contains(&reason), "{reason}: {stderr}");
    }
    std::fs::remove_file(&path).expect("remove golden variant");
    let (got, stderr) = run_bin(scenario, &["--group", "perf", "--check", file]);
    assert_eq!(got, Some(2), "an unreadable file is refused: {stderr}");
}
