//! The cross-build digest pin: a golden file of scenario digests and the
//! one function that checks a build against it.
//!
//! `crates/bench/golden/perf_digests.txt` holds one row per pinned run on
//! the **full** timelines: `name regions resume_latency digest events
//! sink_records` (`#` starts a comment line). A row at `1 0` is the
//! sequential engine; a row at `K L` with `K > 1`, `L > 0` is PDES mode
//! and runs on the sequential PDES engine *and* the thread-per-region
//! executor, so one check also proves threaded == sequential on full
//! timelines. The file is regenerated only by a PR that changes simulation
//! semantics on purpose, which records old → new digests in CHANGES.md.

use std::fmt;

use simcore::time::SimTime;

use super::ScenarioSpec;
use crate::parse_value;

/// What a run is pinned on: the metrics digest plus the two counts that
/// say the run did the same amount of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The deterministic metrics digest.
    pub digest: u64,
    /// Logical events dispatched.
    pub events: u64,
    /// Records delivered to sinks.
    pub sink_records: u64,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (d, e, s) = (self.digest, self.events, self.sink_records);
        write!(f, "digest 0x{d:016x} events {e} sink_records {s}")
    }
}

/// One row of the golden file.
struct Row {
    line: usize,
    name: String,
    regions: usize,
    resume_latency: SimTime,
    expected: Outcome,
}

/// Why [`check`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GoldenError {
    /// The file was refused before anything ran, for the carried reason:
    /// a malformed, repeated, unknown or missing row.
    Refused(String),
    /// A run produced something other than its row.
    Mismatch {
        /// Registry name of the scenario.
        name: String,
        /// The row's partition and the engine that ran it, e.g. `regions 2,
        /// resume latency 100, threaded engine`.
        run: String,
        /// What the row says.
        expected: Outcome,
        /// What the run produced.
        actual: Outcome,
    },
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Refused(reason) => f.write_str(reason),
            Self::Mismatch {
                name,
                run,
                expected,
                actual,
            } => write!(f, "{name} ({run}): expected {expected}, got {actual}"),
        }
    }
}

fn parse_row(line: usize, text: &str) -> Result<Row, String> {
    let fields: Vec<&str> = text.split_whitespace().collect();
    let &[name, regions, resume_latency, digest, events, sink_records] = fields.as_slice() else {
        return Err(format!(
            "want 6 fields (name regions resume_latency digest events sink_records), got {}",
            fields.len()
        ));
    };
    let regions: usize = parse_value("regions", regions)?;
    let resume_latency: SimTime = parse_value("resume_latency", resume_latency)?;
    if !(regions == 1 && resume_latency == 0 || regions > 1 && resume_latency > 0) {
        return Err(format!(
            "partition {regions} {resume_latency}: want `1 0` (sequential) or \
             regions > 1 with a positive resume_latency (PDES)"
        ));
    }
    let digest = digest
        .strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("digest {digest:?}: want 0x-prefixed hex"))?;
    Ok(Row {
        line,
        name: name.to_string(),
        regions,
        resume_latency,
        expected: Outcome {
            digest,
            events: parse_value("events", events)?,
            sink_records: parse_value("sink_records", sink_records)?,
        },
    })
}

/// Check a build against a golden file: parse `text`, require its rows to
/// cover `group` exactly (every row names a scenario of the group, every
/// scenario of the group has its sequential `1 0` row) — all before
/// anything runs, so a stale or damaged file is refused in milliseconds —
/// then run every row, PDES rows on both engines, and stop at the first
/// run that differs. Returns the number of rows that held.
pub fn check(text: &str, group: &[ScenarioSpec]) -> Result<usize, GoldenError> {
    let mut runs: Vec<(Row, ScenarioSpec)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let (line, raw) = (i + 1, raw.trim());
        if raw.is_empty() || raw.starts_with('#') {
            continue;
        }
        let refused = |reason: String| GoldenError::Refused(format!("line {line}: {reason}"));
        let row = parse_row(line, raw).map_err(refused)?;
        let Some(spec) = group.iter().find(|s| s.name == row.name) else {
            return Err(refused(format!("{} is not in the checked group", row.name)));
        };
        let spec = spec
            .clone()
            .with_regions(row.regions)
            .with_resume_latency(row.resume_latency);
        if spec.scales_under_pdes() {
            let reason = format!(
                "{} has a scale plan, which PDES mode cannot execute",
                row.name
            );
            return Err(refused(reason));
        }
        if let Some((first, _)) = runs.iter().find(|(_, s)| *s == spec) {
            return Err(refused(format!("repeats the row on line {}", first.line)));
        }
        runs.push((row, spec));
    }
    if let Some(unpinned) = group
        .iter()
        .find(|s| !runs.iter().any(|(r, _)| r.regions == 1 && r.name == s.name))
    {
        let reason = format!("no sequential (`1 0`) row for {}", unpinned.name);
        return Err(GoldenError::Refused(reason));
    }
    for (row, spec) in &runs {
        let held = |engine: &str, digest, events, sink_records| {
            let actual = Outcome {
                digest,
                events,
                sink_records,
            };
            if actual == row.expected {
                return Ok(());
            }
            let (k, l) = (row.regions, row.resume_latency);
            Err(GoldenError::Mismatch {
                name: row.name.clone(),
                run: format!("regions {k}, resume latency {l}, {engine} engine"),
                expected: row.expected,
                actual,
            })
        };
        let seq = spec.run();
        held("sequential", seq.digest, seq.events, seq.sink_records)?;
        if spec.pdes() {
            let par = spec.run_threaded();
            held(
                "threaded",
                par.digest(),
                par.obs.processed,
                par.obs.sink_records,
            )?;
        }
    }
    Ok(runs.len())
}
