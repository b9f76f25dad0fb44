//! The pin store: every pinned run is a row of one text format, checked by
//! [`check`] and rewritten by [`bless`].
//!
//! The store is the files of [`STORE`] under `crates/bench/golden/`, one
//! row per line (`#` starts a comment line):
//!
//! ```text
//! name regions resume_latency digest events sink_records [column=value ...]
//! ```
//!
//! `name` is a [`Pinned`] run. A row at `1 0` is the sequential engine; a
//! row at `K L` with `K > 1`, `L > 0` is PDES mode and runs on the
//! sequential PDES engine *and* the thread-per-region executor, so one
//! check also proves threaded == sequential. After the three counts come
//! exactly the named columns the run reports ([`Pinned::columns`]), each
//! once. The digest and a column whose name ends in `_hash` or `_bits`
//! are `0x`-prefixed hex, every other value decimal. Every row carries
//! `sink_hash`, the sink-content hash, which the digest does not cover:
//! two runs whose sinks absorbed equal multisets of records have equal
//! hashes, whatever the order.
//!
//! A change that moves a pinned value on purpose runs `scenario --bless`,
//! which reruns every row, rewrites the store and reports each moved row
//! (with its sink-hash verdict) and column, old → new, for CHANGES.md.

use std::fmt;

use simcore::time::SimTime;

use super::registry::{self, Pinned};
use crate::parse_value;

/// The store's files, each with the name prefix of the runs it pins.
pub const STORE: [(&str, &str); 2] = [("perf_digests.txt", "perf/"), ("pins.txt", "pins/")];

/// The three values every row carries before its named columns.
const COUNTS: [&str; 3] = ["digest", "events", "sink_records"];

/// What a run is pinned on, column by column: the metrics digest, the
/// logical events and the sink records, then its named columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome(Vec<(String, u64)>);

impl Outcome {
    /// `(digest, events, sink_records)` and the named columns, in row order.
    pub(crate) fn new<'a>(
        (digest, events, sink_records): (u64, u64, u64),
        named: impl IntoIterator<Item = (&'a str, u64)>,
    ) -> Self {
        let counts = COUNTS.into_iter().zip([digest, events, sink_records]);
        Self(counts.chain(named).map(|(c, v)| (c.into(), v)).collect())
    }

    /// The value of column `name` (a count or a named column).
    pub fn column(&self, name: &str) -> Option<u64> {
        self.0.iter().find(|(c, _)| c == name).map(|&(_, v)| v)
    }
}

/// Column `name`'s value as a row writes it.
fn cell(name: &str, v: u64) -> String {
    if name == "digest" || name.ends_with("_hash") || name.ends_with("_bits") {
        format!("0x{v:016x}")
    } else {
        v.to_string()
    }
}

fn parse_cell(name: &str, v: &str) -> Result<u64, String> {
    if !cell(name, 0).starts_with("0x") {
        return parse_value(name, v);
    }
    v.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("{name} {v:?}: want 0x-prefixed hex"))
}

/// `regions K, resume latency L, ENGINE engine`.
fn run_label(regions: usize, resume_latency: SimTime, engine: &str) -> String {
    format!("regions {regions}, resume latency {resume_latency}, {engine} engine")
}

/// Why [`check`] or [`bless`] failed, with the message to print.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GoldenError {
    /// The file was refused before anything ran: a malformed, repeated,
    /// unknown or missing row, or an unknown, repeated, missing or
    /// malformed column.
    Refused(String),
    /// A run produced something other than its row (or, under [`bless`],
    /// the threaded engine something other than the sequential one):
    /// `NAME (regions K, resume latency L, ENGINE engine): COLUMN expected
    /// E, got A`, for the first column in row order that differs.
    Mismatch(String),
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Self::Refused(why) | Self::Mismatch(why)) = self;
        f.write_str(why)
    }
}

/// `Err` naming the first column of `expected` that `actual` differs on.
fn holds(expected: &Outcome, actual: &Outcome, name: &str, run: String) -> Result<(), GoldenError> {
    let moved = expected
        .0
        .iter()
        .find(|(c, v)| actual.column(c) != Some(*v));
    let Some((c, e)) = moved else {
        return Ok(());
    };
    let a = actual.column(c).expect("runs report every column");
    let (e, a) = (cell(c, *e), cell(c, a));
    Err(GoldenError::Mismatch(format!(
        "{name} ({run}): {c} expected {e}, got {a}"
    )))
}

/// One row of a store file.
struct Row {
    line: usize,
    name: String,
    regions: usize,
    resume_latency: SimTime,
    pinned: Outcome,
}

/// Parse one row: six fields, then `column=value` pairs, each column once
/// (any name: [`check`] matches the names against the run).
fn parse_row(line: usize, text: &str) -> Result<Row, String> {
    let fields: Vec<&str> = text.split_whitespace().collect();
    let [name, regions, resume_latency, digest, events, sinks, named @ ..] = fields.as_slice()
    else {
        return Err(format!(
            "want 6 fields (name regions resume_latency digest events sink_records) \
             before the named columns, got {}",
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
    let counts = COUNTS.into_iter().zip([*digest, *events, *sinks]).map(Ok);
    let named = named.iter().map(|f| {
        f.split_once('=')
            .ok_or_else(|| format!("column {f:?}: want name=value"))
    });
    let mut cells: Vec<(String, u64)> = Vec::new();
    for pair in counts.chain(named) {
        let (c, v) = pair?;
        if cells.iter().any(|(seen, _)| seen == c) {
            return Err(format!("repeats column {c}"));
        }
        cells.push((c.into(), parse_cell(c, v)?));
    }
    Ok(Row {
        line,
        name: name.to_string(),
        regions,
        resume_latency,
        pinned: Outcome(cells),
    })
}

/// The row text of run `name` at `regions resume_latency` with values `o`.
fn row_text(name: &str, regions: usize, resume_latency: SimTime, o: &Outcome) -> String {
    let mut text = format!("{name} {regions} {resume_latency}");
    for (i, (c, v)) in o.0.iter().enumerate() {
        let v = cell(c, *v);
        text += &if i < COUNTS.len() {
            format!(" {v}")
        } else {
            format!(" {c}={v}")
        };
    }
    text
}

/// One line of a store file.
enum Line<'a> {
    /// A comment or blank line, kept verbatim.
    Verbatim(&'a str),
    /// A row and the run it names.
    Row(Row, &'a Pinned),
}

/// Parse every line of `text`, pairing each row with the run of `runs` it
/// names: refuse a malformed row, a name no run has, a partition the run
/// cannot take and a repeated row, naming the line.
fn load<'a>(text: &'a str, runs: &'a [Pinned]) -> Result<Vec<Line<'a>>, GoldenError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() || raw.trim().starts_with('#') {
            out.push(Line::Verbatim(raw));
            continue;
        }
        let refused = |reason: String| GoldenError::Refused(format!("line {line}: {reason}"));
        let row = parse_row(line, raw.trim()).map_err(refused)?;
        let Some(run) = runs.iter().find(|r| r.name() == row.name) else {
            return Err(refused(format!("{} is not a pinned run", row.name)));
        };
        if let Some(reason) = run.refuses(row.regions) {
            return Err(refused(reason));
        }
        let key = |r: &Row| (r.name.clone(), r.regions, r.resume_latency);
        if let Some((first, _)) = rows(&out).find(|(r, _)| key(r) == key(&row)) {
            return Err(refused(format!("repeats the row on line {}", first.line)));
        }
        out.push(Line::Row(row, run));
    }
    Ok(out)
}

/// The rows of `lines`, with their runs.
fn rows<'l, 'a>(lines: &'l [Line<'a>]) -> impl Iterator<Item = (&'l Row, &'a Pinned)> {
    lines.iter().filter_map(|l| match l {
        Line::Row(row, run) => Some((row, *run)),
        Line::Verbatim(_) => None,
    })
}

/// The runs of `runs` under `prefix` that have no sequential row in
/// `lines`.
fn rowless<'r>(
    runs: &'r [Pinned],
    prefix: &'r str,
    lines: &'r [Line<'_>],
) -> impl Iterator<Item = &'r Pinned> {
    let pinned = |run: &Pinned| rows(lines).any(|(r, _)| r.name == run.name() && r.regions == 1);
    runs.iter()
        .filter(move |run| run.name().starts_with(prefix) && !pinned(run))
}

/// Run every `(regions, resume latency, run)` of `jobs` on a worker pool;
/// each result lists what every engine that ran it produced.
fn run_all(jobs: &[(usize, SimTime, &Pinned)]) -> Vec<Vec<(&'static str, Outcome)>> {
    crate::parallel_map(jobs.to_vec(), None, |(k, l, run)| run.run(k, l))
}

/// Check a build against the rows of `text` whose names start with
/// `prefix`. Every row of `text` must parse and name a pinned run (rows
/// outside `prefix` are not run); a checked row must carry exactly its
/// run's columns, and every pinned run under `prefix` its sequential `1 0`
/// row — all before anything runs, so a stale or damaged file is refused
/// in milliseconds. Then every checked row runs, PDES rows on both
/// engines, and the first row (in file order) that differs is the error.
/// Returns each checked row's outcome, in file order.
pub fn check(text: &str, prefix: &str) -> Result<Vec<Outcome>, GoldenError> {
    let runs = registry::pinned();
    let lines = load(text, &runs)?;
    let checked: Vec<_> = rows(&lines)
        .filter(|(row, _)| row.name.starts_with(prefix))
        .collect();
    for &(row, run) in &checked {
        let want: Vec<&str> = COUNTS.iter().chain(run.columns()).copied().collect();
        let refused = |reason| Err(GoldenError::Refused(format!("line {}: {reason}", row.line)));
        if let Some(c) = want.iter().find(|c| row.pinned.column(c).is_none()) {
            return refused(format!("missing column {c}"));
        }
        if let Some((c, _)) = row
            .pinned
            .0
            .iter()
            .find(|(c, _)| !want.contains(&c.as_str()))
        {
            return refused(format!("unknown column {c}"));
        }
    }
    if !runs.iter().any(|run| run.name().starts_with(prefix)) {
        let reason = format!("no pinned run starts with {prefix}");
        return Err(GoldenError::Refused(reason));
    }
    if let Some(run) = rowless(&runs, prefix, &lines).next() {
        let reason = format!("no sequential (`1 0`) row for {}", run.name());
        return Err(GoldenError::Refused(reason));
    }
    let jobs: Vec<_> = checked
        .iter()
        .map(|(r, run)| (r.regions, r.resume_latency, *run))
        .collect();
    let mut held = Vec::new();
    for ((row, _), engines) in checked.iter().zip(run_all(&jobs)) {
        for (engine, actual) in &engines {
            let run = run_label(row.regions, row.resume_latency, engine);
            holds(&row.pinned, actual, &row.name, run)?;
        }
        held.extend(engines.into_iter().next().map(|(_, o)| o));
    }
    Ok(held)
}

/// Rerun every row of the store file `text`, which pins the runs whose
/// names start with `prefix`, and return the rewritten file and the
/// report. In the file, comment lines and row order stay, each row takes
/// its run's values and columns, and a pinned run without a sequential
/// row gains one at the end. The report has a line for each new row and
/// for each moved row, with its sink-hash verdict, followed by every
/// column the row moved, dropped or added, `name old -> new` (`(none)`
/// for a column one side lacks). A row [`check`] refuses for its line
/// alone (malformed, unknown, repeated), or a row of a run outside
/// `prefix`, is refused, and so is a PDES row whose engines disagree.
pub fn bless(text: &str, prefix: &str) -> Result<(String, Vec<String>), GoldenError> {
    let runs = registry::pinned();
    let lines = load(text, &runs)?;
    if let Some((row, _)) = rows(&lines).find(|(row, _)| !row.name.starts_with(prefix)) {
        let reason = format!("line {}: {} is pinned outside {prefix}", row.line, row.name);
        return Err(GoldenError::Refused(reason));
    }
    let jobs: Vec<_> = rows(&lines)
        .map(|(r, run)| (r.regions, r.resume_latency, run))
        .chain(rowless(&runs, prefix, &lines).map(|run| (1, 0, run)))
        .collect();
    let (mut report, mut blessed) = (Vec::new(), Vec::new());
    let mut old_rows = rows(&lines).map(|(row, _)| row);
    for (&(k, l, run), engines) in jobs.iter().zip(run_all(&jobs)) {
        let seq = &engines[0].1;
        for (engine, other) in &engines[1..] {
            holds(seq, other, run.name(), run_label(k, l, engine))?;
        }
        let head = format!("{} {k} {l}", run.name());
        match old_rows.next() {
            Some(old) => report.extend(moved(&head, &old.pinned, seq)),
            None => report.push(format!("{head}: new row")),
        }
        blessed.push(row_text(run.name(), k, l, seq) + "\n");
    }
    let mut blessed = blessed.into_iter();
    let mut out: String = lines
        .iter()
        .map(|line| match line {
            Line::Verbatim(raw) => format!("{raw}\n"),
            Line::Row(..) => blessed.next().expect("one per row"),
        })
        .collect();
    out.extend(blessed);
    Ok((out, report))
}

/// The report lines of a blessed row, none if no column moved.
fn moved(head: &str, old: &Outcome, new: &Outcome) -> Vec<String> {
    let show = |o: &Outcome, c: &str| o.column(c).map_or("(none)".into(), |v| cell(c, v));
    let added = new.0.iter().filter(|(c, _)| old.column(c).is_none());
    let mut lines: Vec<String> = (old.0.iter().chain(added))
        .filter(|(c, _)| old.column(c) != new.column(c))
        .map(|(c, _)| format!("  {c} {} -> {}", show(old, c), show(new, c)))
        .collect();
    if !lines.is_empty() {
        let verdict = match (old.column("sink_hash"), new.column("sink_hash")) {
            (Some(a), Some(b)) if a == b => "sink content equal",
            (Some(_), Some(_)) => "sink content DIFFERS",
            _ => "no sink hash to compare",
        };
        lines.insert(0, format!("{head}: {verdict}"));
    }
    lines
}
