//! The scenario [`Runner`]: deterministic execution of spec grids, either
//! in-process (on [`crate::parallel_map`]) or sharded across processes.
//!
//! # Sharding model
//!
//! A sweep is a **canonically ordered** `Vec<ScenarioSpec>` (a figure's
//! registry plan, see [`super::figures`]). Shard `K/N` owns every grid
//! index `i` with `i % N == K` — a striped assignment, so the expensive
//! high-skew fig15 cells spread across shards instead of clustering in one.
//! The protocol is three invocations of the `scenario` binary:
//!
//! * `scenario --figure NAME --shard K/N --emit FILE` runs only shard
//!   `K/N`'s cells and writes them with [`write_shard`] as JSON tagged
//!   with the figure name and each cell's grid index (the file is created
//!   before the first cell runs, so a bad path costs no simulation);
//! * `scenario --figure NAME --merge FILE...` reads the shard files with
//!   [`merge_shards`], which verifies they belong to the same figure and
//!   grid and cover it exactly once, and returns the reports in canonical
//!   order;
//! * the figure then renders *byte-identically* to the unsharded
//!   `scenario --figure NAME`, because every cell is a deterministic
//!   function of its spec and `RunReport` JSON round-trips losslessly.
//!
//! A shard file that cannot be read or parsed is an error naming the file,
//! never a panic.

use std::path::Path;

use super::report::RunReport;
use super::ScenarioSpec;

/// One shard of a sweep: this process runs grid indices ≡ `index` mod
/// `count`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Which shard this is (0-based).
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parse the CLI form `K/N` (e.g. `0/2`). `K < N`, `N ≥ 1`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard {s:?} is not of the form K/N"))?;
        let index: usize = k.parse().map_err(|e| format!("shard index: {e}"))?;
        let count: usize = n.parse().map_err(|e| format!("shard count: {e}"))?;
        if count == 0 {
            return Err("shard count must be >= 1".into());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for /{count}"));
        }
        Ok(Self { index, count })
    }

    /// Does this shard own grid index `i`?
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index
    }

    /// The CLI form `K/N`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }
}

/// Executes scenario grids. A `Runner` is either whole-grid (the default)
/// or restricted to one [`Shard`], and optionally pins its worker-thread
/// count (otherwise `SWEEP_THREADS` / `available_parallelism` decide).
#[derive(Clone, Copy, Debug, Default)]
pub struct Runner {
    shard: Option<Shard>,
    threads: Option<usize>,
}

impl Runner {
    /// A runner that executes the whole grid in this process.
    pub fn in_process() -> Self {
        Self::default()
    }

    /// A runner that executes only `shard`'s stripe of the grid.
    pub fn sharded(shard: Shard) -> Self {
        Self {
            shard: Some(shard),
            threads: None,
        }
    }

    /// Pin the worker-pool size for this runner (`--threads N`). Takes
    /// precedence over the `SWEEP_THREADS` env var; each worker still runs
    /// one single-threaded deterministic simulation at a time.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Run the owned subset of `specs` on the worker pool and return
    /// `(grid index, report)` pairs in canonical grid order.
    pub fn run_indexed(&self, specs: &[ScenarioSpec]) -> Vec<(usize, RunReport)> {
        let picked: Vec<(usize, ScenarioSpec)> = specs
            .iter()
            .enumerate()
            .filter(|(i, _)| self.shard.map(|s| s.owns(*i)).unwrap_or(true))
            .map(|(i, s)| (i, s.clone()))
            .collect();
        crate::parallel_map(picked, self.threads, |(i, spec)| (i, spec.run()))
    }

    /// Run the full grid (requires an unsharded runner) and return reports
    /// in canonical order.
    pub fn run(&self, specs: &[ScenarioSpec]) -> Vec<RunReport> {
        assert!(
            self.shard.is_none(),
            "Runner::run on a sharded runner would silently drop cells; \
             use run_indexed + merge"
        );
        self.run_indexed(specs)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }
}

/// Write one shard's results as the JSON other processes can merge.
pub fn write_shard(
    mut out: impl std::io::Write,
    sweep: &str,
    grid_len: usize,
    shard: Shard,
    runs: &[(usize, RunReport)],
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"sweep\": \"{sweep}\",");
    let _ = writeln!(json, "  \"grid_len\": {grid_len},");
    let _ = writeln!(json, "  \"shard\": \"{}\",", shard.label());
    let _ = writeln!(json, "  \"runs\": [");
    for (n, (i, r)) in runs.iter().enumerate() {
        let comma = if n + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"grid_index\": {i},");
        let _ = writeln!(json, "      \"report\":");
        let _ = write!(json, "{}", r.to_json("      "));
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    out.write_all(json.as_bytes())
}

/// One parsed shard file.
pub struct ShardFile {
    /// The sweep name the shard belongs to (e.g. `fig15`).
    pub sweep: String,
    /// The full grid length the shard was cut from.
    pub grid_len: usize,
    /// `(grid index, report)` pairs.
    pub runs: Vec<(usize, RunReport)>,
}

/// Parse a shard file written by [`write_shard`]. Errors do not name the
/// file; [`merge_shards`] adds it.
pub fn read_shard(path: &Path) -> Result<ShardFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut sweep = None;
    let mut grid_len = None;
    let mut runs = Vec::new();
    let mut cur_index: Option<usize> = None;
    let mut cur_report = String::new();
    let mut in_report = false;
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if let Some(v) = t.strip_prefix("\"sweep\":") {
            sweep = Some(v.trim().trim_matches('"').to_string());
        } else if let Some(v) = t.strip_prefix("\"grid_len\":") {
            grid_len = Some(v.trim().parse().map_err(|e| format!("grid_len: {e}"))?);
        } else if let Some(v) = t.strip_prefix("\"grid_index\":") {
            cur_index = Some(v.trim().parse().map_err(|e| format!("grid_index: {e}"))?);
        } else if t == "\"report\":" {
            in_report = true;
            cur_report.clear();
        } else if in_report {
            cur_report.push_str(line);
            cur_report.push('\n');
            if line.trim() == "}" {
                in_report = false;
                let idx = cur_index
                    .take()
                    .ok_or_else(|| "report without grid_index".to_string())?;
                let report = RunReport::parse(&cur_report)
                    .map_err(|e| format!("run at grid index {idx}: {e}"))?;
                runs.push((idx, report));
            }
        }
    }
    Ok(ShardFile {
        sweep: sweep.ok_or("missing sweep name")?,
        grid_len: grid_len.ok_or("missing grid_len")?,
        runs,
    })
}

/// Merge shard files back into a full grid. Verifies every file belongs to
/// `sweep` over `specs`' grid, every report's scenario name matches its
/// grid slot (catching quick/full or stale-grid mixups), and the union of
/// shards covers each index **exactly once**.
pub fn merge_shards(
    sweep: &str,
    specs: &[ScenarioSpec],
    paths: &[impl AsRef<Path>],
) -> Result<Vec<RunReport>, String> {
    let mut slots: Vec<Option<RunReport>> = vec![None; specs.len()];
    for p in paths {
        let p = p.as_ref();
        let file = read_shard(p).map_err(|e| format!("{}: {e}", p.display()))?;
        if file.sweep != sweep {
            return Err(format!(
                "{}: sweep {:?} does not match {sweep:?}",
                p.display(),
                file.sweep
            ));
        }
        if file.grid_len != specs.len() {
            return Err(format!(
                "{}: grid length {} does not match the current grid ({}) — \
                 was the shard produced with a different QUICK setting?",
                p.display(),
                file.grid_len,
                specs.len()
            ));
        }
        for (i, r) in file.runs {
            if i >= specs.len() {
                return Err(format!("{}: grid index {i} out of range", p.display()));
            }
            if r.scenario != specs[i].name {
                return Err(format!(
                    "{}: grid index {i} holds {:?}, expected {:?}",
                    p.display(),
                    r.scenario,
                    specs[i].name
                ));
            }
            if slots[i].is_some() {
                return Err(format!(
                    "{}: grid index {i} ({}) covered by more than one shard",
                    p.display(),
                    r.scenario
                ));
            }
            slots[i] = Some(r);
        }
    }
    let missing: Vec<String> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| format!("{i} ({})", specs[i].name))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "shards do not cover the grid: missing {} cell(s): {}",
            missing.len(),
            missing.join(", ")
        ));
    }
    Ok(slots.into_iter().map(|s| s.expect("verified")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parse_accepts_k_of_n_and_rejects_junk() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert_eq!(Shard::parse("4/5").unwrap(), Shard { index: 4, count: 5 });
        assert!(Shard::parse("2/2").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
    }

    #[test]
    fn shards_partition_the_grid() {
        for n in [1usize, 2, 3, 5, 7] {
            let mut owners = vec![0u32; 100];
            for k in 0..n {
                let s = Shard { index: k, count: n };
                for (i, o) in owners.iter_mut().enumerate() {
                    if s.owns(i) {
                        *o += 1;
                    }
                }
            }
            assert!(
                owners.iter().all(|&o| o == 1),
                "N={n}: some index owned != once"
            );
        }
    }
}
