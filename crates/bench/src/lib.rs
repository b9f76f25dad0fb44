//! `bench` — the experiment harness regenerating every figure of the paper.
//!
//! Two binaries: `scenario` runs named registry scenarios and renders the
//! paper's figures, and `drrs_sim` runs any workload × mechanism × scale
//! combination given on its command line. `scenario --figure NAME`
//! reproduces one figure's rows/series:
//!
//! | `--figure` | Paper figure |
//! |---|---|
//! | `fig02`    | Fig. 2 — Unbound vs OTFS vs No-Scale overhead decomposition |
//! | `fig10_11` | Fig. 10 (latency) + Fig. 11 (throughput) on Q7/Q8/Twitch |
//! | `fig12_13` | Fig. 12 (propagation/dependency overheads) + Fig. 13 (suspension) |
//! | `fig14`    | Fig. 14 — mechanism ablation on Twitch |
//! | `fig15`    | Fig. 15 — sensitivity grid (rate × state × skew) |
//! | `ablation` | design-choice ablations beyond Fig. 14 (subscales, concurrency, re-routing, windows) |
//!
//! Every run either binary performs is a [`scenario::ScenarioSpec`] —
//! the figures' from [`scenario::registry`], `drrs_sim`'s built from its
//! flags — executed by [`scenario::run_all`] or `ScenarioSpec::build_sim`.
//! See the [`scenario`] module docs for the spec → registry → run →
//! report lifecycle and the determinism contract. A figure's grid runs in
//! one process on a `--threads N` worker pool, and its text is the same
//! at every `N`.
//!
//! Set `QUICK=1` in the environment for compressed timelines (CI-friendly);
//! the default timelines follow the paper (scale at 300 s, etc.).

pub mod scenario;

/// Is quick mode (compressed timelines) enabled? The `QUICK` env var is
/// read **once** and latched for the process lifetime: scenario grids,
/// horizons and stabilization holds must all agree on the same mode, and a
/// mid-run env change (e.g. from a test harness) must not produce a
/// half-quick, half-full timeline.
pub fn quick() -> bool {
    use std::sync::OnceLock;
    static QUICK: OnceLock<bool> = OnceLock::new();
    *QUICK.get_or_init(|| std::env::var("QUICK").map(|v| v == "1").unwrap_or(false))
}

/// The value following the flag at `args[i]`, for the binaries' strict
/// argument loops: a flag that needs a value and is the last argument is
/// an error, never a silent fall-back to a default.
pub fn flag_value(args: &[String], i: usize) -> Result<&str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[i]))
}

/// Parse the value `v` of `flag` (or of a named field of an input file),
/// with the error the strict argument loops print: what, the text, why.
pub fn parse_value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))
}

/// Run `f` over `items` on a pool of OS threads (one simulation per
/// thread; each simulation stays single-threaded and deterministic) and
/// return the results **in input order** — figure output must not depend
/// on which configuration finishes first.
///
/// Workers pull the next unstarted item from a shared cursor, so uneven
/// per-cell runtimes (high-skew cells run much longer) still load-balance.
/// The worker count is `threads` (e.g. from `--threads N`), or
/// `available_parallelism` when it is `None` or 0, capped by the item
/// count.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .min(n);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("unpoisoned")
                    .take()
                    .expect("taken once");
                let r = f(item);
                *results[i].lock().expect("unpoisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("unpoisoned")
                .expect("worker filled slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let out = parallel_map((0..256u64).collect::<Vec<_>>(), None, |i| i * 2);
        assert_eq!(out, (0..256u64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert!(parallel_map(Vec::<u8>::new(), None, |x| x).is_empty());
        assert_eq!(parallel_map(vec![7u8], None, |x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_with_explicit_thread_count_preserves_order() {
        for threads in [1, 2, 7] {
            let out = parallel_map((0..64u64).collect::<Vec<_>>(), Some(threads), |i| i + 1);
            assert_eq!(out, (1..=64u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn harness_runs_end_to_end() {
        use scenario::{MechanismSpec, ScaleSpec, ScenarioSpec, WorkloadSpec};
        use simcore::time::secs;
        let spec = ScenarioSpec {
            name: "test/harness_smoke".into(),
            engine: scenario::EngineProfile::Perf,
            check_semantics: false,
            seed: 0xD225,
            workload: WorkloadSpec::TinyJob {
                rate: 2_000.0,
                universe: 128,
                par: 2,
            },
            mechanism: MechanismSpec::Flex(drrs_core::MechanismConfig::drrs()),
            scale: Some(ScaleSpec { at: secs(1), to: 3 }),
            horizon: secs(6),
            regions: 1,
            resume_latency: 0,
            bus_sink: Default::default(),
        };
        let r = spec.run();
        assert!(r.migration_done.is_some());
        assert_eq!(r.violations, 0);
        let (peak, mean) = r.latency_ms(0, secs(6));
        assert!(peak >= mean);
    }
}
