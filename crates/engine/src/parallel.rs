//! Thread-per-region parallel PDES execution over the SPSC rings.
//!
//! Each scheduler region runs its own dispatch loop on an OS thread, in
//! **epochs**:
//!
//! 1. every worker drains its inbound [`simcore::spsc`] rings (cross-cut
//!    deliveries and cut-credit returns from the other regions), applies
//!    them under their explicit [`CROSS_BIT`](crate::world::CROSS_BIT)
//!    keys, and publishes the timestamp of its next pending event;
//! 2. an [`EpochBarrier`] synchronizes; each worker computes the global
//!    minimum `m` of the published clocks and — from the *transitive
//!    closure* of the region lookahead matrix — its private dispatch cap
//!    `min over all s (including r itself) of (next[s] + L[s→r] - 1)`,
//!    clipped to the horizon. The diagonal `L[r→r]` is the shortest
//!    lookahead *cycle* through other regions, which paces a region
//!    against its own echo (deliveries whose processing sends cut
//!    credits back);
//! 3. each worker dispatches independently up to its cap, staging
//!    outbound cross messages in its world's outbox, then ships them over
//!    the rings (falling back to a shared overflow vector if a ring
//!    fills);
//! 4. a second barrier ends the epoch; when `m` exceeds the horizon every
//!    worker breaks (they all computed the same `m`, so they all break in
//!    the same epoch).
//!
//! # Why the closure, not the direct matrix
//!
//! With direct edges only, a chain `A → B → C` with no direct `A → C`
//! channel would let `C` run arbitrarily far ahead of `A` even though an
//! `A` event can reach `C` *through `B`* — `next[B]` does not reflect
//! messages still in flight from `A`. The shortest-path closure
//! `L[s→r]` bounds the earliest instant any *transitively* reachable
//! message from `s` can arrive at `r`, which makes the cap safe:
//! every in-flight or future message from `s` arrives at or after
//! `next[s] + L[s→r] > cap`.
//!
//! # Determinism
//!
//! Each worker constructs its **own complete replica** of the simulation
//! by calling the factory — worlds never cross threads, records ship by
//! value, and nothing here requires `Send` simulation internals. The
//! replica prunes its queue to its own region
//! ([`retain_region`](simcore::queue::FutureEventList::retain_region));
//! region-major pop order plus explicitly keyed cross events make every
//! replica pop its region's events in exactly the order the sequential
//! PDES engine ([`CrossMode::Inline`]) pops them, so the merged
//! [`Observables`] digest equals the sequential digest at the same
//! `resume_latency`. Proptests in the workspace root enforce this across
//! random graphs and region counts.
//!
//! When the factory's world is not in PDES mode (`resume_latency == 0` or
//! a single region), the executor falls back to the plain sequential
//! `run_until` — byte-identical to every pre-existing digest.

use simcore::sync::{AtomicU64, Ordering};
use std::sync::Mutex;

use simcore::spsc::{ring, Consumer, EpochBarrier, Producer};
use simcore::time::SimTime;

use crate::bus::{merge_region_logs, BusEvent, BusEventKind, BusSummary};
use crate::world::{CrossMode, CrossMsg, Observables, Sim};

/// Capacity of each inter-region SPSC ring, in messages. A full ring is
/// not a stall: overflow spills into a mutex-guarded vector drained at the
/// same point in the next epoch (message order across the two paths is
/// irrelevant — every cross event carries its own explicit key).
const RING_CAP: usize = 4096;

/// Publish one cumulative `SyncEpoch` bus event every this many epochs
/// (plus the totals after the loop). Epoch counts are lock-stepped and
/// deterministic, so the resulting bus stream is too — but at fine
/// `resume_latency` an epoch is far more frequent than a metrics sample,
/// so the bus samples the accounting rather than flooding the log.
const SYNC_EPOCH_EVERY: u64 = 64;

/// Per-worker epoch accounting, summed across workers in the report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Barrier rounds executed (including the final all-idle round).
    pub epochs: u64,
    /// Rounds in which this worker's cap reached its next pending event,
    /// i.e. it actually dispatched.
    pub busy_epochs: u64,
    /// Cross messages shipped over the rings.
    pub msgs_sent: u64,
    /// Cross messages that hit a full ring and took the overflow path.
    pub msgs_overflowed: u64,
}

impl EpochStats {
    fn absorb(&mut self, o: &EpochStats) {
        // Epochs are lock-stepped: every worker runs the same count.
        self.epochs = self.epochs.max(o.epochs);
        self.busy_epochs += o.busy_epochs;
        self.msgs_sent += o.msgs_sent;
        self.msgs_overflowed += o.msgs_overflowed;
    }
}

/// Result of a [`run_parallel`] execution.
#[derive(Debug)]
pub struct ParallelReport {
    /// Merged observables — digest-comparable against the sequential
    /// engine at the same configuration (see [`Observables::merge`]).
    pub obs: Observables,
    /// Events dispatched by each region's worker, indexed by region.
    pub per_region_events: Vec<u64>,
    /// Epoch/synchronization accounting summed across workers.
    pub stats: EpochStats,
    /// OS threads actually used (1 on the sequential fallback).
    pub threads: usize,
    /// Bus events from all replicas, deterministically merged: per-region
    /// logs folded in region order by stable `(at, region)` sort —
    /// exactly the [`Observables::merge`] key (see
    /// [`merge_region_logs`]). Empty with the default `Null` sink.
    pub bus_events: Vec<BusEvent>,
    /// Bus counters summed across replicas (deterministic — every counter
    /// is a function of the simulated timeline).
    pub bus: BusSummary,
}

impl ParallelReport {
    /// Digest of the merged observables.
    pub fn digest(&self) -> u64 {
        self.obs.digest()
    }
}

/// Floyd–Warshall shortest-path closure of the row-major `k × k`
/// lookahead matrix, with saturating addition (`SimTime::MAX` =
/// unreachable).
///
/// The diagonal is re-initialized to `MAX` before the relaxation, so
/// `L[r→r]` comes out as the shortest *cycle* through other regions (or
/// `MAX` when the region graph is acyclic at `r`). The cycle entry is
/// load-bearing: a region's own earliest event can induce a message chain
/// that loops back to it (deliver out, cut-credit back), so its dispatch
/// cap must include `next[r] + L[r→r] - 1` — otherwise a region whose
/// peers are all momentarily idle (`next = MAX`) would race to the
/// horizon unpaced and receive its own echo in its past.
fn lookahead_closure(direct: &[SimTime], k: usize) -> Vec<SimTime> {
    let mut l = direct.to_vec();
    for a in 0..k {
        l[a * k + a] = SimTime::MAX;
    }
    for via in 0..k {
        for a in 0..k {
            let av = l[a * k + via];
            if av == SimTime::MAX {
                continue;
            }
            for b in 0..k {
                let vb = l[via * k + b];
                if vb == SimTime::MAX {
                    continue;
                }
                let cand = av.saturating_add(vb);
                if cand < l[a * k + b] {
                    l[a * k + b] = cand;
                }
            }
        }
    }
    l
}

/// Per-worker endpoints of the inter-region rings: `prods[d]` sends to
/// region `d`, `cons[s]` receives from region `s` (`None` on the
/// diagonal).
struct Mailbox {
    prods: Vec<Option<Producer<CrossMsg>>>,
    cons: Vec<Option<Consumer<CrossMsg>>>,
}

struct WorkerOut {
    obs: Observables,
    events: u64,
    stats: EpochStats,
    bus_events: Vec<BusEvent>,
    bus: BusSummary,
}

/// One region's epoch loop (runs on its own thread; worker 0 runs on the
/// caller's thread, reusing the probe simulation).
#[allow(clippy::too_many_arguments)]
fn drive(
    r: usize,
    k: usize,
    horizon: SimTime,
    mut sim: Sim,
    mut mb: Mailbox,
    l: &[SimTime],
    next: &[AtomicU64],
    barrier_a: &EpochBarrier,
    barrier_b: &EpochBarrier,
    overflow: &[Mutex<Vec<CrossMsg>>],
) -> WorkerOut {
    sim.world.set_cross_mode(CrossMode::Outbox);
    sim.world.q.retain_region(r);
    let mut stats = EpochStats::default();
    loop {
        // Drain inbound cross traffic. Everything visible here was pushed
        // before the previous epoch's closing barrier, so the rings are
        // quiescent during the drain.
        for s in 0..k {
            if let Some(c) = mb.cons[s].as_mut() {
                while let Some(m) = c.pop() {
                    sim.world.apply_cross_msg(m);
                }
            }
        }
        {
            let mut ov = overflow[r].lock().expect("overflow poisoned");
            for m in ov.drain(..) {
                sim.world.apply_cross_msg(m);
            }
        }
        // Publish this region's clock, then synchronize: after the
        // barrier every worker reads the same snapshot (no store can
        // happen until all workers pass the closing barrier below).
        let t = sim.world.q.peek_time().unwrap_or(SimTime::MAX);
        next[r].store(t, Ordering::SeqCst);
        barrier_a.wait();
        let mut m = SimTime::MAX;
        for s in next.iter().take(k) {
            m = m.min(s.load(Ordering::SeqCst));
        }
        stats.epochs += 1;
        if m <= horizon {
            let mut cap = horizon;
            for s in 0..k {
                // `s == r` participates: L[r→r] is the shortest cycle back
                // to this region, bounding the earliest self-induced echo.
                let ns = next[s].load(Ordering::SeqCst);
                cap = cap.min(ns.saturating_add(l[s * k + r]).saturating_sub(1));
            }
            // Progress: the worker holding the global minimum always has
            // cap >= its head (all finite off-diagonal L entries are > 0),
            // so every epoch with m <= horizon dispatches somewhere.
            if t <= cap {
                stats.busy_epochs += 1;
            }
            sim.dispatch_until(cap);
            let mut out = sim.world.take_outbox();
            for msg in out.drain(..) {
                let dst = msg.dst;
                match mb.prods[dst].as_mut().expect("no self ring").push(msg) {
                    Ok(()) => stats.msgs_sent += 1,
                    Err(msg) => {
                        stats.msgs_overflowed += 1;
                        overflow[dst].lock().expect("overflow poisoned").push(msg);
                    }
                }
            }
            sim.world.put_outbox_scratch(out);
            if sim.world.bus.enabled() && stats.epochs % SYNC_EPOCH_EVERY == 1 {
                // Cumulative sync accounting, sampled every
                // `SYNC_EPOCH_EVERY` epochs. `merged` is the ring+overflow
                // *sum*: the repo only guarantees the sum is deterministic,
                // never the split.
                let ev = BusEventKind::SyncEpoch {
                    epochs: stats.epochs,
                    dispatched: sim.world.q.processed(),
                    merged: stats.msgs_sent + stats.msgs_overflowed,
                    grants: stats.busy_epochs,
                };
                sim.world.bus.publish(m, r as u8, ev);
            }
        }
        barrier_b.wait();
        if m > horizon {
            // All queues sit beyond the horizon and nothing is in flight
            // (nobody dispatched this epoch, and all earlier messages were
            // drained above). Every worker saw the same m — the cohort
            // breaks together.
            break;
        }
    }
    sim.world.q.advance_clock_to(horizon);
    if sim.world.bus.enabled() {
        // Final cumulative totals; the replica's log then goes to the
        // region-order fold.
        let ev = BusEventKind::SyncEpoch {
            epochs: stats.epochs,
            dispatched: sim.world.q.processed(),
            merged: stats.msgs_sent + stats.msgs_overflowed,
            grants: stats.busy_epochs,
        };
        sim.world.bus.publish(horizon, r as u8, ev);
    }
    WorkerOut {
        events: sim.world.q.processed(),
        obs: sim.world.observables(),
        stats,
        bus: sim.world.bus.summary(),
        bus_events: sim.world.bus.take_log(),
    }
}

/// Run the simulation to `horizon` with one executor thread per scheduler
/// region.
///
/// `factory` must build a fresh, identical simulation each call (same
/// config, same seed, same graph): each worker thread constructs its own
/// replica, so nothing in the simulation needs to be `Send`. When the
/// built world is not in PDES mode (`resume_latency == 0` or fewer than
/// two regions) the probe replica simply runs `run_until(horizon)`
/// sequentially on the calling thread.
pub fn run_parallel<F>(factory: F, horizon: SimTime) -> ParallelReport
where
    F: Fn() -> Sim + Sync,
{
    let mut probe = factory();
    let k = probe.world.region_map.k();
    if !probe.world.pdes() {
        probe.run_until(horizon);
        let per_region_events = vec![probe.world.q.processed()];
        return ParallelReport {
            obs: probe.world.observables(),
            per_region_events,
            stats: EpochStats::default(),
            threads: 1,
            bus: probe.world.bus.summary(),
            bus_events: probe.world.bus.take_log(),
        };
    }

    let l = lookahead_closure(probe.world.region_map.lookahead(), k);
    for a in 0..k {
        for b in 0..k {
            assert!(
                a == b || l[a * k + b] > 0,
                "zero transitive lookahead {a} -> {b}: PDES mode requires every \
                 cross-region latency (net, ctrl, resume) to be positive"
            );
        }
    }

    // Wire the k*(k-1) directed rings.
    let mut boxes: Vec<Mailbox> = (0..k)
        .map(|_| Mailbox {
            prods: (0..k).map(|_| None).collect(),
            cons: (0..k).map(|_| None).collect(),
        })
        .collect();
    for s in 0..k {
        for d in 0..k {
            if s == d {
                continue;
            }
            let (p, c) = ring::<CrossMsg>(RING_CAP);
            boxes[s].prods[d] = Some(p);
            boxes[d].cons[s] = Some(c);
        }
    }
    let next: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
    let barrier_a = EpochBarrier::new(k);
    let barrier_b = EpochBarrier::new(k);
    let overflow: Vec<Mutex<Vec<CrossMsg>>> = (0..k).map(|_| Mutex::new(Vec::new())).collect();

    let mut outs: Vec<Option<WorkerOut>> = (0..k).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut boxes_iter = boxes.into_iter();
        let mb0 = boxes_iter.next().expect("k >= 2");
        let mut handles = Vec::with_capacity(k - 1);
        for (i, mb) in boxes_iter.enumerate() {
            let r = i + 1;
            let (factory, l, next) = (&factory, &l, &next);
            let (barrier_a, barrier_b, overflow) = (&barrier_a, &barrier_b, &overflow);
            handles.push(scope.spawn(move || {
                drive(
                    r,
                    k,
                    horizon,
                    factory(),
                    mb,
                    l,
                    next,
                    barrier_a,
                    barrier_b,
                    overflow,
                )
            }));
        }
        // The probe becomes worker 0 on the calling thread.
        outs[0] = Some(drive(
            0, k, horizon, probe, mb0, &l, &next, &barrier_a, &barrier_b, &overflow,
        ));
        for (i, h) in handles.into_iter().enumerate() {
            outs[i + 1] = Some(h.join().expect("region worker panicked"));
        }
    });

    let outs: Vec<WorkerOut> = outs
        .into_iter()
        .map(|o| o.expect("worker result"))
        .collect();
    let per_region_events: Vec<u64> = outs.iter().map(|o| o.events).collect();
    let mut stats = EpochStats::default();
    let mut bus = BusSummary::default();
    for o in &outs {
        stats.absorb(&o.stats);
        bus.absorb(&o.bus);
    }
    let mut logs: Vec<Vec<BusEvent>> = Vec::with_capacity(k);
    let mut replicas: Vec<Observables> = Vec::with_capacity(k);
    for o in outs {
        logs.push(o.bus_events);
        replicas.push(o.obs);
    }
    ParallelReport {
        obs: Observables::merge(&replicas),
        per_region_events,
        stats,
        threads: k,
        bus_events: merge_region_logs(logs),
        bus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::scaling::NoScale;
    use crate::world::tests_support::{tiny_job, twin_jobs};
    use simcore::time::secs;

    fn cfg(regions: usize, resume_latency: SimTime) -> EngineConfig {
        EngineConfig {
            regions,
            resume_latency,
            ..EngineConfig::test()
        }
    }

    #[test]
    fn closure_tightens_multi_hop_paths() {
        const X: SimTime = SimTime::MAX;
        // A→B=10, B→C=5, no direct A→C: closure must find 15.
        let direct = vec![0, 10, X, X, 0, 5, X, X, 0];
        let l = lookahead_closure(&direct, 3);
        assert_eq!(l[2], 15, "A→C through B");
        assert_eq!(l[3], X, "B→A stays unreachable");
        // No edge re-enters A: its self-cycle entry must stay unreachable.
        assert_eq!(l[0], X, "A has no cycle");
    }

    #[test]
    fn closure_diagonal_is_the_shortest_cycle() {
        // A→B=10, B→A=3: both regions are paced by the 13-cycle.
        let direct = vec![0, 10, 3, 0];
        let l = lookahead_closure(&direct, 2);
        assert_eq!(l[0], 13, "A→B→A cycle");
        assert_eq!(l[3], 13, "B→A→B cycle");
        assert_eq!(l[1], 10);
        assert_eq!(l[2], 3);
    }

    #[test]
    fn parallel_matches_sequential_on_a_cut_pipeline() {
        for &rl in &[100, 2_000] {
            let factory = || {
                let (w, _) = tiny_job(cfg(2, rl), 20_000.0, 256, 4);
                Sim::new(w, Box::new(NoScale))
            };
            let mut seq = factory();
            assert!(seq.world.pdes(), "config must engage PDES mode");
            seq.run_until(secs(1));
            let sobs = seq.world.observables();
            let par = run_parallel(factory, secs(1));
            assert_eq!(par.threads, 2);
            assert_eq!(par.obs.processed, sobs.processed, "rl={rl}");
            assert_eq!(par.obs.sink_records, sobs.sink_records, "rl={rl}");
            assert_eq!(par.digest(), sobs.digest(), "rl={rl}");
        }
    }

    #[test]
    fn disjoint_pipelines_finish_in_one_busy_epoch() {
        let factory = || {
            let w = twin_jobs(cfg(2, 100), 20_000.0, 256, 2, 2);
            Sim::new(w, Box::new(NoScale))
        };
        let mut seq = factory();
        seq.run_until(secs(1));
        let sobs = seq.world.observables();
        let par = run_parallel(factory, secs(1));
        assert_eq!(par.digest(), sobs.digest());
        // No cut channels → infinite lookahead → one dispatching epoch
        // plus the final all-idle round.
        assert_eq!(par.stats.epochs, 2);
        assert_eq!(par.stats.msgs_sent + par.stats.msgs_overflowed, 0);
    }

    #[test]
    fn bus_is_digest_neutral_and_deterministic_in_parallel() {
        use crate::bus::BusSinkKind;
        let factory_with = |sink: BusSinkKind| {
            move || {
                let mut c = cfg(2, 100);
                c.bus_sink = sink;
                let (w, _) = tiny_job(c, 20_000.0, 256, 4);
                Sim::new(w, Box::new(NoScale))
            }
        };
        let off = run_parallel(factory_with(BusSinkKind::Null), secs(1));
        let on1 = run_parallel(factory_with(BusSinkKind::Mem), secs(1));
        let on2 = run_parallel(factory_with(BusSinkKind::Mem), secs(1));
        // Observing must not steer: digests identical bus-on vs bus-off.
        assert_eq!(on1.digest(), off.digest());
        assert_eq!(off.bus.published, 0);
        assert!(off.bus_events.is_empty());
        // The merged emission and every counter are run-to-run stable.
        assert!(on1.bus.published > 0, "replicas published nothing");
        assert_eq!(on1.bus, on2.bus);
        assert_eq!(on1.bus_events, on2.bus_events);
        assert_eq!(
            on1.bus_events.len() as u64,
            on1.bus.published,
            "lost events"
        );
        // The fold is ordered by the Observables::merge key.
        for w in on1.bus_events.windows(2) {
            assert!((w[0].at, w[0].region) <= (w[1].at, w[1].region));
        }
    }
}
