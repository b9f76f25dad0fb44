//! Criterion micro-benchmarks for the engine's hot paths: the event queue,
//! key-group routing, the state backend's migration primitives, sliding-
//! window panes, the Zipf sampler, and a small end-to-end simulation
//! throughput benchmark (events/second of simulated pipeline).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use simcore::time::secs;
use simcore::{DetRng, EventQueue, FutureEventList, Zipf};
use streamflow::ids::{key_group_of, InstId, KeyGroup};
use streamflow::keygroup::{uniform_repartition, RoutingTable};
use streamflow::state::{StateBackend, StateValue};
use streamflow::window::{Agg, PaneSet};
use streamflow::world::tests_support::tiny_job;
use streamflow::world::Sim;
use streamflow::{EngineConfig, NoScale};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    // Fill-then-drain from empty. (Output recorded before the binary-heap
    // backend was deleted measured the heap under this name.)
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = FutureEventList::new();
            for i in 0..10_000u64 {
                q.schedule(i % 97, i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// A delay from the simulator's short-horizon-heavy mix: mostly sub-ms
/// deliveries/quanta, some 10 ms-scale ticks, a few far-future timers
/// (checkpoints, deploys) — the distribution the calendar queue is tuned
/// for.
#[inline]
fn sim_like_delay(rng: &mut DetRng) -> u64 {
    match rng.below(100) {
        0..=79 => 20 + rng.below(1_000),      // deliveries, service quanta
        80..=97 => 5_000 + rng.below(20_000), // ticks, markers, samples
        _ => 500_000 + rng.below(3_000_000),  // checkpoints, deploy delays
    }
}

fn bench_scheduler_backends(c: &mut Criterion) {
    // Steady-state churn at a fixed pending population: pop one, schedule
    // one. This is the future-event list's life inside the dispatch loop —
    // the population stays put while time advances, where the calendar
    // queue aims at O(1) per event. Group and bench names are unchanged
    // from when a heap ran next to it, so unit costs stay comparable.
    const CHURN: u64 = 10_000;
    let mut g = c.benchmark_group("scheduler_backends");
    g.throughput(Throughput::Elements(CHURN));
    for pending in [1_000usize, 100_000] {
        let name = format!("churn_calendar_{pending}_pending");
        g.bench_function(&name, |b| {
            b.iter_with_setup(
                || {
                    let mut q: FutureEventList<u64> = FutureEventList::with_capacity(pending);
                    let mut rng = DetRng::seed(7);
                    for i in 0..pending as u64 {
                        q.schedule(sim_like_delay(&mut rng), i);
                    }
                    (q, rng)
                },
                |(mut q, mut rng)| {
                    let mut acc = 0u64;
                    for i in 0..CHURN {
                        let (_, e) = q.pop().expect("pending events");
                        acc = acc.wrapping_add(e);
                        q.schedule(sim_like_delay(&mut rng), i);
                    }
                    black_box((acc, q.len()))
                },
            )
        });
    }
    g.finish();
}

fn bench_batch_drain(c: &mut Criterion) {
    // Massed-instant churn: the engine's pending set is bursty — hundreds
    // of deliveries at a handful of instants, then a lull — so the batch
    // drain's claim is amortizing the cursor walk and per-pop bookkeeping
    // over a whole same-instant run. Compare popping such runs one event
    // at a time against `pop_run_at_most`, at steady pending populations
    // of 1k and 100k.
    const CHURN: u64 = 10_000;
    /// Events per massed instant (≈ one 10 ms source tick's deliveries in
    /// the 50K rec/s scenarios).
    const RUN: u64 = 100;
    let mut g = c.benchmark_group("batch_drain");
    g.throughput(Throughput::Elements(CHURN));
    for pending in [1_000usize, 100_000] {
        let setup = move || {
            let mut q: FutureEventList<u64> = FutureEventList::with_capacity(pending);
            let mut rng = DetRng::seed(11);
            // Massed mix: bursts of RUN events at shared instants,
            // instants a few hundred µs apart, plus a sprinkle of
            // stragglers and far-future timers.
            let mut at = 0u64;
            let mut i = 0u64;
            while (i as usize) < pending {
                at += 100 + rng.below(400);
                let n = match rng.below(10) {
                    0 => 1,       // straggler
                    1 => RUN / 4, // partial burst
                    _ => RUN,     // full massed instant
                };
                for _ in 0..n {
                    q.schedule_at(at, i);
                    i += 1;
                }
            }
            // The drain buffer is setup state, like the driver's
            // persistent scratch buffer — its warm-up allocation must
            // not be charged to the timed batch loop.
            (q, Vec::with_capacity(RUN as usize))
        };
        let name = |mode: &str| format!("{mode}_calendar_{pending}_pending");
        // Reschedule offset derived from the instant, not an RNG: both
        // loops must evolve the *same* schedule (a per-pop RNG draw
        // would fragment massed runs on the single-pop side only, and
        // the A/B would measure workload divergence, not dispatch
        // cost). Same offset for every event of an instant keeps each
        // run massed at its new instant.
        let re_offset = |at: u64| 50_000 + (at % 3) * 400;
        g.bench_function(&name("single_pop"), |b| {
            b.iter_with_setup(setup, |(mut q, _buf)| {
                let mut acc = 0u64;
                let mut popped = 0u64;
                while popped < CHURN {
                    let (at, e) = q.pop().expect("pending events");
                    acc = acc.wrapping_add(e);
                    popped += 1;
                    // Keep the population and the massing steady:
                    // reschedule into a future massed instant.
                    q.schedule_at(at + re_offset(at), e);
                }
                black_box((acc, q.len()))
            })
        });
        g.bench_function(&name("batch"), |b| {
            b.iter_with_setup(setup, |(mut q, mut buf)| {
                let mut acc = 0u64;
                let mut popped = 0u64;
                // The final run may overshoot CHURN by up to RUN-1
                // pops (a run drains whole); both arms are credited
                // CHURN elements, so the ≤1% overshoot biases
                // *against* batch — the reported gain is conservative.
                while popped < CHURN {
                    let at = q
                        .pop_run_at_most(u64::MAX, &mut buf)
                        .expect("pending events");
                    popped += buf.len() as u64;
                    let re_at = at + re_offset(at);
                    for &e in &buf {
                        acc = acc.wrapping_add(e);
                        q.schedule_at(re_at, e);
                    }
                }
                black_box((acc, q.len()))
            })
        });
    }
    g.finish();
}

fn bench_region_sync(c: &mut Criterion) {
    // The PDES region scheduler's overheads in isolation, next to
    // `batch_drain` (its single-queue counterpart):
    //
    // * `spsc_ring_*` — the cross-region transport: cost of moving 8-byte
    //   record handles through the bounded SPSC ring in burst-sized chunks
    //   (the shape a region drain produces).
    // * `churn_rK_*` — steady-state pop/schedule churn at 1 region (the
    //   plain list) and 2 regions (the region-major scheduler), at 1k and
    //   100k pending events. The r2 cells pay the per-region head cache
    //   plus the conservative-sync accounting per pop (region clocks,
    //   lookahead bounds, min-rule grants, null-message counting), so
    //   r2-minus-r1 at equal pending is the region bookkeeping per event.
    const CHURN: u64 = 10_000;
    let mut g = c.benchmark_group("region_sync");
    g.throughput(Throughput::Elements(CHURN));
    for burst in [64usize, 512] {
        g.bench_function(&format!("spsc_ring_burst_{burst}"), |b| {
            b.iter_with_setup(
                || simcore::spsc::ring::<u64>(burst),
                |(mut tx, mut rx)| {
                    let mut acc = 0u64;
                    let mut sent = 0u64;
                    while sent < CHURN {
                        for _ in 0..burst as u64 {
                            tx.push(sent).expect("ring sized to burst");
                            sent += 1;
                        }
                        while let Some(v) = rx.pop() {
                            acc = acc.wrapping_add(v);
                        }
                    }
                    black_box(acc)
                },
            )
        });
    }
    for regions in [1usize, 2] {
        for pending in [1_000usize, 100_000] {
            let name = format!("churn_r{regions}_{pending}_pending");
            g.bench_function(&name, |b| {
                b.iter_with_setup(
                    || {
                        let mut q: FutureEventList<u64> =
                            FutureEventList::with_regions(pending, regions);
                        if regions == 2 {
                            // The matrix a cut pipeline gets in PDES mode:
                            // forward = control latency, reverse = a
                            // 100 µs resume latency (finite, so the
                            // accounting actually mints null-message
                            // grants instead of short-circuiting on
                            // SimTime::MAX).
                            q.set_region_lookahead(&[0, 50, 100, 0]);
                        }
                        let mut rng = DetRng::seed(7);
                        for i in 0..pending as u64 {
                            let r = (i as usize) % regions;
                            q.schedule_tagged(r, sim_like_delay(&mut rng), i);
                        }
                        (q, rng)
                    },
                    |(mut q, mut rng)| {
                        let mut acc = 0u64;
                        for i in 0..CHURN {
                            let (_, e) = q.pop().expect("pending events");
                            acc = acc.wrapping_add(e);
                            let r = (i as usize) % regions;
                            q.schedule_tagged(r, sim_like_delay(&mut rng), i);
                        }
                        black_box((acc, q.len(), q.region_sync_stats().null_msgs))
                    },
                )
            });
        }
    }
    g.finish();
}

fn bench_parallel_epochs(c: &mut Criterion) {
    // The thread-per-region executor's fixed costs in isolation, next to
    // `region_sync` (the sequential conservative-sync accounting):
    //
    // * `epoch_barrier_kK` — the two-barrier epoch protocol at K worker
    //   threads: publish the region clock, barrier, compute the global
    //   minimum, barrier. This is the floor every epoch pays even when no
    //   region dispatches anything, so epochs/sec here bounds how finely
    //   lookahead can slice the horizon before synchronization dominates.
    //   (On a host with fewer cores than K the barriers context-switch,
    //   which is the honest cost on that host.)
    // * `ring_drain_kK_N` — consumer-side drain of a full K×(K-1) cross-cut
    //   mailbox holding N 8-byte handles, the shape one epoch's "drain
    //   rings" step sees after a bursty epoch. Rings are sized to hold
    //   their share so this isolates the SPSC pop path (the executor's
    //   overflow spill is measured implicitly by perf_report, not here).
    use simcore::spsc::EpochBarrier;
    use std::sync::atomic::{AtomicU64, Ordering};

    const EPOCHS: u64 = 1_000;
    let mut g = c.benchmark_group("parallel_epochs");
    for k in [2usize, 4] {
        g.throughput(Throughput::Elements(EPOCHS));
        g.bench_function(&format!("epoch_barrier_k{k}"), |b| {
            b.iter(|| {
                let barrier = EpochBarrier::new(k);
                let next: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
                std::thread::scope(|s| {
                    for r in 0..k {
                        let barrier = &barrier;
                        let next = &next;
                        s.spawn(move || {
                            let mut acc = 0u64;
                            for e in 0..EPOCHS {
                                next[r].store(e, Ordering::SeqCst);
                                barrier.wait();
                                let m = next
                                    .iter()
                                    .map(|n| n.load(Ordering::SeqCst))
                                    .min()
                                    .expect("k >= 1");
                                acc = acc.wrapping_add(m);
                                barrier.wait();
                            }
                            black_box(acc);
                        });
                    }
                });
            })
        });
    }
    for k in [2usize, 4] {
        let rings = k * (k - 1);
        for msgs in [1_000usize, 100_000] {
            g.throughput(Throughput::Elements(msgs as u64));
            g.bench_function(&format!("ring_drain_k{k}_{msgs}_msgs"), |b| {
                b.iter_with_setup(
                    || {
                        let per_ring = msgs.div_ceil(rings);
                        let mut mailbox = Vec::with_capacity(rings);
                        let mut sent = 0usize;
                        for _ in 0..rings {
                            let (mut tx, rx) = simcore::spsc::ring::<u64>(per_ring);
                            for _ in 0..per_ring.min(msgs - sent) {
                                tx.push(sent as u64).expect("ring sized to share");
                                sent += 1;
                            }
                            mailbox.push((tx, rx));
                        }
                        mailbox
                    },
                    |mut mailbox| {
                        let mut acc = 0u64;
                        for (_tx, rx) in &mut mailbox {
                            while let Some(v) = rx.pop() {
                                acc = acc.wrapping_add(v);
                            }
                        }
                        black_box(acc)
                    },
                )
            });
        }
    }
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let targets: Vec<InstId> = (0..12).map(InstId).collect();
    let table = RoutingTable::uniform(128, &targets);
    let mut g = c.benchmark_group("routing");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("key_to_instance_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for k in 0..1_000u64 {
                let kg = key_group_of(black_box(k), 128);
                acc = acc.wrapping_add(table.route(kg).0);
            }
            black_box(acc)
        })
    });
    g.bench_function("uniform_repartition_8_to_12", |b| {
        let old = RoutingTable::uniform(128, &(0..8).map(InstId).collect::<Vec<_>>());
        let new: Vec<InstId> = (0..12).map(InstId).collect();
        b.iter(|| black_box(uniform_repartition(&old, &new)))
    });
    g.finish();
}

fn bench_state_backend(c: &mut Criterion) {
    let mut g = c.benchmark_group("state_backend");
    g.bench_function("update_1k_keys", |b| {
        let mut backend = StateBackend::new(128, 1);
        for kg in 0..128 {
            backend.ensure_group(KeyGroup(kg));
        }
        b.iter(|| {
            for k in 0..1_000u64 {
                let kg = key_group_of(k, 128);
                if let StateValue::Count(c) = backend.entry_or(kg, k, || StateValue::Count(0)) {
                    *c += 1;
                }
            }
        })
    });
    g.bench_function("extract_install_128_groups", |b| {
        b.iter_with_setup(
            || {
                let mut backend = StateBackend::new(128, 1);
                for kg in 0..128 {
                    backend.ensure_group(KeyGroup(kg));
                }
                for k in 0..10_000u64 {
                    let kg = key_group_of(k, 128);
                    backend.entry_or(kg, k, || StateValue::Count(1));
                }
                backend
            },
            |mut backend| {
                let mut dst = StateBackend::new(128, 1);
                for kg in 0..128 {
                    for u in backend.extract_group(KeyGroup(kg)) {
                        dst.install(u, true);
                    }
                }
                black_box(dst.total_keys())
            },
        )
    });
    g.finish();
}

fn bench_panes(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_panes");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("add_and_fire_sliding", |b| {
        b.iter(|| {
            let mut p = PaneSet::default();
            for t in 0..1_000u64 {
                p.add(t * 500, (t % 97) as i64, 1, 500_000, Agg::Max);
            }
            black_box(p.window_agg(500_000, 10_000_000, Agg::Max))
        })
    });
    g.finish();
}

fn bench_zipf(c: &mut Criterion) {
    let z = Zipf::new(200_000, 1.0);
    let mut rng = DetRng::seed(1);
    let mut g = c.benchmark_group("zipf");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("sample_200k_universe", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1_000 {
                acc = acc.wrapping_add(z.sample(&mut rng));
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.bench_function("pipeline_5s_at_10ktps", |b| {
        b.iter(|| {
            let (w, _) = tiny_job(EngineConfig::test(), 10_000.0, 256, 4);
            let mut sim = Sim::new(w, Box::new(NoScale));
            sim.run_until(secs(5));
            black_box(sim.world.metrics.sink_records)
        })
    });
    g.bench_function("drrs_rescale_5s", |b| {
        b.iter(|| {
            let (mut w, agg) = tiny_job(EngineConfig::test(), 10_000.0, 256, 4);
            w.schedule_scale(secs(1), agg, 6);
            let mut sim = Sim::new(w, Box::new(drrs_core::FlexScaler::drrs()));
            sim.run_until(secs(5));
            black_box(sim.world.scale.metrics.migration_done)
        })
    });
    // Scaling-in-progress paths: these spend most of the run with a plan
    // active, exercising admission filters, re-routed records, migration
    // links and the retirement sweep — the paths the dispatch-loop
    // optimisations must not regress.
    g.bench_function("megaphone_rescale_5s", |b| {
        b.iter(|| {
            let (mut w, agg) = tiny_job(EngineConfig::test(), 10_000.0, 256, 4);
            w.schedule_scale(secs(1), agg, 6);
            let mut sim = Sim::new(w, Box::new(baselines::megaphone(4)));
            sim.run_until(secs(5));
            black_box(sim.world.scale.metrics.migration_done)
        })
    });
    g.bench_function("drrs_scale_in_5s", |b| {
        b.iter(|| {
            let (mut w, agg) = tiny_job(EngineConfig::test(), 10_000.0, 256, 6);
            w.schedule_scale(secs(1), agg, 3);
            let mut sim = Sim::new(w, Box::new(drrs_core::FlexScaler::drrs()));
            sim.run_until(secs(5));
            black_box((
                sim.world.scale.metrics.migration_done,
                sim.world.metrics.sink_records,
            ))
        })
    });
    g.finish();
}

fn bench_dense_backend_hot_access(c: &mut Criterion) {
    // The per-record state path in isolation: key-group lookup + dense
    // slot indexing + FxHash entry access, mirroring what `apply_record`
    // does per data record.
    let mut g = c.benchmark_group("state_backend");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("hot_path_update_10k", |b| {
        let mut backend = StateBackend::new(128, 1);
        for kg in 0..128 {
            backend.ensure_group(KeyGroup(kg));
        }
        // Realistic key universe: many more keys than groups.
        b.iter(|| {
            for k in 0..10_000u64 {
                let kg = key_group_of(k, 128);
                if let StateValue::Count(c) = backend.entry_or(kg, k, || StateValue::Count(0)) {
                    *c += 1;
                }
                backend.add_bytes(kg, k, 1);
            }
            black_box(backend.total_keys())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_scheduler_backends,
    bench_batch_drain,
    bench_region_sync,
    bench_parallel_epochs,
    bench_routing,
    bench_state_backend,
    bench_dense_backend_hot_access,
    bench_panes,
    bench_zipf,
    bench_end_to_end
);
criterion_main!(benches);
