//! Criterion micro-benchmarks for the engine's hot paths: region-scheduler
//! and PDES-executor overheads, key-group routing, the state backend's
//! migration primitives, sliding-window panes, the Zipf sampler, and a
//! small end-to-end simulation throughput benchmark (events/second of
//! simulated pipeline).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use simcore::time::secs;
use simcore::{DetRng, FutureEventList, Zipf};
use streamflow::ids::{key_group_of, InstId, KeyGroup};
use streamflow::keygroup::{uniform_repartition, RoutingTable};
use streamflow::state::{StateBackend, StateValue};
use streamflow::window::{Agg, PaneSet};
use streamflow::world::tests_support::tiny_job;
use streamflow::world::Sim;
use streamflow::{EngineConfig, NoScale};

/// A delay from the simulator's short-horizon-heavy mix: mostly sub-ms
/// deliveries/quanta, some 10 ms-scale ticks, a few far-future timers
/// (checkpoints, deploys).
#[inline]
fn sim_like_delay(rng: &mut DetRng) -> u64 {
    match rng.below(100) {
        0..=79 => 20 + rng.below(1_000),      // deliveries, service quanta
        80..=97 => 5_000 + rng.below(20_000), // ticks, markers, samples
        _ => 500_000 + rng.below(3_000_000),  // checkpoints, deploy delays
    }
}

fn bench_region_sync(c: &mut Criterion) {
    // The PDES region scheduler's overheads in isolation (the single
    // queue's own pop-run/reschedule step is timed by `drrs_bench`'s
    // `simcore.queue.kernel_ns_per_op`, at the depth and run length its
    // traced run observed):
    //
    // * `spsc_ring_*` — the cross-region transport: cost of moving 8-byte
    //   record handles through the bounded SPSC ring in burst-sized chunks
    //   (the shape a region drain produces).
    // * `churn_rK_*` — steady-state pop/schedule churn at 1 region (the
    //   plain list) and 2 regions (the region-major scheduler), at 16 and
    //   1k pending events (no benchmark workload holds more than ~50). The
    //   r2 cells pay the K-way head peek plus the conservative-sync
    //   accounting per pop (region clocks, lookahead bounds, min-rule
    //   grants, null-message counting), so r2-minus-r1 at equal pending is
    //   the region bookkeeping per event.
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
        for pending in [16usize, 1_000] {
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
