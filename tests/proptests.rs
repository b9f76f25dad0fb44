//! Property-based tests over the core data structures and the scaling
//! invariants, per the repo's testing strategy (DESIGN.md §7).

use std::collections::{HashMap, HashSet};

use drrs_repro::drrs::{divide_subscales, FlexScaler, MechanismConfig};
use drrs_repro::engine::ids::{key_group_of, sub_group_of, InstId, KeyGroup};
use drrs_repro::engine::keygroup::{uniform_repartition, KgMove, RoutingTable};
use drrs_repro::engine::state::{StateBackend, StateValue};
use drrs_repro::engine::window::{Agg, PaneSet};
use drrs_repro::engine::world::tests_support::{run_until_one_at_a_time, tiny_job};
use drrs_repro::engine::world::Sim;
use drrs_repro::engine::EngineConfig;
use drrs_repro::sim::time::secs;
use drrs_repro::sim::{DetRng, FutureEventList, Zipf};
use proptest::prelude::*;

/// The reference model `FutureEventList` is checked against: an unsorted
/// `Vec` min-scanned by `(at, seq)` on every read, under the same shell
/// rules (clock, FIFO `seq` mint, past-clamp). The list's heap key is
/// `(at, region, seq)`; the lists checked here are untagged (every event
/// in region 0), so `(at, seq)` is their whole order. Region-major order
/// is checked in `simcore`'s own tests. Obviously correct and independent
/// of the production model, which is all it is for.
#[derive(Default)]
struct MinScanModel {
    pending: Vec<(u64, u64, u64)>, // (at, seq, event)
    now: u64,
    seq: u64,
    processed: u64,
}

impl MinScanModel {
    fn schedule(&mut self, delay: u64, event: u64) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }
    fn schedule_at(&mut self, at: u64, event: u64) {
        self.pending.push((at.max(self.now), self.seq, event));
        self.seq += 1;
    }
    fn min_index(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| self.pending[i])
    }
    fn peek_time(&self) -> Option<u64> {
        self.min_index().map(|i| self.pending[i].0)
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        self.pop_at_most(u64::MAX)
    }
    fn pop_at_most(&mut self, t: u64) -> Option<(u64, u64)> {
        let i = self.min_index().filter(|&i| self.pending[i].0 <= t)?;
        let (at, _, event) = self.pending.swap_remove(i);
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }
    fn pop_run_at_most(&mut self, t: u64, buf: &mut Vec<u64>) -> Option<u64> {
        buf.clear();
        let (at, first) = self.pop_at_most(t)?;
        buf.push(first);
        while self.peek_time() == Some(at) {
            buf.push(self.pop().expect("peeked").1);
        }
        Some(at)
    }
}

/// A linear keyed pipeline: source → `stages` keyed aggregations (stage `s`
/// at parallelism `pars[s]`, service time `services[s]`) → sink.
fn linear_job(
    cfg: EngineConfig,
    rate: u64,
    stages: usize,
    pars: &[usize],
    services: &[u64],
) -> Sim {
    use drrs_repro::engine::graph::{EdgeKind, JobBuilder};
    use drrs_repro::engine::operator::KeyedAgg;
    use drrs_repro::engine::world::tests_support::FixedGen;

    let mut b = JobBuilder::new(cfg);
    let src = b.source(
        "src",
        1,
        Box::new(move |_| Box::new(FixedGen::new(rate as f64, 256))),
    );
    let mut prev = src;
    for s in 0..stages {
        let service = services[s];
        let op = b.operator(
            &format!("op{s}"),
            pars[s],
            Box::new(move || {
                Box::new(KeyedAgg {
                    service,
                    bytes_per_key: 500,
                    bytes_per_record: 0,
                    emit_every: 1,
                })
            }),
        );
        // Keyed state demands keyed routing on every operator inbound
        // edge; only the sink edge may rebalance.
        b.connect(prev, op, EdgeKind::Keyed);
        prev = op;
    }
    let sink = b.sink("sink", 1);
    b.connect(prev, sink, EdgeKind::Rebalance);
    Sim::new(b.build(), Box::new(drrs_repro::engine::NoScale))
}

/// One `StateBackend::fold` (Unbound's merge of a migrated sub-group into
/// the copy already present) against a std `HashMap` model: a key on both
/// sides merges its values, any other key is inserted. Even seeds hold a
/// few dozen keys per side (the key table's doubling regime), odd seeds
/// several hundred (its dense one); keys 0 and `u64::MAX` are on both
/// sides. A failure names its seed; `fold_replay(seed)` reruns it.
fn fold_replay(seed: u64) -> Result<(), String> {
    let _case = SeedOnPanic(seed);
    let kg = KeyGroup(0);
    let mut rng = DetRng::seed(seed);
    let n = if seed & 1 == 0 { 40 } else { 900 };
    let value = |rng: &mut DetRng| match rng.below(3) {
        0 => StateValue::Count(rng.below(100)),
        1 => StateValue::Sum {
            count: rng.below(100),
            sum: rng.below(100) as i64 - 50,
        },
        _ => StateValue::Lists((0..rng.below(3)).map(|_| rng.below(100) as i64).collect()),
    };
    let (mut dst, mut src) = (StateBackend::new(1, 1), StateBackend::new(1, 1));
    dst.ensure_group(kg);
    src.ensure_group(kg);
    let (mut model, mut incoming) = (HashMap::new(), Vec::new());
    for i in 0..2 * n {
        let key = match i {
            0 | 1 => 0,
            2 | 3 => u64::MAX,
            _ => rng.below(2 * n),
        };
        let v = value(&mut rng);
        if i % 2 == 0 {
            *dst.entry_or(kg, key, || StateValue::Count(0)) = v.clone();
            model.insert(key, v);
        } else {
            *src.entry_or(kg, key, || StateValue::Count(0)) = v.clone();
            incoming.retain(|(k, _)| *k != key);
            incoming.push((key, v));
        }
    }
    for (k, v) in incoming {
        model
            .entry(k)
            .and_modify(|a: &mut StateValue| a.merge(&v))
            .or_insert(v);
    }
    dst.fold(src.extract(kg, 0).expect("present"));
    if dst.total_keys() != model.len() {
        let keys = dst.total_keys();
        return Err(format!("seed {seed}: {keys} keys, model {}", model.len()));
    }
    for (k, v) in &model {
        let got = dst.entry_or(kg, *k, || StateValue::Count(u64::MAX));
        if got != v {
            return Err(format!("seed {seed}: key {k}: {got:?}, model {v:?}"));
        }
    }
    Ok(())
}

/// Names the seed of a seeded case that panics.
struct SeedOnPanic(u64);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: seed {}", self.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn key_groups_always_in_range(key in any::<u64>(), kgs in 1u16..=1024) {
        prop_assert!(key_group_of(key, kgs).0 < kgs);
    }

    #[test]
    fn sub_groups_always_in_range(key in any::<u64>(), fanout in 1u8..=16) {
        prop_assert!(sub_group_of(key, 128, fanout) < fanout.max(1));
    }

    #[test]
    fn uniform_routing_partitions_all_groups(kgs in 1u16..=512, n in 1u32..=64) {
        let targets: Vec<InstId> = (0..n).map(InstId).collect();
        let t = RoutingTable::uniform(kgs, &targets);
        let mut counts = vec![0u32; n as usize];
        for g in 0..kgs {
            counts[t.route(KeyGroup(g)).0 as usize] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<u32>() as u16, kgs);
        // Balanced to within one group.
        let (lo, hi) = (counts.iter().min().copied().unwrap_or(0), counts.iter().max().copied().unwrap_or(0));
        prop_assert!(hi - lo <= 1, "imbalance {:?}", counts);
    }

    #[test]
    fn repartition_moves_are_minimal_and_consistent(kgs in 8u16..=256, old_n in 1u32..=16, add in 1u32..=8) {
        let old_t: Vec<InstId> = (0..old_n).map(InstId).collect();
        let new_t: Vec<InstId> = (0..old_n + add).map(InstId).collect();
        let old = RoutingTable::uniform(kgs, &old_t);
        let new = RoutingTable::uniform(kgs, &new_t);
        let moves = uniform_repartition(&old, &new_t);
        let moved: HashSet<u16> = moves.iter().map(|m| m.kg.0).collect();
        prop_assert_eq!(moved.len(), moves.len(), "duplicate moves");
        for g in 0..kgs {
            let kg = KeyGroup(g);
            if moved.contains(&g) {
                prop_assert_ne!(old.route(kg), new.route(kg));
            } else {
                prop_assert_eq!(old.route(kg), new.route(kg));
            }
        }
    }

    #[test]
    fn subscale_division_is_a_partition(n_moves in 1usize..200, target in 1usize..32) {
        let moves: Vec<KgMove> = (0..n_moves)
            .map(|i| KgMove {
                kg: KeyGroup(i as u16),
                from: InstId((i % 5) as u32),
                to: InstId(10 + (i % 3) as u32),
            })
            .collect();
        let subs = divide_subscales(&moves, target);
        let mut seen = HashSet::new();
        for s in &subs {
            prop_assert!(!s.kgs.is_empty());
            for kg in &s.kgs {
                prop_assert!(seen.insert(kg.0), "kg {} in two subscales", kg.0);
            }
            // Single (from, to) pair per subscale.
            for m in &moves {
                if s.kgs.contains(&m.kg) {
                    prop_assert_eq!(m.from, s.from);
                    prop_assert_eq!(m.to, s.to);
                }
            }
        }
        prop_assert_eq!(seen.len(), n_moves);
    }

    #[test]
    fn state_extract_install_preserves_counts(
        keys in proptest::collection::vec((any::<u64>(), 1u64..1000), 1..50)
    ) {
        let mut b = StateBackend::new(16, 1);
        for g in 0..16 {
            b.ensure_group(KeyGroup(g));
        }
        let mut expect = HashMap::new();
        for &(k, c) in &keys {
            let kg = key_group_of(k, 16);
            if let StateValue::Count(v) = b.entry_or(kg, k, || StateValue::Count(0)) {
                *v += c;
            }
            *expect.entry(k).or_insert(0u64) += c;
        }
        // Move every group to a second backend.
        let mut b2 = StateBackend::new(16, 1);
        for g in 0..16 {
            for u in b.extract_group(KeyGroup(g)) {
                b2.install(u, true);
            }
        }
        prop_assert_eq!(b.total_keys(), 0);
        prop_assert_eq!(b2.snapshot_counts(), expect);
    }

    #[test]
    fn state_fold_matches_a_std_map_merge(seed in any::<u64>()) {
        let run = fold_replay(seed);
        prop_assert!(run.is_ok(), "{}", run.unwrap_err());
    }

    #[test]
    fn panes_window_agg_matches_naive(
        events in proptest::collection::vec((0u64..1000, -100i64..100), 1..60),
        slide in 1u64..50,
        size_mult in 1u64..6
    ) {
        let size = slide * size_mult;
        let mut p = PaneSet::default();
        for &(t, v) in &events {
            p.add(t, v, 1, slide, Agg::Sum);
        }
        let end: u64 = 1000;
        let naive: i64 = events
            .iter()
            .filter(|&&(t, _)| (t / slide) * slide >= end.saturating_sub(size) && t < end)
            .map(|&(_, v)| v)
            .sum();
        let got = p.window_agg(end, size, Agg::Sum).map(|(v, _)| v).unwrap_or(0);
        prop_assert_eq!(got, naive);
    }

    #[test]
    fn zipf_samples_within_universe(n in 1usize..500, alpha in 0.0f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(n, alpha);
        let mut rng = DetRng::seed(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn future_event_list_matches_min_scan_model(
        // Random interleavings of schedule / schedule_at / pop /
        // peek_time / pop_at_most / pop_run_at_most. Ops are (kind, value)
        // pairs; the value steers the delay or absolute time, deliberately
        // covering past-clamped times (kind 2 draws absolute times that
        // often land before "now"), massed same-timestamp ties (kind 1
        // always uses the same short delay), and peeks and horizon-limited
        // pops that come back dry (kinds 4-6).
        ops in proptest::collection::vec((0u8..7, 0u64..5_000), 1..400),
        cap in 0usize..300,
    ) {
        let mut model = MinScanModel::default();
        let mut list: FutureEventList<u64> = FutureEventList::with_capacity(cap);
        let mut model_buf: Vec<u64> = Vec::new();
        let mut list_buf: Vec<u64> = Vec::new();
        for (i, &(kind, v)) in ops.iter().enumerate() {
            let id = i as u64;
            match kind {
                0 => {
                    // Mixed horizons: mostly short, occasionally far future.
                    let delay = if v % 7 == 0 { v * 997 } else { v % 800 };
                    model.schedule(delay, id);
                    list.schedule(delay, id);
                }
                1 => {
                    // Massed ties at one instant: FIFO seq order must hold.
                    model.schedule(13, id);
                    list.schedule(13, id);
                }
                2 => {
                    // Absolute times, frequently in the past (clamped to
                    // "now" — list and model must clamp identically).
                    model.schedule_at(v, id);
                    list.schedule_at(v, id);
                }
                3 => {
                    prop_assert_eq!(model.pop(), list.pop(), "pop diverged at op {}", i);
                    prop_assert_eq!(model.now, list.now());
                }
                4 => {
                    prop_assert_eq!(
                        model.peek_time(),
                        list.peek_time(),
                        "peek diverged at op {}",
                        i
                    );
                }
                5 => {
                    let horizon = model.now.saturating_add(v);
                    prop_assert_eq!(
                        model.pop_at_most(horizon),
                        list.pop_at_most(horizon),
                        "pop_at_most diverged at op {}",
                        i
                    );
                    prop_assert_eq!(model.now, list.now());
                }
                _ => {
                    // Batch drain of the earliest same-instant run — list
                    // and model must return the same instant and the same
                    // FIFO-ordered payload run (dry probes included).
                    let horizon = model.now.saturating_add(v % 2_500);
                    let h = model.pop_run_at_most(horizon, &mut model_buf);
                    let c = list.pop_run_at_most(horizon, &mut list_buf);
                    prop_assert_eq!(h, c, "pop_run_at_most diverged at op {}", i);
                    prop_assert_eq!(&model_buf, &list_buf, "batch run diverged at op {}", i);
                    prop_assert_eq!(model.now, list.now());
                    prop_assert_eq!(model.processed, list.processed());
                }
            }
            prop_assert_eq!(model.pending.len(), list.len(), "len diverged at op {}", i);
        }
        // Drain: the full remaining sequences must match, element by element.
        loop {
            let (h, c) = (model.pop(), list.pop());
            prop_assert_eq!(h, c, "drain diverged");
            if h.is_none() {
                break;
            }
        }
    }

    #[test]
    fn dry_jump_then_earlier_schedule_pops_in_order(
        // A horizon probe (`pop_at_most`/`pop_run_at_most`) that returns
        // `None` has looked at the pending minimum; a schedule_at for an
        // *earlier but still future* instant right after it must still pop
        // first. Property: after any prefix of (pending set, dry probe,
        // earlier schedule), the list drains the model's sequence,
        // globally sorted by time with FIFO order among ties.
        pending in proptest::collection::vec((1u64..100_000, 0u64..4), 1..60),
        probes in proptest::collection::vec((0u64..120_000, 1u64..50_000, any::<bool>()), 1..12),
    ) {
        let mut model = MinScanModel::default();
        let mut list: FutureEventList<u64> = FutureEventList::new();
        // `expected` mirrors the FEL contract: (clamped at, schedule order).
        let mut expected: Vec<(u64, u64)> = Vec::new();
        let mut id = 0u64;
        let sched = |model: &mut MinScanModel,
                     list: &mut FutureEventList<u64>,
                     expected: &mut Vec<(u64, u64)>,
                     id: &mut u64,
                     at: u64| {
            let clamped = at.max(model.now);
            model.schedule_at(at, *id);
            list.schedule_at(at, *id);
            expected.push((clamped, *id));
            *id += 1;
        };
        for &(at, extra_ties) in &pending {
            // Seed a mixed pending set, some instants massed.
            for _ in 0..=extra_ties {
                sched(&mut model, &mut list, &mut expected, &mut id, at);
            }
        }
        for &(probe_offset, earlier_gap, batch) in &probes {
            // A horizon probe that may or may not be dry.
            let horizon = model.now.saturating_add(probe_offset % 3_000);
            if batch {
                let mut hb = Vec::new();
                let mut cb = Vec::new();
                let h = model.pop_run_at_most(horizon, &mut hb);
                prop_assert_eq!(h, list.pop_run_at_most(horizon, &mut cb));
                prop_assert_eq!(&hb, &cb);
                for &e in &hb {
                    let min = expected.iter().enumerate().min_by_key(|(_, &(t, s))| (t, s))
                        .map(|(i, _)| i).expect("popped from non-empty");
                    let (t, s) = expected.remove(min);
                    prop_assert_eq!((t, s), (h.expect("popped"), e), "batch run out of order");
                }
            } else {
                let got = model.pop_at_most(horizon);
                prop_assert_eq!(got, list.pop_at_most(horizon));
                if let Some((t, e)) = got {
                    let min = expected.iter().enumerate().min_by_key(|(_, &(t, s))| (t, s))
                        .map(|(i, _)| i).expect("popped from non-empty");
                    prop_assert_eq!(expected.remove(min), (t, e), "pop out of order");
                }
            }
            prop_assert_eq!(model.now, list.now());
            // Now schedule an *earlier but still future* instant than the
            // current pending minimum, at or after "now".
            let min_pending = expected.iter().map(|&(t, _)| t).min();
            let target = match min_pending {
                Some(m) if m > model.now => model.now + (m - model.now).min(earlier_gap),
                _ => model.now + earlier_gap,
            };
            sched(&mut model, &mut list, &mut expected, &mut id, target);
        }
        // Full drain must come out globally (at, seq)-sorted and identical
        // to the model's.
        expected.sort_unstable();
        let mut got = Vec::new();
        loop {
            let (h, c) = (model.pop(), list.pop());
            prop_assert_eq!(h, c, "list diverged from the model during drain");
            match h {
                Some(p) => got.push(p),
                None => break,
            }
        }
        prop_assert_eq!(got, expected, "drain not in (at, seq) order");
    }
}

proptest! {
    // Full-simulation properties are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn drrs_preserves_order_under_randomized_scaling(
        seed in 0u64..1000,
        scale_at_ms in 500u64..3000,
        subscales in 1usize..12,
        new_par in 3usize..6
    ) {
        let mut cfg = EngineConfig::test();
        cfg.seed = seed;
        let (mut w, agg) = tiny_job(cfg, 5_000.0, 256, 2);
        w.schedule_scale(scale_at_ms * 1_000, agg, new_par);
        let mech = MechanismConfig { subscale_count: subscales, ..MechanismConfig::drrs() };
        let mut sim = Sim::new(w, Box::new(FlexScaler::new(mech)));
        sim.run_until(secs(12));
        prop_assert!(!sim.world.scale.in_progress, "incomplete");
        prop_assert_eq!(sim.world.semantics.violations(), 0);
        // Conservation: each group owned exactly once.
        let moves = sim.world.scale.plan.as_ref().expect("plan").moves.clone();
        for m in &moves {
            prop_assert!(sim.world.insts[m.to.0 as usize].state.holds_group(m.kg));
        }
    }

    #[test]
    fn back_to_back_plans_keep_order_and_settle_under_every_flex_mechanism(
        // Out, in, out on a random small job, each plan requested once the
        // previous segment has run, for every `FlexScaler` configuration.
        // In debug builds each of these sims is also a differential test of
        // the resumable intra-channel scan against the from-scratch one.
        seed in 0u64..10_000,
        rate in 3_000u64..9_000,
        par in 2usize..4,
        slow_migration in any::<bool>(),
        checkpoints in any::<bool>()
    ) {
        use drrs_repro::baselines::{megaphone, otfs_fluid};
        use drrs_repro::engine::graph::{EdgeKind, JobBuilder};
        use drrs_repro::engine::instance::SourceGen;
        use drrs_repro::engine::operator::KeyedAgg;

        /// Round-robin keys at a constant rate, then end of stream — so the
        /// pipeline drains and the sink count is an equality.
        struct Bounded { rate: f64, next_key: u64, limit: u64 }
        impl SourceGen for Bounded {
            fn rate(&self, _t: u64) -> f64 { self.rate }
            fn next(&mut self, _t: u64) -> (u64, i64) {
                self.next_key = (self.next_key + 1) % 2_048;
                (self.next_key, 1)
            }
            fn limit(&self) -> Option<u64> { Some(self.limit) }
        }

        // Sources stop at 10 s; the last segment ends at 13 s.
        let limit = rate * 10;
        let mechanisms: [fn() -> FlexScaler; 6] = [
            FlexScaler::drrs,
            || FlexScaler::new(MechanismConfig::dr_only()),
            || FlexScaler::new(MechanismConfig::schedule_only()),
            || FlexScaler::new(MechanismConfig::subscale_only()),
            || megaphone(1),
            otfs_fluid,
        ];
        let plans = [par + 2, par, par + 3];
        for mech in mechanisms {
            let mech = mech();
            let mut cfg = EngineConfig::test();
            cfg.seed = seed;
            cfg.check_semantics = true;
            cfg.max_key_groups = 32;
            if slow_migration {
                // ~2 MB of state at the paper-calibrated 15 B/µs: state is
                // in transit for ~100 ms per plan instead of ~1 ms.
                cfg.ser_bytes_per_us = 15.0;
            }
            cfg.checkpoint_interval = checkpoints.then_some(700_000);
            let mut b = JobBuilder::new(cfg);
            let src = b.source("src", 1, Box::new(move |_| {
                Box::new(Bounded { rate: rate as f64, next_key: 0, limit })
            }));
            let agg = b.operator("agg", par, Box::new(|| Box::new(KeyedAgg {
                service: 50,
                bytes_per_key: 1_000,
                bytes_per_record: 0,
                emit_every: 1,
            })));
            let sink = b.sink("sink", 1);
            b.connect(src, agg, EdgeKind::Keyed);
            b.connect(agg, sink, EdgeKind::Rebalance);
            let mut sim = Sim::new(b.build(), Box::new(mech));
            let case = format!(
                "{}: seed {seed}, rate {rate}, par {par}, \
                 slow_migration {slow_migration}, checkpoints {checkpoints}",
                sim.plugin.name()
            );

            sim.run_until(secs(1));
            for (plan, to) in plans.into_iter().enumerate() {
                sim.world.schedule_scale(sim.world.now(), agg, to);
                sim.run_until(secs(1 + 4 * (plan as u64 + 1)));
                let w = &sim.world;
                prop_assert!(!w.scale.in_progress, "plan {plan} still migrating ({case})");
                let moves = &w.scale.plan.as_ref().expect("plan").moves;
                let settled = moves
                    .iter()
                    .filter(|m| w.insts[m.to.0 as usize].state.holds_group(m.kg))
                    .count();
                prop_assert_eq!(settled, moves.len(), "plan {} unsettled ({})", plan, case);
                prop_assert_eq!(
                    w.ops[agg.0 as usize].instances.len(), to,
                    "plan {} left the wrong parallelism ({})", plan, case
                );
            }
            sim.run_until(secs(13));
            let w = &sim.world;
            prop_assert_eq!(
                w.semantics.violations(), 0,
                "order violated ({}): {:?}", case, w.semantics.samples()
            );
            // The limit is checked once per source tick, so the stream ends
            // within a tick's worth past it.
            let generated: u64 = w
                .insts
                .iter()
                .filter_map(|i| i.source.as_ref())
                .map(|s| s.generated)
                .sum();
            prop_assert!(generated >= limit, "stream still open ({case})");
            prop_assert_eq!(
                w.metrics.sink_records, generated,
                "sink did not see every record exactly once ({})", case
            );
        }
    }

    #[test]
    fn parallel_execution_matches_sequential_on_random_graphs(
        // The thread-per-region executor's exactness contract, generalized
        // over graph shape: random keyed pipelines × random region count ×
        // resume latency ∈ {0, small}. At resume_latency = 0 `run_parallel`
        // must fall back to the sequential engine (no lookahead to run
        // epochs on); at > 0 the threaded run must reproduce the
        // sequential PDES engine's digest, processed count and sink
        // records exactly — same quad, independent of thread scheduling.
        seed in 0u64..1000,
        stages in 1usize..4,
        pars in proptest::collection::vec(1usize..4, 3),
        services in proptest::collection::vec(10u64..120, 3),
        regions in 2usize..6,
        rl_pick in 0usize..3,
        rate in 1_000u64..8_000,
    ) {
        // Resume latency axis: 0 (sequential-fallback contract) and two
        // small real lookaheads (PDES epochs).
        let resume_latency = [0u64, 100, 400][rl_pick];
        let (pars, services) = (&pars, &services);
        let build = move || {
            let mut cfg = EngineConfig::test();
            cfg.seed = seed;
            cfg.regions = regions;
            cfg.resume_latency = resume_latency;
            linear_job(cfg, rate, stages, pars, services)
        };
        let mut seq = build();
        seq.run_until(secs(1));
        prop_assert_eq!(seq.world.q.now(), secs(1), "sequential clock short of horizon");
        let report = drrs_repro::engine::run_parallel(build, secs(1));
        if resume_latency == 0 {
            prop_assert_eq!(report.threads, 1, "rl=0 must fall back to the sequential engine");
        }
        prop_assert_eq!(
            report.digest(), seq.world.metrics_digest(),
            "parallel digest diverged (k={}, rl={})", regions, resume_latency
        );
        prop_assert_eq!(report.obs.processed, seq.world.q.processed());
        prop_assert_eq!(report.obs.sink_records, seq.world.metrics.sink_records);
    }

    #[test]
    fn delivery_bursts_are_invisible_to_every_execution_mode(
        // Bursts form differently under every way of running a job — the
        // one-at-a-time reference loop and the run-draining dispatch loop
        // take bursts at different moments, PDES regions split them by
        // receiver tag, and each threaded replica mints its own `seq`s —
        // yet the logical timeline may not move: within one semantic point
        // (the sequential `resume_latency = 0` timeline, or PDES at one
        // `resume_latency > 0`) every way must agree on the digest and on
        // the *logical* processed count. Rates reach into backpressure
        // (pump refills).
        seed in 0u64..1000,
        stages in 1usize..4,
        pars in proptest::collection::vec(1usize..4, 3),
        services in proptest::collection::vec(10u64..120, 3),
        rate in 2_000u64..30_000,
        regions in 2usize..6,
        zero_latency in any::<bool>(),
        resume_latency in 50u64..400,
    ) {
        let (pars, services) = (&pars, &services);
        let build = move |regions: usize, rl: u64, net_latency: u64| {
            let mut cfg = EngineConfig::test();
            cfg.seed = seed;
            cfg.regions = regions;
            cfg.resume_latency = rl;
            cfg.net_latency = net_latency;
            linear_job(cfg, rate, stages, pars, services)
        };
        let observe = |sim: &Sim| {
            let k = sim.world.q.regions();
            let per_region: u64 = (0..k).map(|r| sim.world.q.region_processed(r)).sum();
            assert_eq!(per_region, sim.world.q.processed());
            (sim.world.metrics_digest(), sim.world.q.processed(), sim.world.q.now())
        };

        // The sequential timeline, with and without wire latency (zero
        // latency is where a send can meet a burst of its own instant).
        let net_latency = if zero_latency { 0 } else { 200 };
        let mut reference = build(1, 0, net_latency);
        run_until_one_at_a_time(&mut reference, secs(1));
        let reference = observe(&reference);
        let mut sim = build(1, 0, net_latency);
        sim.run_until(secs(1));
        prop_assert_eq!(observe(&sim), reference, "dispatch loop diverged");

        // PDES at one resume latency: the sequential engine driven both
        // ways, and the thread-per-region executor.
        let mut reference = build(regions, resume_latency, 200);
        run_until_one_at_a_time(&mut reference, secs(1));
        let reference = observe(&reference);
        let mut sim = build(regions, resume_latency, 200);
        sim.run_until(secs(1));
        prop_assert_eq!(observe(&sim), reference, "seq PDES dispatch loop diverged");
        let report = drrs_repro::engine::run_parallel(
            move || build(regions, resume_latency, 200),
            secs(1),
        );
        prop_assert_eq!(
            report.per_region_events.iter().sum::<u64>(),
            report.obs.processed
        );
        prop_assert_eq!(
            (report.digest(), report.obs.processed, report.obs.now),
            reference,
            "threaded PDES diverged"
        );
    }

    #[test]
    fn regions_without_resume_latency_are_the_sequential_engine_on_random_graphs(
        // `regions` means PDES partition only. With no resume latency a cut
        // would have a zero-lookahead reverse edge, so any region count
        // builds the single-queue engine: byte-identical digest, logical
        // event count, final clock and sink records to `regions = 1`.
        seed in 0u64..1000,
        stages in 1usize..4,
        pars in proptest::collection::vec(1usize..4, 3),
        services in proptest::collection::vec(10u64..120, 3),
        regions in 2usize..6,
        rate in 1_000u64..8_000,
    ) {
        let run = |k: usize| {
            let mut cfg = EngineConfig::test();
            cfg.seed = seed;
            cfg.regions = k;
            let mut sim = linear_job(cfg, rate, stages, &pars, &services);
            assert!(!sim.world.pdes());
            assert_eq!(sim.world.q.regions(), 1);
            sim.run_until(secs(2));
            (
                sim.world.metrics_digest(),
                sim.world.q.processed(),
                sim.world.q.now(),
                sim.world.metrics.sink_records,
            )
        };
        prop_assert_eq!(run(1), run(regions), "{} regions diverged from sequential", regions);
    }

    #[test]
    fn sequential_pdes_engine_never_stalls_under_backpressure(
        // Backpressured tiny job on the sequential PDES engine: blocked
        // senders are woken by cut credits that carry only the resume
        // latency of lookahead. Any region count must still drain every
        // event up to the horizon and land the clock exactly there.
        seed in 0u64..200,
        regions in 2usize..6,
        par in 1usize..4,
        resume_latency in 50u64..500,
    ) {
        let mut cfg = EngineConfig::test();
        cfg.seed = seed;
        cfg.regions = regions;
        cfg.resume_latency = resume_latency;
        let (w, _) = tiny_job(cfg, 30_000.0, 64, par);
        let mut sim = Sim::new(w, Box::new(drrs_repro::engine::NoScale));
        sim.run_until(secs(2));
        prop_assert!(sim.world.q.processed() > 0, "no events dispatched");
        prop_assert_eq!(sim.world.q.now(), secs(2), "clock stalled before the horizon");
        let stats = sim.world.q.region_sync_stats();
        prop_assert!(stats.runs > 0, "no region runs accounted");
    }

    #[test]
    fn parallel_executor_never_deadlocks_under_backpressure(
        // Backpressured tiny job on the threaded executor: blocked senders
        // wake via reverse pump edges, which under PDES carry only the
        // configured resume latency of lookahead — small lookahead + full
        // channels is the classic conservative-deadlock shape, now with
        // real barriers a stuck region would hang on forever. The run is
        // executed under a wall-clock watchdog: completion within the
        // bound *is* the deadlock-freedom property.
        seed in 0u64..200,
        regions in 2usize..6,
        resume_latency in 50u64..500,
    ) {
        use std::sync::mpsc;
        use std::time::Duration;

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let report = drrs_repro::engine::run_parallel(
                move || {
                    let mut cfg = EngineConfig::test();
                    cfg.seed = seed;
                    cfg.regions = regions;
                    cfg.resume_latency = resume_latency;
                    let (w, _) = tiny_job(cfg, 30_000.0, 64, 2);
                    Sim::new(w, Box::new(drrs_repro::engine::NoScale))
                },
                secs(1),
            );
            let _ = tx.send(report);
        });
        // Generous bound: a healthy run takes well under a second even in
        // debug builds; a deadlocked barrier never returns at all.
        let report = rx.recv_timeout(Duration::from_secs(120));
        prop_assert!(report.is_ok(), "parallel run exceeded the deadlock watchdog");
        let report = report.unwrap();
        prop_assert!(report.obs.processed > 0, "no events dispatched");
        prop_assert!(
            report.threads == 1 || report.stats.epochs > 0,
            "threaded run recorded no epochs"
        );
    }

    #[test]
    fn event_bus_is_digest_neutral_on_random_graphs(
        // The bus contract: publishing telemetry must not perturb the
        // simulation. Random backpressured jobs (which exercise every
        // event class: metrics ticks, backpressure transitions, sync
        // epochs) run with the bus off (`Null`) and on (`Mem`), across
        // random region counts, sequentially and — when a lookahead
        // exists — on the thread-per-region executor: every digest quad
        // must be identical, and the bus's `published` count must be
        // reproducible run-over-run.
        seed in 0u64..1000,
        regions in 1usize..5,
        par in 1usize..4,
        rate in 5_000u64..30_000,
    ) {
        use drrs_repro::engine::BusSinkKind;

        let build = move |sink: BusSinkKind| {
            let mut cfg = EngineConfig::test();
            cfg.seed = seed;
            cfg.regions = regions;
            cfg.resume_latency = 100;
            cfg.bus_sink = sink;
            let (w, _) = tiny_job(cfg, rate as f64, 64, par);
            Sim::new(w, Box::new(drrs_repro::engine::NoScale))
        };
        let quad = |sim: &mut Sim| {
            sim.run_until(secs(1));
            (
                sim.world.metrics_digest(),
                sim.world.q.processed(),
                sim.world.q.now(),
                sim.world.metrics.sink_records,
            )
        };
        let off = quad(&mut build(BusSinkKind::Null));
        let mut on = build(BusSinkKind::Mem);
        let on_quad = quad(&mut on);
        prop_assert_eq!(off, on_quad, "Mem-sink run diverged from Null");
        let summary = on.world.bus.summary();
        prop_assert!(summary.published > 0, "enabled bus published nothing");
        // Counter determinism: a rerun reports the same accounting.
        let mut again = build(BusSinkKind::Mem);
        let _ = quad(&mut again);
        prop_assert_eq!(again.world.bus.summary(), summary);
        // And the threaded executor, bus on, still matches the quad.
        let report = drrs_repro::engine::run_parallel(move || build(BusSinkKind::Mem), secs(1));
        prop_assert_eq!(report.digest(), off.0, "parallel Mem-sink digest diverged");
        prop_assert_eq!(report.obs.processed, off.1);
        prop_assert_eq!(report.obs.sink_records, off.3);
    }

    #[test]
    fn channel_credits_never_oversubscribe(seed in 0u64..200) {
        let mut cfg = EngineConfig::test();
        cfg.seed = seed;
        let (w, _) = tiny_job(cfg, 30_000.0, 64, 1);
        let mut sim = Sim::new(w, Box::new(drrs_repro::engine::NoScale));
        sim.run_until(secs(2));
        for c in &sim.world.chans {
            prop_assert!(
                c.queued() + c.in_flight <= c.capacity,
                "channel {:?} oversubscribed: {} queued + {} in flight > {}",
                c.id, c.queued(), c.in_flight, c.capacity
            );
        }
    }
}
