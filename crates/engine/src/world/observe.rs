//! Observables: the run digest, the plain-data [`Observables`] snapshot it
//! hashes (mergeable across parallel replicas), and the periodic sampler
//! that records suspension, retires drained instances and publishes
//! per-instance progress on the bus.

use super::*;

impl World {
    /// A deterministic digest of the run's observable state: metrics,
    /// per-instance progress, state sizes and watermarks. Two runs with the
    /// same seed and timeline must produce identical digests — the
    /// regression guard for every hot-path data-structure swap.
    /// Delegates to [`Observables::digest`] so a sequential world and a
    /// merge of parallel replicas hash the exact same serialization.
    pub fn metrics_digest(&self) -> u64 {
        self.observables().digest()
    }

    /// Snapshot everything [`Self::metrics_digest`] hashes into a
    /// plain-data, `Send` value. The thread-per-region executor collects
    /// one per replica and [`Observables::merge`]s them into the view the
    /// sequential engine would have produced.
    pub fn observables(&self) -> Observables {
        Observables {
            sink_records: self.metrics.sink_records,
            processed: self.q.processed(),
            latency: self.metrics.latency.points().to_vec(),
            source_counts: self.metrics.source_counts.clone(),
            violations: self.semantics.violations(),
            per_inst: self
                .insts
                .iter()
                .map(|i| InstObservables {
                    processed: i.processed,
                    watermark: i.watermark,
                    state_bytes: i.state.total_bytes(),
                    state_keys: i.state.total_keys() as u64,
                    suspended_total: i.suspended_total,
                })
                .collect(),
            inst_regions: self
                .insts
                .iter()
                .map(|i| self.region_map.inst(i.id) as u8)
                .collect(),
            bytes_transferred: self.scale.metrics.bytes_transferred,
            now: self.now(),
        }
    }

    /// Total nominal state bytes across instances of an operator.
    pub fn op_state_bytes(&self, op: OpId) -> u64 {
        self.ops[op.0 as usize]
            .instances
            .iter()
            .map(|&i| self.insts[i.0 as usize].state.total_bytes())
            .sum()
    }

    pub(super) fn on_sample(&mut self) {
        let now = self.now();
        self.maybe_retire();
        if let Some(op) = self.suspension_op {
            let total: SimTime = self.ops[op.0 as usize]
                .instances
                .iter()
                .map(|&i| self.insts[i.0 as usize].suspension_as_of(now))
                .sum();
            self.metrics.suspension.push(now, total as f64);
        }
        if self.bus.enabled() {
            // Per-instance progress ticks. `Ev::Sample` is pinned to
            // region 0, so under the thread-per-region executor (Outbox
            // mode) the sampler sees other regions' instance state frozen
            // at replica-pruning time — tick only the instances this
            // replica owns; whole-fleet snapshots come from
            // `Observables::merge`. The sequential engine ticks everyone.
            let outbox = self.cross_mode == CrossMode::Outbox;
            for i in 0..self.insts.len() {
                let reg = self.region_map.inst(self.insts[i].id) as u8;
                if outbox && reg != 0 {
                    continue;
                }
                let tick = BusEventKind::MetricsTick {
                    inst: self.insts[i].id.0,
                    processed: self.insts[i].processed,
                    state_bytes: self.insts[i].state.total_bytes(),
                    watermark: self.insts[i].watermark,
                };
                self.bus.publish(now, reg, tick);
            }
            // Sequential PDES runs surface the region scheduler's
            // cumulative sync accounting here; the parallel executor
            // publishes its own per-epoch `SyncEpoch` events instead.
            if self.pdes() && !outbox {
                let s = self.q.region_sync_stats();
                let ev = BusEventKind::SyncEpoch {
                    epochs: s.runs,
                    dispatched: self.q.processed(),
                    merged: s.merged_runs,
                    grants: s.min_rule_grants,
                };
                self.bus.publish(now, 0, ev);
            }
        }
        let iv = self.cfg.sample_interval;
        self.q.schedule(iv, Ev::Sample);
    }
}

/// Per-instance slice of [`Observables`]: exactly the five values
/// `metrics_digest` hashes per instance, in hash order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstObservables {
    /// Records processed.
    pub processed: u64,
    /// Operator watermark.
    pub watermark: SimTime,
    /// Nominal state bytes.
    pub state_bytes: u64,
    /// Distinct keys held.
    pub state_keys: u64,
    /// Cumulative suspension time.
    pub suspended_total: SimTime,
}

/// A plain-data (`Send`) snapshot of everything
/// [`World::metrics_digest`] hashes, in the exact serialization order the
/// digest consumes. Exists so the thread-per-region executor can collect
/// one snapshot per replica, [`merge`](Self::merge) them, and compare
/// [`digest`](Self::digest) against the sequential engine — byte-for-byte
/// the same hash function over byte-for-byte the same serialization.
#[derive(Clone, Debug)]
pub struct Observables {
    /// Records absorbed by sinks.
    pub sink_records: u64,
    /// Events popped off the future-event list.
    pub processed: u64,
    /// Latency samples `(t, µs)` in recording order.
    pub latency: Vec<(SimTime, f64)>,
    /// Per-second source emission counts `(second, records)`, ascending.
    pub source_counts: Vec<(u64, u64)>,
    /// Per-key order violations observed.
    pub violations: u64,
    /// Per-instance progress, indexed by `InstId`.
    pub per_inst: Vec<InstObservables>,
    /// Region owning each instance (identical across replicas; drives the
    /// per-instance and latency merges).
    pub inst_regions: Vec<u8>,
    /// Migration bytes moved by the scaling mechanism.
    pub bytes_transferred: u64,
    /// The clock when the snapshot was taken.
    pub now: SimTime,
}

impl Observables {
    /// FNV-1a over the canonical serialization — the digest
    /// [`World::metrics_digest`] has always produced.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        put(self.sink_records);
        put(self.processed);
        put(self.latency.len() as u64);
        for &(t, v) in &self.latency {
            put(t);
            put(v.to_bits());
        }
        for &(s, c) in &self.source_counts {
            put(s);
            put(c);
        }
        put(self.violations);
        for i in &self.per_inst {
            put(i.processed);
            put(i.watermark);
            put(i.state_bytes);
            put(i.state_keys);
            put(i.suspended_total);
        }
        put(self.bytes_transferred);
        h
    }

    /// Merge per-replica snapshots (one per region, indexed by region)
    /// into the view the sequential PDES engine would have produced:
    ///
    /// * counters (`sink_records`, `processed`, `violations`,
    ///   `bytes_transferred`) sum — each replica only ever touches its own
    ///   region's share;
    /// * latency samples k-way merge by `(t, region)` — exactly the
    ///   sequential recording order, because region-major pop order breaks
    ///   same-instant ties by ascending region;
    /// * per-second source counts merge-sum per bucket;
    /// * each instance's row comes from the replica that owns its region
    ///   (the only replica that ever advanced it).
    pub fn merge(replicas: &[Observables]) -> Observables {
        assert!(!replicas.is_empty(), "nothing to merge");
        let inst_regions = replicas[0].inst_regions.clone();
        let mut latency: Vec<(SimTime, u8, f64)> = Vec::new();
        for (r, o) in replicas.iter().enumerate() {
            latency.extend(o.latency.iter().map(|&(t, v)| (t, r as u8, v)));
        }
        latency.sort_by_key(|&(t, r, _)| (t, r));
        let mut source_counts: Vec<(u64, u64)> = Vec::new();
        for o in replicas {
            for &(s, c) in &o.source_counts {
                match source_counts.binary_search_by_key(&s, |e| e.0) {
                    Ok(i) => source_counts[i].1 += c,
                    Err(i) => source_counts.insert(i, (s, c)),
                }
            }
        }
        let per_inst = inst_regions
            .iter()
            .enumerate()
            .map(|(i, &r)| replicas[r as usize].per_inst[i])
            .collect();
        Observables {
            sink_records: replicas.iter().map(|o| o.sink_records).sum(),
            processed: replicas.iter().map(|o| o.processed).sum(),
            latency: latency.into_iter().map(|(t, _, v)| (t, v)).collect(),
            source_counts,
            violations: replicas.iter().map(|o| o.violations).sum(),
            per_inst,
            inst_regions,
            bytes_transferred: replicas.iter().map(|o| o.bytes_transferred).sum(),
            now: replicas.iter().map(|o| o.now).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use simcore::time::secs;

    use super::*;
    use crate::scaling::NoScale;
    use crate::world::tests_support::tiny_job;

    #[test]
    fn suspension_series_is_sampled() {
        let (mut w, agg) = tiny_job(EngineConfig::test(), 4_000.0, 128, 2);
        w.schedule_scale(secs(1), agg, 3);
        let mut sim = Sim::new(w, Box::new(NoScale));
        sim.run_until(secs(3));
        // NoScale never migrates: new instance suspends nothing, but the
        // series itself must tick once a scale nominated the operator.
        assert!(sim.world.metrics.suspension.len() > 5);
    }
}
