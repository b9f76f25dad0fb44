//! Stop-Checkpoint-Restart: the mainstream-SPE scaling mechanism the paper
//! argues against (§I, §II-A). The whole job halts, a global checkpoint of
//! all state is taken, the job restarts under the new configuration from
//! that checkpoint, and the Kafka backlog is replayed — a latency cliff
//! proportional to total state size.

use simcore::time::SimTime;
use streamflow::scaling::{ScalePlan, ScalePlugin};
use streamflow::world::World;

const TAG_RESUME: u64 = 21;

/// The Stop-Checkpoint-Restart mechanism.
pub struct StopRestartPlugin {
    /// Fixed restart overhead on top of checkpoint write + restore
    /// (JVM/container restart, task re-scheduling).
    pub restart_overhead: SimTime,
    plan: Option<ScalePlan>,
    started: bool,
    done: bool,
}

impl Default for StopRestartPlugin {
    fn default() -> Self {
        Self::new()
    }
}

impl StopRestartPlugin {
    /// With a 5-second fixed restart overhead.
    pub fn new() -> Self {
        Self {
            restart_overhead: 5_000_000,
            plan: None,
            started: false,
            done: false,
        }
    }
}

impl ScalePlugin for StopRestartPlugin {
    fn name(&self) -> &'static str {
        "Stop-Restart"
    }

    fn active(&self) -> bool {
        self.started && !self.done
    }

    fn on_scale_start(&mut self, w: &mut World, plan: &ScalePlan) {
        self.plan = Some(plan.clone());
        self.started = true;
        self.done = false;
        let now = w.now();
        w.scale.metrics.inject_plan(&plan.moves, now);
        // Global stop, then checkpoint *all* operators' state (the paper's
        // point: even non-scaling operators pay), write + restore.
        w.pause();
        let total_bytes: u64 = w.insts.iter().map(|i| i.state.total_bytes()).sum();
        let ckpt = (total_bytes as f64 / w.cfg.ser_bytes_per_us).ceil() as SimTime;
        let restore = ckpt; // read + deserialize symmetric
        let dur = ckpt + restore + self.restart_overhead;
        w.schedule_plugin(dur, TAG_RESUME);
    }

    fn on_control(&mut self, w: &mut World, tag: u64) {
        if tag != TAG_RESUME || self.done {
            return;
        }
        let plan = self.plan.as_ref().expect("resume after start");
        // Restore = direct installation at the new owners (state comes from
        // the checkpoint store, not the old instances' memory): nothing
        // travels a migration link, so no chunk ever arrives.
        w.reroute_plan(plan);
        for m in &plan.moves {
            w.restore_group(m.from, m.to, m.kg);
        }
        self.done = true;
        w.resume();
    }
}
