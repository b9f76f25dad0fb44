//! The traced run: the benchmark's own copy of `Sim::dispatch_until`
//! (`q.pop_run_at_most` then `World::dispatch_run`, both public) with spans
//! recorded around the two calls.
//!
//! One root span per simulation, one child per simulated second, and under
//! it one aggregated span per layer boundary. Reading the clock around every
//! run would cost more than the run itself (a same-instant run is one or two
//! events, ~100 ns), so every run is *counted* but only every
//! [`SAMPLE_STRIDE`]-th run is *timed*; a boundary's busy time is its sampled
//! time scaled by runs / sampled runs, less the clock's own cost.

use std::fmt::Write as _;
use std::time::Instant;

use simcore::time::{SimTime, MICROS_PER_SEC};
use streamflow::events::Ev;
use streamflow::world::Sim;

use crate::host;

/// Time one run in this many (prime, so it does not lock onto the 10 ms
/// source tick or any other period of the simulation).
const SAMPLE_STRIDE: u32 = 13;

/// Simulated time between samples of channel backlogs and source queues.
const CHANNEL_SAMPLE_EVERY: SimTime = 50_000;

/// Layer boundaries, in span order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boundary {
    Pop,
    SourceTick,
    Deliver,
    ProcDone,
    /// Scaling control: `Priority`, `Control`, `LinkSendDone`, `CutCredit`.
    Control,
    /// The periodic `Sample` tick and `Wake`s: neither data nor scaling.
    Housekeeping,
    /// A same-instant run holding more than one kind of event; its time
    /// cannot be split from outside `dispatch_run`.
    Mixed,
}

pub const BOUNDARIES: [Boundary; 7] = [
    Boundary::Pop,
    Boundary::SourceTick,
    Boundary::Deliver,
    Boundary::ProcDone,
    Boundary::Control,
    Boundary::Housekeeping,
    Boundary::Mixed,
];

impl Boundary {
    pub fn span_name(self) -> &'static str {
        match self {
            Boundary::Pop => "simcore.queue.pop",
            Boundary::SourceTick => "engine.dispatch.source_tick",
            Boundary::Deliver => "engine.dispatch.deliver",
            Boundary::ProcDone => "engine.dispatch.proc_done",
            Boundary::Control => "engine.dispatch.control",
            Boundary::Housekeeping => "engine.dispatch.housekeeping",
            Boundary::Mixed => "engine.dispatch.mixed",
        }
    }

    fn of(ev: &Ev) -> Boundary {
        match ev {
            Ev::SourceTick { .. } => Boundary::SourceTick,
            Ev::Deliver { .. } => Boundary::Deliver,
            Ev::ProcDone { .. } => Boundary::ProcDone,
            Ev::Priority { .. }
            | Ev::Control { .. }
            | Ev::LinkSendDone { .. }
            | Ev::CutCredit { .. } => Boundary::Control,
            Ev::Sample | Ev::Wake { .. } => Boundary::Housekeeping,
        }
    }
}

/// Work counted and time sampled at one boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    /// Events that crossed the boundary (every run counted).
    pub events: u64,
    /// Calls into the layer (every run counted).
    pub runs: u64,
    pub sampled_runs: u64,
    /// Time inside the sampled calls, clock cost removed.
    pub sampled_ns: u64,
    /// First and last sampled call, ns since the tracer's epoch.
    first_ns: u64,
    last_ns: u64,
}

impl Acc {
    fn count(&mut self, events: u64) {
        self.events += events;
        self.runs += 1;
    }

    fn time(&mut self, start_ns: u64, end_ns: u64, timer_ns: u64) {
        if self.sampled_runs == 0 {
            self.first_ns = start_ns;
        }
        self.last_ns = end_ns;
        self.sampled_runs += 1;
        self.sampled_ns += (end_ns - start_ns).saturating_sub(timer_ns);
    }

    /// Estimated time in all calls.
    pub fn busy_ns(&self) -> u64 {
        if self.sampled_runs == 0 {
            0
        } else {
            (self.sampled_ns as u128 * self.runs as u128 / self.sampled_runs as u128) as u64
        }
    }

    fn absorb(&mut self, o: &Acc) {
        self.events += o.events;
        self.runs += o.runs;
        self.sampled_runs += o.sampled_runs;
        self.sampled_ns += o.sampled_ns;
    }
}

/// One recorded span. `busy_ns` is the estimated time inside the layer for
/// aggregated spans and `end - start` for the others.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub events: u64,
    pub busy_ns: u64,
}

/// Periodic samples of the blocked path.
#[derive(Clone, Debug, Default)]
pub struct ChannelSamples {
    /// Total sender-side backlog over all channels at each sample.
    pub backlog: Vec<u32>,
    /// Samples at which some channel had no credit left.
    pub zero_credit: u64,
    pub pending_max: u64,
}

pub struct Tracer {
    epoch: Instant,
    /// Cost of one clock read pair, removed from every sampled interval.
    pub timer_ns: u64,
    pub spans: Vec<Span>,
    /// Whole-pass totals per boundary, indexed like [`BOUNDARIES`].
    pub totals: [Acc; 7],
    /// Pending events before each sampled pop.
    pub depth: Vec<u32>,
    pub arena_live_max: u64,
    pub channels: ChannelSamples,
    /// Events by their own kind, whatever run they arrived in (`Pop` and
    /// `Mixed` stay 0), indexed like [`BOUNDARIES`].
    pub kind_events: [u64; 7],
    /// Host time and events while a scaling operation was in progress.
    pub scale_phase_ns: u64,
    pub scale_phase_events: u64,
    pub scale_phase_control_events: u64,
    /// Minor page faults taken over the second half (in simulated time) of
    /// each simulation: memory first touched once warm-up is long over.
    pub second_half_faults: u64,

    buf: Vec<Ev>,
    countdown: u32,
    root: Option<u32>,
    second: Option<(u64, u32, [Acc; 7])>,
    next_channel_sample: SimTime,
    scale_since: Option<u64>,
    /// Simulated instant at which the second half starts, until reached.
    half_mark: SimTime,
    faults_at_half: Option<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        let epoch = Instant::now();
        // Median of repeated back-to-back reads: what one sampled interval
        // pays for being measured.
        let mut pairs: Vec<u64> = (0..1001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as u64
            })
            .collect();
        pairs.sort_unstable();
        Self {
            epoch,
            timer_ns: pairs[pairs.len() / 2],
            spans: Vec::new(),
            totals: [Acc::default(); 7],
            depth: Vec::new(),
            arena_live_max: 0,
            channels: ChannelSamples::default(),
            kind_events: [0; 7],
            scale_phase_ns: 0,
            scale_phase_events: 0,
            scale_phase_control_events: 0,
            buf: Vec::new(),
            countdown: 0,
            root: None,
            second: None,
            next_channel_sample: 0,
            scale_since: None,
            second_half_faults: 0,
            half_mark: SimTime::MAX,
            faults_at_half: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, parent: Option<u32>, name: String, start_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            events: 0,
            busy_ns: 0,
        });
        id
    }

    /// Open the root span of one simulation that will run to `horizon`.
    pub fn begin_sim(&mut self, label: &str, horizon: SimTime) {
        let now = self.now_ns();
        self.root = Some(self.open(None, format!("sim:{label}"), now));
        self.next_channel_sample = 0;
        self.half_mark = horizon / 2;
    }

    /// Close the simulated-second span and the root span.
    pub fn end_sim(&mut self) {
        let now = self.now_ns();
        self.close_second(now);
        if let Some(at_half) = self.faults_at_half.take() {
            self.second_half_faults += host::minor_faults() - at_half;
        }
        if let Some(since) = self.scale_since.take() {
            self.scale_phase_ns += now - since;
        }
        let root = self.root.take().expect("begin_sim first");
        let events = self.spans[root as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.events)
            .sum();
        let s = &mut self.spans[root as usize];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
        s.events = events;
    }

    fn close_second(&mut self, now: u64) {
        let Some((_, id, accs)) = self.second.take() else {
            return;
        };
        let mut events = 0;
        for (b, acc) in BOUNDARIES.iter().zip(accs.iter()) {
            self.totals[*b as usize].absorb(acc);
            if acc.runs == 0 {
                continue;
            }
            if *b != Boundary::Pop {
                events += acc.events;
            }
            let child = self.open(Some(id), b.span_name().to_string(), acc.first_ns);
            let c = &mut self.spans[child as usize];
            c.end_ns = acc.last_ns.max(acc.first_ns);
            c.events = acc.events;
            c.busy_ns = acc.busy_ns();
        }
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
        s.events = events;
    }

    /// `Sim::run_until`, traced: dispatch everything due by `t`, then move
    /// the clock to `t`.
    pub fn run_until(&mut self, sim: &mut Sim, t: SimTime) {
        let root = self.root.expect("begin_sim first");
        let Sim { world, plugin, .. } = sim;
        let plugin = &mut **plugin;
        let mut buf = std::mem::take(&mut self.buf);
        loop {
            let sampled = self.countdown == 0;
            let t0 = if sampled { self.now_ns() } else { 0 };
            let Some(at) = world.q.pop_run_at_most(t, &mut buf) else {
                break;
            };
            let t1 = if sampled { self.now_ns() } else { 0 };
            let n = buf.len() as u64;

            let sec = at / MICROS_PER_SEC;
            if self.second.as_ref().map(|s| s.0) != Some(sec) {
                let now = if sampled { t1 } else { self.now_ns() };
                self.close_second(now);
                let id = self.open(Some(root), format!("second:{sec}"), now);
                self.second = Some((sec, id, [Acc::default(); 7]));
            }

            let first = Boundary::of(&buf[0]);
            let mut kind = first;
            let control_before = self.kind_events[Boundary::Control as usize];
            for ev in &buf {
                let k = Boundary::of(ev);
                self.kind_events[k as usize] += 1;
                if k != first {
                    kind = Boundary::Mixed;
                }
            }

            let scaling = world.scale.in_progress || plugin.active();
            if scaling != self.scale_since.is_some() {
                let now = self.now_ns();
                match self.scale_since.take() {
                    Some(since) => self.scale_phase_ns += now - since,
                    None => self.scale_since = Some(now),
                }
            }
            if scaling {
                self.scale_phase_events += n;
                self.scale_phase_control_events +=
                    self.kind_events[Boundary::Control as usize] - control_before;
            }

            if at >= self.half_mark {
                self.half_mark = SimTime::MAX;
                self.faults_at_half = Some(host::minor_faults());
            }
            if at >= self.next_channel_sample {
                self.next_channel_sample = at + CHANNEL_SAMPLE_EVERY;
                let backlog: usize = world.chans.iter().map(|c| c.backlogged()).sum();
                self.channels.backlog.push(backlog as u32);
                if world.chans.iter().any(|c| !c.cut && !c.has_credit()) {
                    self.channels.zero_credit += 1;
                }
                let pending: usize = world
                    .insts
                    .iter()
                    .filter_map(|i| i.source.as_ref())
                    .map(|s| s.pending.len())
                    .sum();
                self.channels.pending_max = self.channels.pending_max.max(pending as u64);
            }

            world.dispatch_run(plugin, &mut buf);

            let accs = &mut self.second.as_mut().expect("opened above").2;
            accs[Boundary::Pop as usize].count(n);
            accs[kind as usize].count(n);
            if sampled {
                let t2 = self.epoch.elapsed().as_nanos() as u64;
                self.countdown = SAMPLE_STRIDE;
                accs[Boundary::Pop as usize].time(t0, t1, self.timer_ns);
                accs[kind as usize].time(t1, t2, self.timer_ns);
                self.depth.push((world.q.len() as u64 + n) as u32);
                self.arena_live_max = self.arena_live_max.max(world.arena.len() as u64);
            }
            self.countdown -= 1;
        }
        world.q.advance_clock_to(t);
        self.buf = buf;
    }

    /// Events dispatched (every boundary but `Pop`, which counts them again).
    pub fn events(&self) -> u64 {
        self.totals[Boundary::Pop as usize].events
    }

    /// The spans as one JSON document: `self_ns` is a span's duration less
    /// the part its children cover.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p as usize] += s.busy_ns;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"workload\": \"{workload}\",");
        let _ = writeln!(out, "  \"seed\": {seed},");
        let _ = writeln!(out, "  \"sample_stride\": {SAMPLE_STRIDE},");
        let _ = writeln!(out, "  \"timer_ns\": {},", self.timer_ns);
        let _ = writeln!(out, "  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"events\": {}, \"busy_ns\": {}, \"self_ns\": {}}}{comma}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.events,
                s.busy_ns,
                s.busy_ns.saturating_sub(children_ns[i]),
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_scales_sampled_time_by_the_sampling_ratio() {
        let mut a = Acc::default();
        for _ in 0..10 {
            a.count(2);
        }
        a.time(100, 160, 10);
        a.time(300, 350, 10);
        assert_eq!(a.events, 20);
        assert_eq!(a.sampled_ns, 90);
        assert_eq!(a.busy_ns(), 450);
        assert_eq!((a.first_ns, a.last_ns), (100, 350));
        assert_eq!(Acc::default().busy_ns(), 0);
    }
}
