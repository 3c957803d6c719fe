//! Interchangeable event-loop engines behind the [`EventCore`] trait.
//!
//! Both engines dispatch pending events in the *canonical order*
//! `(time, lane rank, lane-local seq)` — global lane first at ties, then
//! device lanes by index (see the internal `lanes` module) — so for one
//! seed they
//! produce byte-identical traces and equal metrics:
//!
//! * [`SequentialCore`] — the determinism oracle. Pops the canonically
//!   next event and dispatches it, exactly the classic single-heap loop.
//! * [`ParallelCore`] — conservative parallel discrete-event simulation.
//!   A coordinator repeatedly computes a *window bound* `W` that no
//!   cross-device interaction can precede, loans every *safe* device (its
//!   runtime plus event lane) to shard worker threads that replay their
//!   lanes up to `W` with the same per-device physics code, then merges
//!   the buffered effects back in canonical key order. Devices that are
//!   dead, touched by collectives, holding event records/waits, running a
//!   failing kernel, or inside a kernel-fault window are *hazards*: their
//!   events stay on the coordinator, which falls back to single-step
//!   sequential dispatch for them.
//!
//! The window bound is `min` of: the deadline, the global lane's next
//! event, every hazard device's next event, and the start of any
//! kernel-fault overlap on a safe device. Everything a shard does is
//! therefore provably independent of every other lane until `W`, which is
//! what makes the parallelism invisible in the results.
//!
//! The *lookahead* is a profitability gate, not a correctness knob:
//! windows spanning less simulated time than the lookahead are run inline
//! on the coordinator because the thread round-trip would cost more than
//! it buys. It defaults to the hosts' kernel launch overhead (the minimum
//! spacing new work arrives at) and serving layers pass a larger value
//! derived from their collective cost model via
//! [`ParallelCore::with_lookahead`].

use crate::ids::EventId;
use crate::sim::{
    DeviceRt, DispatchFootprint, Driver, Pending, Simulation, StreamOp, COLL_FOOTPRINT_BIT,
};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

/// An event-loop engine: runs a [`Simulation`] against a [`Driver`] until
/// the lanes drain, `deadline` passes, or the driver requests a stop.
pub trait EventCore {
    /// Short engine name for logs and bench labels.
    fn name(&self) -> &'static str;

    /// Runs the simulation, returning the final simulated time. Semantics
    /// (including the returned instant and the state left behind) are
    /// identical across engines for identical inputs.
    fn run(&mut self, sim: &mut Simulation, driver: &mut dyn Driver, deadline: SimTime) -> SimTime;
}

/// Which event core a run should use. The string forms accepted by
/// [`CoreSelect::parse`] are `seq`, `par` (worker count = available
/// parallelism) and `par:N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreSelect {
    /// The sequential determinism oracle ([`SequentialCore`]).
    Seq,
    /// The conservative parallel engine ([`ParallelCore`]).
    Par {
        /// Number of shard worker threads (≥ 1).
        workers: usize,
    },
}

impl CoreSelect {
    /// Parses a `--core` flag value: `seq`, `par`, or `par:N`.
    ///
    /// # Errors
    /// Returns a description of the malformed value.
    pub fn parse(s: &str) -> Result<CoreSelect, String> {
        match s {
            "seq" => Ok(CoreSelect::Seq),
            "par" => Ok(CoreSelect::Par { workers: default_workers() }),
            other => match other.strip_prefix("par:") {
                Some(n) => n
                    .parse::<usize>()
                    .map(|w| CoreSelect::Par { workers: w.max(1) })
                    .map_err(|e| format!("bad worker count in core spec {other:?}: {e}")),
                None => Err(format!("unknown core {other:?} (expected seq, par, or par:N)")),
            },
        }
    }

    /// The ambient selection: `LIGER_CORE` from the environment when set
    /// and non-empty, else [`CoreSelect::Seq`]. [`Simulation::run`] honors
    /// this, so existing binaries and test suites can be re-run on the
    /// parallel core without code changes.
    ///
    /// # Panics
    /// Panics when `LIGER_CORE` is set to an unparseable value — a
    /// misconfigured environment must not silently fall back to `seq`.
    pub fn from_env() -> CoreSelect {
        match std::env::var("LIGER_CORE") {
            Ok(v) if !v.is_empty() => match CoreSelect::parse(&v) {
                Ok(core) => core,
                Err(e) => panic!("LIGER_CORE: {e}"),
            },
            _ => CoreSelect::Seq,
        }
    }
}

impl std::fmt::Display for CoreSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreSelect::Seq => write!(f, "seq"),
            CoreSelect::Par { workers } => write!(f, "par:{workers}"),
        }
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The single-threaded engine: pops the canonically next event across all
/// lanes and dispatches it. This is the renamed classic global loop and
/// the oracle the parallel engine is tested against.
#[derive(Debug, Default, Clone, Copy)]
pub struct SequentialCore;

impl EventCore for SequentialCore {
    fn name(&self) -> &'static str {
        "seq"
    }

    fn run(&mut self, sim: &mut Simulation, driver: &mut dyn Driver, deadline: SimTime) -> SimTime {
        driver.start(sim);
        sim.drain_wakes(driver);
        while !sim.stop {
            let Some((at, pending)) = sim.pop_next() else { break };
            if sim.entry_is_stale(&pending) {
                // Superseded by a reprice: drop it without advancing time,
                // so the returned end time is the last *real* event.
                continue;
            }
            if at > deadline {
                sim.now = deadline;
                break;
            }
            debug_assert!(at >= sim.now, "time went backwards");
            sim.now = at;
            sim.dispatch(pending);
            sim.drain_wakes(driver);
        }
        sim.now
    }
}

/// The conservative parallel engine: shard worker threads advance safe
/// device lanes inside coordinator-computed windows; everything else runs
/// sequentially on the coordinator. See the [module docs](self) for the
/// protocol and its safety argument.
#[derive(Debug)]
pub struct ParallelCore {
    workers: usize,
    lookahead: Option<SimDuration>,
}

impl ParallelCore {
    /// A parallel core with `workers` shard threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> ParallelCore {
        ParallelCore { workers: workers.max(1), lookahead: None }
    }

    /// Overrides the minimum-profitable-window lookahead. Purely a
    /// performance knob: any value produces identical results. Serving
    /// layers derive one from their collective link-latency cost model;
    /// the default is the hosts' maximum kernel launch overhead.
    pub fn with_lookahead(mut self, lookahead: SimDuration) -> ParallelCore {
        self.lookahead = Some(lookahead);
        self
    }

    /// Shard worker threads this core will use.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl EventCore for ParallelCore {
    fn name(&self) -> &'static str {
        "par"
    }

    fn run(&mut self, sim: &mut Simulation, driver: &mut dyn Driver, deadline: SimTime) -> SimTime {
        use crate::shard::{run_window, ShardDone, ShardPool, ShardTask};

        let lookahead = self.lookahead.unwrap_or_else(|| default_lookahead(sim));
        // One worker still exercises the full loan/merge protocol (that is
        // what the 1-worker determinism tier checks) but threads buy
        // nothing, so the windows run inline on the coordinator.
        let pool = if self.workers >= 2 {
            Some(ShardPool::new(self.workers, sim.faults.clone()))
        } else {
            None
        };
        let window_cap = if deadline == SimTime::MAX {
            SimTime::MAX
        } else {
            // Events at exactly the deadline still dispatch; the bound is
            // exclusive.
            deadline + SimDuration::from_nanos(1)
        };

        driver.start(sim);
        sim.drain_wakes(driver);
        while !sim.stop {
            // -- window bound -------------------------------------------------
            let mut w = window_cap;
            if let Some((at, _)) = sim.global_lane.peek_key() {
                w = w.min(at);
            }
            let mut safe: Vec<usize> = Vec::with_capacity(sim.devices.len());
            for d in 0..sim.devices.len() {
                if device_is_hazard(sim, d) {
                    if let Some((at, _)) = sim.device_lanes[d].peek_key() {
                        w = w.min(at);
                    }
                } else {
                    safe.push(d);
                }
            }
            // Keep kernel-fault windows on the coordinator: shrinking `w`
            // only ever tightens already-checked intervals, so one pass
            // suffices.
            for &d in &safe {
                if let Some((at, _)) = sim.device_lanes[d].peek_key() {
                    if at < w && sim.faults.kernel_failure_possible(at, w) {
                        w = at;
                    }
                }
            }
            let mut work: Vec<usize> = Vec::new();
            let mut span_from = SimTime::MAX;
            for &d in &safe {
                if let Some((at, _)) = sim.device_lanes[d].peek_key() {
                    if at < w {
                        work.push(d);
                        span_from = span_from.min(at);
                    }
                }
            }

            // -- no shardable work: one canonical sequential step -------------
            if work.is_empty() {
                let Some((at, pending)) = sim.pop_next() else { break };
                if sim.entry_is_stale(&pending) {
                    continue;
                }
                if at > deadline {
                    sim.now = deadline;
                    break;
                }
                debug_assert!(at >= sim.now, "time went backwards");
                sim.now = at;
                sim.dispatch(pending);
                sim.drain_wakes(driver);
                continue;
            }

            // -- shard phase ---------------------------------------------------
            let capture = sim.trace.is_some();
            let use_threads = match &pool {
                Some(_) => work.len() > 1 && w.saturating_since(span_from) >= lookahead,
                None => false,
            };
            let mut results: Vec<ShardDone> = Vec::with_capacity(work.len());
            if use_threads {
                let p = pool.as_ref().expect("use_threads implies a pool");
                for (i, &d) in work.iter().enumerate() {
                    let device = std::mem::replace(&mut sim.devices[d], DeviceRt::placeholder());
                    let lane = std::mem::take(&mut sim.device_lanes[d]);
                    p.send(i % p.workers(), ShardTask { d, device, lane, until: w, capture });
                }
                for _ in 0..work.len() {
                    results.push(p.recv());
                }
            } else {
                for &d in &work {
                    let device = std::mem::replace(&mut sim.devices[d], DeviceRt::placeholder());
                    let lane = std::mem::take(&mut sim.device_lanes[d]);
                    let mut task = ShardTask { d, device, lane, until: w, capture };
                    let fx = run_window(&mut task, &sim.faults);
                    let ShardTask { d, device, lane, .. } = task;
                    results.push(ShardDone { d, device, lane, fx });
                }
            }

            // -- deterministic merge ------------------------------------------
            let mut trace_buf: Vec<(SimTime, usize, u64, TraceEvent)> = Vec::new();
            for done in results {
                let ShardDone { d, device, lane, fx } = done;
                sim.devices[d] = device;
                sim.device_lanes[d] = lane;
                sim.events_dispatched += fx.dispatched;
                sim.kernels_completed += fx.completed;
                if let Some(t) = fx.last_now {
                    // Every windowed event precedes the next coordinator
                    // event, so advancing to the latest one matches the
                    // sequential clock exactly.
                    if t > sim.now {
                        sim.now = t;
                    }
                }
                for (at, seq, ev) in fx.events {
                    trace_buf.push((at, d + 1, seq, ev));
                }
            }
            if !trace_buf.is_empty() {
                trace_buf.sort_by_key(|e| (e.0, e.1, e.2));
                let trace = sim.trace.as_mut().expect("captured shard events without a trace");
                for (.., ev) in trace_buf {
                    trace.push(ev);
                }
            }
        }
        sim.now
    }
}

/// True when `d`'s events may interact with other lanes and must stay on
/// the coordinator this round.
fn device_is_hazard(sim: &Simulation, d: usize) -> bool {
    let dev = &sim.devices[d];
    !dev.alive
        || !dev.active_colls.is_empty()
        || dev.run.iter().any(|s| s.live && s.failing)
        || dev.queues.iter().any(|q| q.has_boundary_ops())
}

/// Default lookahead: the minimum spacing at which hosts can feed new work
/// to devices. Windows thinner than this are not worth a thread hop.
fn default_lookahead(sim: &Simulation) -> SimDuration {
    sim.hosts.iter().map(|h| h.spec.launch_overhead).max().unwrap_or(SimDuration::ZERO)
}

// ---------------------------------------------------------------------------
// ExploreCore: schedule-space instrumentation for the model checker
// ---------------------------------------------------------------------------

/// Which pending events the [`ExploreCore`] treats as reorderable at a
/// choice point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowRule {
    /// The [`ParallelCore`] commutability argument, refined per event: a
    /// device-lane event is enabled only when its device is shard-safe
    /// (alive, no running collective, no failing kernel) *and* dispatching
    /// it would touch no boundary op (event record/wait, collective member).
    /// Every enabled order is provably equivalent to the canonical one —
    /// exploration under this rule certifies the parallel core's windows.
    Conservative,
    /// Every alive device's lane head is enabled, boundary ops included.
    /// This deliberately realizes cross-lane orders no conservative window
    /// ever would — the schedules an optimistic (time-warp) core could
    /// speculate into — so order-dependent outcomes become observable.
    Unguarded,
}

impl WindowRule {
    /// Parses a `--rule` flag value: `conservative` or `unguarded`.
    ///
    /// # Errors
    /// Returns a description of the malformed value.
    pub fn parse(s: &str) -> Result<WindowRule, String> {
        match s {
            "conservative" => Ok(WindowRule::Conservative),
            "unguarded" => Ok(WindowRule::Unguarded),
            other => {
                Err(format!("unknown window rule {other:?} (expected conservative or unguarded)"))
            }
        }
    }
}

impl std::fmt::Display for WindowRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowRule::Conservative => write!(f, "conservative"),
            WindowRule::Unguarded => write!(f, "unguarded"),
        }
    }
}

/// One enabled alternative at a choice point: a device-lane head the
/// schedule may dispatch next, with the *static* footprint of the queue
/// continuation it would drain (the model checker's persistent-set key).
#[derive(Debug, Clone)]
pub struct EnabledEvent {
    /// Device whose lane head this is.
    pub device: usize,
    /// Scheduled dispatch time.
    pub at: SimTime,
    /// Lane-local sequence number (canonical tie-break).
    pub seq: u64,
    /// Conservative static over-approximation of what dispatching it
    /// touches, from walking the queue continuation.
    pub footprint: DispatchFootprint,
}

/// One schedule choice the [`ExploreCore`] made: ≥ 2 events were enabled
/// and the active schedule picked one. The trail of choice points is the
/// model checker's raw material — it reconstructs alternative schedules by
/// redirecting `chosen` and replaying a cloned simulation.
#[derive(Debug, Clone)]
pub struct ChoicePoint {
    /// Union of the *dynamic* footprints of every dispatch since the
    /// previous choice point (exclusive) — the interference context sleep
    /// sets are evolved against.
    pub pre: DispatchFootprint,
    /// The enabled events, sorted by canonical key `(at, device, seq)`;
    /// index 0 is the canonical choice.
    pub enabled: Vec<EnabledEvent>,
    /// Index into `enabled` that was dispatched.
    pub chosen: usize,
    /// Dynamic footprint the chosen dispatch actually touched (recorded by
    /// the probe; at most the static estimate).
    pub observed: DispatchFootprint,
}

/// The instrumented engine behind `liger-verify explore`: runs the same
/// physics as [`SequentialCore`] but, wherever ≥ 2 pending events are
/// commutable under the active [`WindowRule`], records a [`ChoicePoint`]
/// and follows an externally supplied schedule (canonical order when the
/// schedule is exhausted). Dispatches between choice points stay strictly
/// canonical, so a schedule vector is a complete, replayable name for one
/// interleaving: same simulation + same schedule → same trace, bit for bit.
#[derive(Debug, Clone, Default)]
pub struct ExploreCore {
    rule: Option<WindowRule>,
    schedule: Vec<usize>,
    trail: Vec<ChoicePoint>,
}

impl ExploreCore {
    /// An explore core using `rule`, following canonical order everywhere
    /// (empty schedule).
    pub fn new(rule: WindowRule) -> ExploreCore {
        ExploreCore { rule: Some(rule), schedule: Vec::new(), trail: Vec::new() }
    }

    /// Sets the schedule: `schedule[i]` indexes into the i-th choice
    /// point's enabled set. Choice points beyond the schedule take the
    /// canonical (index 0) branch.
    pub fn with_schedule(mut self, schedule: Vec<usize>) -> ExploreCore {
        self.schedule = schedule;
        self
    }

    /// The active window rule.
    pub fn rule(&self) -> WindowRule {
        self.rule.unwrap_or(WindowRule::Conservative)
    }

    /// The choice points recorded by the last run.
    pub fn trail(&self) -> &[ChoicePoint] {
        &self.trail
    }

    /// Takes ownership of the recorded trail, leaving it empty.
    pub fn take_trail(&mut self) -> Vec<ChoicePoint> {
        std::mem::take(&mut self.trail)
    }

    /// True when `d`'s lane heads may be reordered at all under the rule.
    fn device_safe(&self, sim: &Simulation, d: usize) -> bool {
        let dev = &sim.devices[d];
        match self.rule() {
            WindowRule::Unguarded => dev.alive,
            WindowRule::Conservative => {
                dev.alive
                    && dev.active_colls.is_empty()
                    && !dev.run.iter().any(|s| s.live && s.failing)
            }
        }
    }
}

/// Pops superseded (stale) heads off every lane so the enabled set is over
/// real events only. Stale entries never dispatch anyway; scrubbing them
/// up front keeps them from masquerading as schedule alternatives.
fn scrub_stale_heads(sim: &mut Simulation) {
    for d in 0..sim.device_lanes.len() {
        while sim.device_lanes[d].peek().is_some_and(|p| sim.entry_is_stale(p)) {
            sim.device_lanes[d].pop();
        }
    }
    while sim.global_lane.peek().is_some_and(|p| sim.entry_is_stale(p)) {
        sim.global_lane.pop();
    }
}

/// True when dispatching `pending` (a device-lane head on `d`) would touch
/// a boundary op: the queue continuation it drains reaches an event record,
/// an event wait, or a collective member kernel. The conservative rule pins
/// such events to the canonical order (mirroring the parallel core, which
/// keeps whole boundary-holding devices on the coordinator).
fn touches_boundary(sim: &Simulation, d: usize, pending: &Pending) -> bool {
    match *pending {
        // A finishing plain kernel pops the head and then polls: the op at
        // index 1 is what could begin next (None: the queue just drains).
        Pending::KernelDone { device, slot, .. } => {
            debug_assert_eq!(device, d, "device-lane event on the wrong lane");
            let q = sim.devices[d].run[slot].queue;
            match sim.devices[d].queues[q].op_at(1) {
                Some(next) => next.op.is_boundary(),
                None => false,
            }
        }
        // A comm-lag expiry begins the head kernel itself.
        Pending::CommLagDone { device, queue, .. } => {
            debug_assert_eq!(device, d, "device-lane event on the wrong lane");
            match sim.devices[device].queues[queue].front() {
                Some(head) => head.op.is_boundary(),
                None => true,
            }
        }
        // Only device-lane events are ever asked; anything else is global.
        _ => true,
    }
}

/// Static over-approximation of the footprint dispatching `pending` on `d`
/// could touch: walks the queue continuation the dispatch would drain,
/// following event records to their registered and queued waiters and
/// collective kernels to every gathered or queued member, until each path
/// blocks (unfired wait) or begins a kernel. Host interest in a reachable
/// event marks the footprint global. Used for enabled-but-undispatched
/// alternatives; the dispatched branch gets the exact dynamic footprint
/// from the probe instead.
fn static_footprint(sim: &Simulation, d: usize, pending: &Pending) -> DispatchFootprint {
    let mut fp = DispatchFootprint::default();
    fp.devices.insert(d);
    // (device, queue, first continuation index) frontier.
    let mut frontier: Vec<(usize, usize, usize)> = Vec::new();
    match *pending {
        Pending::KernelDone { device, slot, .. } => {
            let q = sim.devices[device].run[slot].queue;
            if let Some(head) = sim.devices[device].queues[q].front() {
                fp.streams.insert((device, head.stream));
                if let StreamOp::Kernel(spec, _) = &head.op {
                    fp.tags.insert(spec.tag);
                }
            }
            frontier.push((device, q, 1));
        }
        Pending::CommLagDone { device, queue, .. } => {
            frontier.push((device, queue, 0));
        }
        _ => {
            fp.global = true;
            return fp;
        }
    }
    let mut visited: std::collections::BTreeSet<(usize, usize, usize)> =
        std::collections::BTreeSet::new();
    while let Some((dev, q, from)) = frontier.pop() {
        if !visited.insert((dev, q, from)) {
            continue;
        }
        fp.devices.insert(dev);
        let queue = &sim.devices[dev].queues[q];
        let mut i = from;
        while let Some(qop) = queue.op_at(i) {
            match &qop.op {
                StreamOp::Record(ev) => {
                    fp.events.insert(ev.0);
                    fp.streams.insert((dev, qop.stream));
                    if sim.event_has_host_interest(ev.0) {
                        fp.global = true;
                    }
                    // Queues already parked on this event resume from the
                    // op after their blocking wait (the head).
                    for &(wd, wq) in sim.event_queue_waiters(ev.0) {
                        frontier.push((wd, wq, 1));
                    }
                    // Queues that will reach a wait on it later resume
                    // behind that wait.
                    for (od, odev) in sim.devices.iter().enumerate() {
                        for (oq, oqueue) in odev.queues.iter().enumerate() {
                            for (oi, oop) in oqueue.iter_ops().enumerate() {
                                if matches!(&oop.op, StreamOp::Wait(w) if w.0 == ev.0) {
                                    frontier.push((od, oq, oi + 1));
                                }
                            }
                        }
                    }
                }
                StreamOp::Wait(ev) => {
                    fp.events.insert(ev.0);
                    if !sim.event_has_fired(EventId(ev.0)) {
                        break; // the continuation blocks here
                    }
                }
                StreamOp::Kernel(spec, _) => {
                    fp.tags.insert(spec.tag);
                    fp.streams.insert((dev, qop.stream));
                    if let Some(cid) = spec.collective {
                        fp.events.insert(COLL_FOOTPRINT_BIT | cid.0);
                        let members = sim.collective_members(cid.0);
                        for &(md, mq) in members {
                            frontier.push((md, mq, 1));
                        }
                        for (od, odev) in sim.devices.iter().enumerate() {
                            for (oq, oqueue) in odev.queues.iter().enumerate() {
                                for (oi, oop) in oqueue.iter_ops().enumerate() {
                                    let member = matches!(&oop.op,
                                        StreamOp::Kernel(os, _) if os.collective == Some(cid));
                                    if member {
                                        frontier.push((od, oq, oi + 1));
                                    }
                                }
                            }
                        }
                    }
                    break; // the kernel begins; the poll stops here
                }
            }
            i += 1;
        }
    }
    fp
}

/// Pops `d`'s lane head and dispatches it with the footprint probe armed.
/// Returns the dispatch time and the dynamic footprint it touched.
fn dispatch_lane_head(
    sim: &mut Simulation,
    driver: &mut dyn Driver,
    d: usize,
) -> (SimTime, DispatchFootprint) {
    let e = sim.device_lanes[d].pop().expect("enabled lane emptied");
    sim.now = e.at;
    sim.probe = Some(DispatchFootprint::default());
    sim.dispatch(e.payload);
    let mut fp = sim.probe.take().unwrap_or_default();
    fp.devices.insert(d);
    sim.drain_wakes(driver);
    (e.at, fp)
}

impl EventCore for ExploreCore {
    fn name(&self) -> &'static str {
        "explore"
    }

    fn run(&mut self, sim: &mut Simulation, driver: &mut dyn Driver, deadline: SimTime) -> SimTime {
        let window_cap = if deadline == SimTime::MAX {
            SimTime::MAX
        } else {
            deadline + SimDuration::from_nanos(1)
        };
        if self.rule() == WindowRule::Unguarded {
            // Redirected schedules legitimately dispatch one lane past
            // another's clock; the monotone-completion assertion is about
            // canonical runs and must not fire here.
            sim.relaxed_time = true;
        }
        self.trail.clear();
        let mut cursor = 0usize;
        let mut pre = DispatchFootprint::default();
        // The end time is the latest event actually dispatched: under a
        // redirected schedule `sim.now` is not monotone, so it is tracked
        // separately and written back at exit.
        let mut end = sim.now;

        driver.start(sim);
        sim.drain_wakes(driver);
        while !sim.stop {
            scrub_stale_heads(sim);

            // -- window bound (as ParallelCore, then per-event refinement) --
            let mut w = window_cap;
            if let Some((at, _)) = sim.global_lane.peek_key() {
                w = w.min(at);
            }
            let mut safe: Vec<usize> = Vec::with_capacity(sim.devices.len());
            for d in 0..sim.devices.len() {
                if self.device_safe(sim, d) {
                    safe.push(d);
                } else if let Some((at, _)) = sim.device_lanes[d].peek_key() {
                    w = w.min(at);
                }
            }
            for &d in &safe {
                if let Some((at, _)) = sim.device_lanes[d].peek_key() {
                    if at >= w {
                        continue;
                    }
                    let pinned = sim.faults.kernel_failure_possible(at, w)
                        || (self.rule() == WindowRule::Conservative
                            && touches_boundary(
                                sim,
                                d,
                                sim.device_lanes[d].peek().expect("peeked lane emptied"),
                            ));
                    if pinned {
                        w = at;
                    }
                }
            }

            // -- enabled set ------------------------------------------------
            let mut enabled: Vec<EnabledEvent> = Vec::new();
            for &d in &safe {
                if let Some((at, seq)) = sim.device_lanes[d].peek_key() {
                    if at < w {
                        let p = sim.device_lanes[d].peek().expect("peeked lane emptied");
                        let footprint = static_footprint(sim, d, p);
                        enabled.push(EnabledEvent { device: d, at, seq, footprint });
                    }
                }
            }
            enabled.sort_by_key(|e| (e.at, e.device, e.seq));

            match enabled.len() {
                // Nothing reorderable: one canonical sequential step.
                0 => {
                    let Some((at, pending)) = sim.pop_next() else { break };
                    if sim.entry_is_stale(&pending) {
                        continue;
                    }
                    if at > deadline {
                        end = end.max(deadline);
                        break;
                    }
                    sim.now = at;
                    sim.probe = Some(DispatchFootprint::default());
                    sim.dispatch(pending);
                    let fp = sim.probe.take().unwrap_or_default();
                    pre.merge(&fp);
                    end = end.max(at);
                    sim.drain_wakes(driver);
                }
                // A single enabled event is provably the canonical next
                // dispatch below `w`; no choice to record.
                1 => {
                    let (at, fp) = dispatch_lane_head(sim, driver, enabled[0].device);
                    pre.merge(&fp);
                    end = end.max(at);
                }
                // A real choice point: follow the schedule, record the trail.
                _ => {
                    let chosen =
                        if cursor < self.schedule.len() { self.schedule[cursor] } else { 0 };
                    cursor += 1;
                    assert!(
                        chosen < enabled.len(),
                        "schedule index {chosen} out of range at choice point {} ({} enabled)",
                        self.trail.len(),
                        enabled.len()
                    );
                    let d = enabled[chosen].device;
                    let cp_pre = std::mem::take(&mut pre);
                    let (at, observed) = dispatch_lane_head(sim, driver, d);
                    end = end.max(at);
                    self.trail.push(ChoicePoint { pre: cp_pre, enabled, chosen, observed });
                }
            }
        }
        sim.now = end;
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_select_parses() {
        assert_eq!(CoreSelect::parse("seq"), Ok(CoreSelect::Seq));
        assert!(
            matches!(CoreSelect::parse("par"), Ok(CoreSelect::Par { workers }) if workers >= 1)
        );
        assert_eq!(CoreSelect::parse("par:4"), Ok(CoreSelect::Par { workers: 4 }));
        assert_eq!(CoreSelect::parse("par:0"), Ok(CoreSelect::Par { workers: 1 }));
        assert!(CoreSelect::parse("warp").is_err());
        assert!(CoreSelect::parse("par:x").is_err());
    }

    #[test]
    fn core_select_displays_round_trip() {
        for s in ["seq", "par:3"] {
            assert_eq!(CoreSelect::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn window_rule_parses_and_displays() {
        assert_eq!(WindowRule::parse("conservative"), Ok(WindowRule::Conservative));
        assert_eq!(WindowRule::parse("unguarded"), Ok(WindowRule::Unguarded));
        assert!(WindowRule::parse("optimistic").is_err());
        for r in [WindowRule::Conservative, WindowRule::Unguarded] {
            assert_eq!(WindowRule::parse(&r.to_string()), Ok(r));
        }
    }

    use crate::device::DeviceSpec;
    use crate::host::HostSpec;
    use crate::ids::{DeviceId, EventId, HostId, StreamId};
    use crate::kernel::KernelSpec;
    use crate::sim::Wake;

    /// One launch-script step on host 0 (all at t = 0, instant host).
    enum Step {
        K { d: usize, s: usize, us: u64, name: &'static str },
        Rec { d: usize, s: usize, ev: usize },
        Wait { d: usize, s: usize, ev: usize },
    }

    struct Script {
        steps: Vec<Step>,
        events: usize,
    }

    impl Driver for Script {
        fn start(&mut self, sim: &mut Simulation) {
            let evs: Vec<EventId> = (0..self.events).map(|_| sim.new_event()).collect();
            for st in &self.steps {
                match *st {
                    Step::K { d, s, us, name } => {
                        let spec = KernelSpec::compute(name, SimDuration::from_micros(us));
                        sim.launch(HostId(0), StreamId::new(DeviceId(d), s), spec);
                    }
                    Step::Rec { d, s, ev } => {
                        sim.record_existing_event(
                            HostId(0),
                            StreamId::new(DeviceId(d), s),
                            evs[ev],
                        );
                    }
                    Step::Wait { d, s, ev } => {
                        sim.stream_wait(HostId(0), StreamId::new(DeviceId(d), s), evs[ev]);
                    }
                }
            }
        }
        fn on_wake(&mut self, _wake: Wake, _sim: &mut Simulation) {}
    }

    fn two_device_sim() -> Simulation {
        Simulation::builder()
            .devices(DeviceSpec::test_device().with_connections(2), 2)
            .host(HostSpec::instant())
            .streams_per_device(2)
            .capture_trace(true)
            .build()
            .unwrap()
    }

    fn indep_script() -> Script {
        Script {
            steps: vec![
                Step::K { d: 0, s: 0, us: 10, name: "a" },
                Step::K { d: 1, s: 0, us: 7, name: "b" },
            ],
            events: 0,
        }
    }

    fn projection(sim: &Simulation, d: usize) -> Vec<(String, SimTime, SimTime)> {
        let trace = sim.trace().expect("trace captured");
        trace
            .on_device(DeviceId(d))
            .map(|e| (e.name.to_string(), e.started_at, e.ended_at))
            .collect()
    }

    #[test]
    fn explore_canonical_schedule_matches_sequential() {
        let mut a = two_device_sim();
        let end_a = SequentialCore.run(&mut a, &mut indep_script(), SimTime::MAX);
        let mut b = two_device_sim();
        let mut core = ExploreCore::new(WindowRule::Conservative);
        let end_b = core.run(&mut b, &mut indep_script(), SimTime::MAX);
        assert_eq!(end_a, end_b);
        assert_eq!(
            a.trace().unwrap().to_chrome_json(),
            b.trace().unwrap().to_chrome_json(),
            "canonical explore run must be byte-identical to the oracle"
        );
        assert_eq!(core.trail().len(), 1, "two commutable completions = one choice point");
        let cp = &core.trail()[0];
        assert_eq!(cp.enabled.len(), 2);
        assert_eq!(cp.chosen, 0);
        assert_eq!(cp.enabled[0].device, 1, "canonical order is the 7us kernel first");
        assert!(
            !cp.enabled[0].footprint.intersects(&cp.enabled[1].footprint),
            "independent kernels must have disjoint static footprints"
        );
    }

    #[test]
    fn redirected_schedule_preserves_device_projections() {
        let mut a = two_device_sim();
        ExploreCore::new(WindowRule::Conservative).run(&mut a, &mut indep_script(), SimTime::MAX);
        let mut b = two_device_sim();
        let mut core = ExploreCore::new(WindowRule::Conservative).with_schedule(vec![1]);
        let end = core.run(&mut b, &mut indep_script(), SimTime::MAX);
        assert_eq!(core.trail()[0].chosen, 1);
        assert_eq!(core.trail()[0].enabled[core.trail()[0].chosen].device, 0);
        assert_eq!(end, SimTime::from_micros(10), "end time is schedule-invariant");
        for d in 0..2 {
            assert_eq!(projection(&a, d), projection(&b, d), "device {d} projection changed");
        }
    }

    #[test]
    fn conservative_pins_boundary_events_unguarded_does_not() {
        // d0 finishes a kernel and then records an event; d1 runs an
        // independent kernel. The record makes d0's completion
        // boundary-touching: conservative keeps it canonical (no choice
        // point), unguarded exposes the order.
        let script = || Script {
            steps: vec![
                Step::K { d: 0, s: 0, us: 10, name: "a" },
                Step::Rec { d: 0, s: 0, ev: 0 },
                Step::K { d: 1, s: 0, us: 7, name: "b" },
            ],
            events: 1,
        };
        let mut a = two_device_sim();
        let mut cons = ExploreCore::new(WindowRule::Conservative);
        cons.run(&mut a, &mut script(), SimTime::MAX);
        assert_eq!(cons.trail().len(), 0, "boundary-touching completions are pinned");

        let mut b = two_device_sim();
        let mut ung = ExploreCore::new(WindowRule::Unguarded);
        ung.run(&mut b, &mut script(), SimTime::MAX);
        assert_eq!(ung.trail().len(), 1, "unguarded exposes the boundary order");
        let cp = &ung.trail()[0];
        assert!(
            cp.enabled.iter().any(|e| e.device == 0 && e.footprint.events.contains(&0)),
            "d0's static footprint must reach the recorded event"
        );
        assert_eq!(
            a.trace().unwrap().to_chrome_json(),
            b.trace().unwrap().to_chrome_json(),
            "canonical schedules agree regardless of rule"
        );
    }

    #[test]
    fn static_footprint_follows_waiters_across_devices() {
        // d0: kernel then record E; d1: wait E then kernel. Dispatching
        // d0's completion eventually releases d1, so its static footprint
        // must span both devices and the event.
        let mut sim = two_device_sim();
        let mut core = ExploreCore::new(WindowRule::Unguarded);
        let mut script = Script {
            steps: vec![
                Step::K { d: 0, s: 0, us: 10, name: "a" },
                Step::Rec { d: 0, s: 0, ev: 0 },
                Step::Wait { d: 1, s: 0, ev: 0 },
                Step::K { d: 1, s: 0, us: 5, name: "b" },
                Step::K { d: 1, s: 1, us: 7, name: "c" },
            ],
            events: 1,
        };
        core.run(&mut sim, &mut script, SimTime::MAX);
        let cp = core.trail().iter().find(|cp| cp.enabled.iter().any(|e| e.device == 0));
        let cp = cp.expect("a choice point involving d0's completion");
        let d0 = cp.enabled.iter().find(|e| e.device == 0).unwrap();
        assert!(d0.footprint.devices.contains(&0) && d0.footprint.devices.contains(&1));
        assert!(d0.footprint.events.contains(&0));
        let d1 = cp.enabled.iter().find(|e| e.device == 1).unwrap();
        assert!(
            d0.footprint.intersects(&d1.footprint),
            "release chain and released device must not commute"
        );
        let report = sim.terminal_report();
        assert!(report.is_quiescent(), "program drains: {report:?}");
    }

    #[test]
    fn explore_replays_identically_on_cloned_state() {
        let template = two_device_sim();
        let run = |schedule: Vec<usize>| {
            let mut sim = template.clone();
            let mut core = ExploreCore::new(WindowRule::Conservative).with_schedule(schedule);
            core.run(&mut sim, &mut indep_script(), SimTime::MAX);
            sim.trace().unwrap().to_chrome_json()
        };
        assert_eq!(run(vec![0]), run(vec![0]), "same schedule, same bytes");
        assert_eq!(run(vec![1]), run(vec![1]));
    }
}
