//! The discrete-event simulation engine.
//!
//! # Execution model
//!
//! * **Streams and hardware queues.** Hosts enqueue operations (kernel
//!   launches, event records, event waits) onto per-device *streams*. A
//!   device exposes a fixed number of *hardware launch queues* (the
//!   `CUDA_DEVICE_MAX_CONNECTIONS` analog); stream `s` maps to queue
//!   `s % connections`. Operations within one hardware queue execute
//!   strictly serially and in FIFO order — concurrency on a device exists
//!   only *across* hardware queues. This is the mechanism that makes kernel
//!   placement decisions (which subset goes to which stream) matter, exactly
//!   as on real NVIDIA hardware.
//!
//! * **Rate-sharing contention.** Every running kernel progresses through
//!   its nominal work at a rate `1/slowdown`, where the slowdown is computed
//!   by [`ContentionParams`](crate::contention::ContentionParams) from the
//!   set of kernels concurrently running on the device. Any change to the
//!   running set re-prices affected kernels and re-schedules their
//!   completions.
//!
//! * **Collective rendezvous.** A kernel carrying a [`CollectiveId`] blocks
//!   at the head of its hardware queue until *all* members of the collective
//!   have reached the heads of theirs; the collective then progresses at the
//!   minimum of its members' local rates and completes simultaneously on all
//!   devices. This reproduces the launch-skew sensitivity of NCCL
//!   collectives that motivates the paper's hybrid synchronization.
//!
//! * **Hosts.** Host threads execute their command queues serially, paying
//!   per-command overheads ([`HostSpec`]); blocking synchronizations park the
//!   host until the awaited event fires and add a per-rank wake jitter.
//!
//! * **Driver.** All policy (what to launch when) lives outside the
//!   simulator in a [`Driver`] implementation, which is woken by timers,
//!   event callbacks and completed blocking syncs.

use std::collections::{BTreeSet, VecDeque};

use crate::device::DeviceSpec;
use crate::faults::FaultSpec;
use crate::host::HostSpec;
use crate::ids::{CollectiveId, DeviceId, EventId, HostId, KernelId, StreamId, TimerId};
use crate::idtable::IdTable;
use crate::kernel::{KernelClass, KernelSpec};
use crate::lanes::EventLane;
use crate::memory::{AllocationId, MemoryTracker, OutOfMemory};
use crate::stats::DeviceStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent, TraceMark};

/// Reasons the simulation wakes the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A timer registered with [`Simulation::set_timer`] fired.
    Timer {
        /// Token supplied at registration.
        token: u64,
    },
    /// An event registered with [`Simulation::notify_on_event`] fired.
    /// Delivered `sync_latency` after the GPU-side trigger; `fired_at` is the
    /// exact GPU-side trigger time (use it for metrics).
    EventFired {
        /// The event that fired.
        event: EventId,
        /// Token supplied at registration.
        token: u64,
        /// GPU-side trigger instant.
        fired_at: SimTime,
    },
    /// A blocking host synchronization ([`Simulation::host_sync`]) completed;
    /// the host is idle again.
    HostSynced {
        /// The host that was blocked.
        host: HostId,
        /// The event that was awaited.
        event: EventId,
        /// Token supplied at registration.
        token: u64,
        /// GPU-side trigger instant of the awaited event.
        fired_at: SimTime,
    },
    /// A kernel was killed by the injected fault schedule
    /// ([`crate::FaultSpec::kernel_failures`]). The kernel still popped from
    /// its hardware queue (stream order and events are unaffected), but its
    /// result is lost — the serving layer decides whether to retry.
    KernelFailed {
        /// The failed kernel.
        kernel: KernelId,
        /// Device it ran on.
        device: DeviceId,
        /// The kernel's user correlation tag (batch/request id).
        tag: u64,
        /// Failure instant.
        at: SimTime,
    },
    /// A device died ([`crate::FaultSpec::device_down`] /
    /// [`crate::FaultSpec::device_outage`]). Its queues were FIFO-drained
    /// (every lost kernel produced its own [`Wake::KernelFailed`]) and
    /// collectives it participated in were aborted before this wake is
    /// delivered. Production detection should come from a health watchdog
    /// observing missed heartbeats; this wake is the ground-truth loss
    /// instant for measuring detection latency.
    DeviceDown {
        /// The dead device.
        device: DeviceId,
        /// The death instant.
        at: SimTime,
    },
    /// A device's outage window ([`crate::FaultSpec::device_outage`])
    /// closed: the device is alive again with empty queues and no memory of
    /// its pre-death work. Like [`Wake::DeviceDown`] this is ground truth —
    /// production confirmation should come from the health watchdog
    /// observing answered probes through a quarantine period.
    DeviceRejoined {
        /// The recovered device.
        device: DeviceId,
        /// The rejoin instant.
        at: SimTime,
    },
}

/// Driver of a simulation: owns all scheduling policy.
pub trait Driver {
    /// Called once before the event loop starts. Submit initial work and
    /// timers here.
    fn start(&mut self, sim: &mut Simulation) {
        let _ = sim;
    }

    /// Called whenever a registered wake condition is met.
    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation);
}

// ---------------------------------------------------------------------------
// Internal runtime state
// ---------------------------------------------------------------------------

/// An operation queued on a device hardware queue. Kernel specs are held
/// inline: launching a kernel moves its spec through the host queue into
/// the device queue without a heap allocation of its own.
#[derive(Debug, Clone)]
pub(crate) enum StreamOp {
    Kernel(KernelSpec, KernelId),
    Record(EventId),
    Wait(EventId),
}

impl StreamOp {
    /// True for operations that couple lanes: event records and waits
    /// (they synchronize across lanes) and collective member kernels (they
    /// rendezvous across devices). The explore core's conservative rule
    /// never reorders a dispatch that reaches one.
    pub(crate) fn is_boundary(&self) -> bool {
        match self {
            StreamOp::Record(_) | StreamOp::Wait(_) => true,
            StreamOp::Kernel(spec, _) => spec.collective.is_some(),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct QueuedOp {
    pub(crate) op: StreamOp,
    pub(crate) stream: usize,
    pub(crate) enqueued_at: SimTime,
}

/// State of a hardware queue's head operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeadState {
    /// Head has not begun (or queue empty).
    Idle,
    /// Head is a Wait op blocked on an untriggered event.
    WaitingEvent,
    /// Head is a comm kernel paying the dispatch-lag penalty before it may
    /// begin (left-over scheduling policy model).
    LagWait { gen: u64 },
    /// Head is a collective kernel waiting for its peers.
    WaitingPeers,
    /// Head is a kernel currently executing. For plain kernels `slot` indexes
    /// the device's run table; for collective members it is `usize::MAX` and
    /// progress is tracked by the collective.
    Running { slot: usize },
}

#[derive(Debug, Clone)]
pub(crate) struct QueueRt {
    pub(crate) ops: VecDeque<QueuedOp>,
    pub(crate) head: HeadState,
    pub(crate) lag_gen: u64,
}

impl QueueRt {
    fn new() -> QueueRt {
        QueueRt { ops: VecDeque::new(), head: HeadState::Idle, lag_gen: 0 }
    }
}

/// A plain (non-collective) kernel in flight.
#[derive(Debug, Clone)]
pub(crate) struct RunSlot {
    pub(crate) kernel: KernelId,
    pub(crate) queue: usize,
    pub(crate) class: KernelClass,
    pub(crate) blocks: u32,
    pub(crate) remaining: f64, // nominal ns of work left
    pub(crate) rate: f64,      // progress in nominal ns per wall ns
    pub(crate) settled_at: SimTime,
    pub(crate) started_at: SimTime,
    pub(crate) gen: u64,
    pub(crate) live: bool,
    /// Set when the fault schedule decided at begin time that this kernel
    /// dies after a fraction of its work (remaining was shortened).
    pub(crate) failing: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct DeviceRt {
    pub(crate) spec: DeviceSpec,
    pub(crate) queues: Vec<QueueRt>,
    pub(crate) run: Vec<RunSlot>,
    pub(crate) free_slots: Vec<usize>,
    pub(crate) n_compute: u32,
    pub(crate) n_comm: u32,
    pub(crate) comm_channels: u32,
    /// Table slots of currently *running* collectives with a member on
    /// this device. Kept small and current so settling/repricing is
    /// O(active), not O(all collectives ever created).
    pub(crate) active_colls: Vec<usize>,
    /// Cleared when the device dies permanently ([`Wake::DeviceDown`]).
    pub(crate) alive: bool,
    pub(crate) stats: DeviceStats,
}

impl DeviceRt {
    fn slowdown(&self, class: KernelClass) -> f64 {
        self.spec.contention.slowdown(class, self.n_compute, self.n_comm, self.comm_channels)
    }

    // -- device-local physics -----------------------------------------------
    //
    // Everything below touches only this device's own state (plus its event
    // lane, passed in by the caller). Collective handling stays on
    // `Simulation`: collectives span devices.

    /// Charges elapsed progress (at current rates) to every live plain
    /// kernel on this device.
    pub(crate) fn settle_plain(&mut self, now: SimTime) {
        for slot in self.run.iter_mut() {
            if slot.live {
                let elapsed = now.saturating_since(slot.settled_at).as_nanos() as f64;
                if elapsed > 0.0 {
                    slot.remaining = (slot.remaining - elapsed * slot.rate).max(0.0);
                    slot.settled_at = now;
                }
            }
        }
    }

    /// Recomputes rates and reschedules completions for every live plain
    /// kernel, pushing superseding [`Pending::KernelDone`] entries into the
    /// device's own lane. Callers must have settled first.
    pub(crate) fn reprice_plain(
        &mut self,
        d: usize,
        now: SimTime,
        fault_factor: f64,
        lane: &mut EventLane<Pending>,
    ) {
        for (i, slot) in self.run.iter_mut().enumerate() {
            if !slot.live {
                continue;
            }
            let rate =
                1.0 / self.spec.contention.slowdown(
                    slot.class,
                    self.n_compute,
                    self.n_comm,
                    self.comm_channels,
                ) / fault_factor;
            slot.rate = rate;
            slot.gen += 1;
            let dur = (slot.remaining / rate).ceil() as u64;
            lane.push(
                now + SimDuration::from_nanos(dur),
                Pending::KernelDone { device: d, slot: i, gen: slot.gen },
            );
        }
    }

    /// Updates running-population counters and utilization stats.
    pub(crate) fn apply_class_delta(
        &mut self,
        now: SimTime,
        class: KernelClass,
        blocks: u32,
        delta: i32,
    ) {
        self.stats.account_transition(now, self.n_compute, self.n_comm);
        match class {
            KernelClass::Compute => {
                self.n_compute = (self.n_compute as i64 + delta as i64) as u32;
            }
            KernelClass::Comm => {
                self.n_comm = (self.n_comm as i64 + delta as i64) as u32;
                let ch = blocks as i64 * delta as i64;
                self.comm_channels = (self.comm_channels as i64 + ch).max(0) as u32;
            }
        }
    }

    /// Lag charged to a comm kernel beginning while the *other* hardware
    /// queues of its device are deeply backed up with work the firmware will
    /// prioritize. Zero in normal operation; grows once the foreign backlog
    /// exceeds `COMM_LAG_FREE_OPS` (models §2.3.1's communication-kernel
    /// execution lag under kernel flooding, which the hybrid synchronization
    /// avoids by launching incrementally). Work queued *behind* the kernel
    /// in its own queue cannot delay it and is excluded.
    pub(crate) fn comm_dispatch_lag(&self, own_queue: usize) -> SimDuration {
        const COMM_LAG_FREE_OPS: usize = 24;
        const LAG_PER_OP_NS: u64 = 400;
        let foreign: usize = self
            .queues
            .iter()
            .enumerate()
            .filter(|&(q, _)| q != own_queue)
            .map(|(_, q)| q.ops.len())
            .sum();
        let backlog = foreign.saturating_sub(COMM_LAG_FREE_OPS);
        SimDuration::from_nanos(backlog as u64 * LAG_PER_OP_NS)
    }

    /// Begins the plain kernel at the head of queue `q`: assigns a run slot,
    /// applies the (precomputed) fault decision and bumps the population
    /// counters. Callers settle before and reprice after.
    pub(crate) fn begin_plain(&mut self, q: usize, now: SimTime, failure: Option<f64>) {
        let head = self.queues[q].ops.front().expect("begin_plain on empty queue");
        let StreamOp::Kernel(spec, kid) = &head.op else {
            panic!("begin_plain on non-kernel head")
        };
        let (kid, class, blocks) = (*kid, spec.class, spec.blocks);
        let work = spec.work.as_nanos() as f64;
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.run.push(RunSlot {
                kernel: KernelId(0),
                queue: 0,
                class: KernelClass::Compute,
                blocks: 0,
                remaining: 0.0,
                rate: 1.0,
                settled_at: SimTime::ZERO,
                started_at: SimTime::ZERO,
                gen: 0,
                live: false,
                failing: false,
            });
            self.run.len() - 1
        });
        let s = &mut self.run[slot];
        s.kernel = kid;
        s.queue = q;
        s.class = class;
        s.blocks = blocks;
        s.remaining = match failure {
            Some(fraction) => work * fraction,
            None => work,
        };
        s.rate = 1.0;
        s.settled_at = now;
        s.started_at = now;
        s.gen += 1;
        s.live = true;
        s.failing = failure.is_some();
        self.queues[q].head = HeadState::Running { slot };
        self.apply_class_delta(now, class, blocks, 1);
    }

    /// Pops the completed kernel off queue `q`, updates device-local stats
    /// and returns the finished-kernel record. The caller owns everything
    /// cross-cutting: global counters, failure wakes and the trace append.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_head(
        &mut self,
        device: DeviceId,
        q: usize,
        kernel: KernelId,
        class: KernelClass,
        started_at: SimTime,
        failed: bool,
        now: SimTime,
    ) -> TraceEvent {
        let popped = self.queues[q].ops.pop_front().expect("finishing empty queue");
        let (name, tag, stream, collective) = match popped.op {
            StreamOp::Kernel(spec, kid) => {
                debug_assert_eq!(kid, kernel);
                (spec.name, spec.tag, popped.stream, spec.collective)
            }
            _ => panic!("queue head changed under a running kernel"),
        };
        self.queues[q].head = HeadState::Idle;
        self.stats.account_kernel(class, now.saturating_since(started_at));
        if failed {
            self.stats.kernels_failed += 1;
        }
        TraceEvent {
            kernel,
            name,
            class,
            tag,
            device,
            stream,
            enqueued_at: popped.enqueued_at,
            started_at,
            ended_at: now,
            failed,
            collective,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum CollState {
    #[default]
    Gathering,
    Running,
    Done,
    /// A member device died: the rendezvous can never complete. Members
    /// already gathered were failed and popped; members arriving later fail
    /// on arrival so survivor queues keep draining.
    Aborted,
}

/// A collective rendezvous group. Its record is reclaimed once no member
/// can name it again: at completion, or for an aborted group once all
/// `size` members have arrived and failed.
#[derive(Debug, Clone, Default)]
pub(crate) struct CollectiveRt {
    size: usize,
    /// (device, queue) of members gathered at their queue heads. Taken from
    /// [`Simulation::spare_members`] on the first arrival and returned there
    /// when the group stops gathering for good.
    members: Vec<(usize, usize)>,
    /// Members that reached their queue heads or a dead device, gathered
    /// or failed on arrival.
    arrived: usize,
    /// Kernel metadata captured from the first member (all members carry the
    /// same nominal work by construction).
    work: f64,
    remaining: f64,
    rate: f64,
    settled_at: SimTime,
    started_at: SimTime,
    /// Completion-entry generation. It keeps counting across reuse of the
    /// table slot, so a [`Pending::CollectiveDone`] left behind by an
    /// earlier occupant never matches the group that now holds the slot.
    gen: u64,
    pub(crate) state: CollState,
}

#[derive(Debug, Clone)]
enum HostOp {
    Enqueue { stream: StreamId, op: StreamOp },
    Sync { event: EventId, token: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostState {
    Idle,
    /// Busy executing the op at the front of the queue; completion scheduled.
    Busy,
    /// Parked on a blocking sync for the event at the front of the queue.
    Blocked,
}

#[derive(Debug, Clone)]
pub(crate) struct HostRt {
    pub(crate) spec: HostSpec,
    ops: VecDeque<HostOp>,
    state: HostState,
}

/// A CUDA-like event. Its record is reclaimed once it has fired, its
/// waiter and callback lists have drained and no queued host `Sync` op
/// still names it; a reclaimed id answers "fired" unless it is doomed (see
/// [`DoomedEvent`]). The lists keep their capacity for the next event that
/// reuses the table slot.
#[derive(Debug, Default, Clone)]
struct EventRt {
    fired_at: Option<SimTime>,
    /// Hardware queues blocked on this event: (device, queue).
    queue_waiters: Vec<(usize, usize)>,
    /// Hosts parked on this event.
    host_waiters: Vec<usize>,
    /// Driver callbacks: (token, latency-reference host).
    callbacks: Vec<(u64, usize)>,
    /// Host `Sync` ops naming this event that have not resolved yet: each
    /// reads `fired_at` when it reaches the front of its host queue.
    syncs: u32,
}

/// Bits of [`DoomedEvent::key`] holding the callback's latency host.
const DOOMED_HOST_BITS: u32 = 16;

/// [`DoomedEvent::key`]'s host field of an event with no callback.
const NO_CALLBACK: u64 = (1 << DOOMED_HOST_BITS) - 1;

/// An unfired event whose record a dead device dropped while nothing waited
/// on it: no queue, no parked host, no queued sync and at most one driver
/// callback. It can fire only if something records it again, so its table
/// record is reclaimed and this 16-B entry keeps what the record held. The
/// next call that needs the record (a `Wait` reaching a queue head, another
/// record firing it, a callback or a host sync) restores it first, so the
/// event behaves exactly as if its record had stayed in the table.
#[derive(Debug, Clone, Copy)]
struct DoomedEvent {
    /// The event id above [`DOOMED_HOST_BITS`], and below them the
    /// callback's latency host, or [`NO_CALLBACK`].
    key: u64,
    /// The callback's token (0 without one).
    token: u64,
}

impl DoomedEvent {
    fn id(&self) -> u64 {
        self.key >> DOOMED_HOST_BITS
    }

    /// The callback, as an [`EventRt::callbacks`] entry.
    fn callback(&self) -> Option<(u64, usize)> {
        let host = self.key & NO_CALLBACK;
        (host != NO_CALLBACK).then_some((self.token, host as usize))
    }
}

/// A scheduled simulation event. Which lane it dispatches on is fixed by
/// [`Pending::device_lane`]: device-local physics (kernel completions, comm
/// dispatch-lag expiries) ride the owning device's lane; everything that can
/// touch more than one device — host completions, timers, driver wakes,
/// collective completions, fault boundaries, device deaths — rides the
/// global lane.
#[derive(Debug, Clone)]
pub(crate) enum Pending {
    HostReady {
        host: usize,
    },
    KernelDone {
        device: usize,
        slot: usize,
        gen: u64,
    },
    /// `coll` is the collective's table slot; `gen` tells its current
    /// occupant's live entry from stale ones.
    CollectiveDone {
        coll: usize,
        gen: u64,
    },
    CommLagDone {
        device: usize,
        queue: usize,
        gen: u64,
    },
    Timer {
        token: u64,
    },
    DriverWake {
        wake: Wake,
    },
    /// A fault window opens or closes: rates change with no population
    /// change, so everything must settle and reprice.
    FaultBoundary,
    /// A device dies at this instant (permanently or for a window).
    DeviceDown {
        device: usize,
    },
    /// A device's outage window closes at this instant: it rejoins with
    /// empty queues. Rides the global lane, so the rejoin is dispatched in
    /// canonical order.
    DeviceRejoin {
        device: usize,
    },
}

impl Pending {
    /// The device lane this event dispatches on, or `None` for the global
    /// lane. This routing is part of the canonical dispatch order (see
    /// [`crate::lanes`]): the global lane ranks before every device lane at
    /// equal times, and device lanes rank by device index.
    pub(crate) fn device_lane(&self) -> Option<usize> {
        match *self {
            Pending::KernelDone { device, .. } | Pending::CommLagDone { device, .. } => {
                Some(device)
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch footprints (explore-core instrumentation)
// ---------------------------------------------------------------------------

/// Tag bit distinguishing collective ids from event ids inside
/// [`DispatchFootprint::events`]: the two id spaces both start at zero, so
/// collective coupling is keyed as `COLL_FOOTPRINT_BIT | collective`.
pub const COLL_FOOTPRINT_BIT: u64 = 1 << 63;

/// The state touched by dispatching one pending event: the footprint the
/// schedule-space model checker keys its partial-order reduction on.
///
/// Two dispatches *commute* when their footprints are disjoint — neither can
/// observe whether the other ran first. `devices` covers every device whose
/// runtime state (queues, run slots, contention population, stats) the
/// dispatch settled, repriced or advanced; `events` covers every CUDA-like
/// event the dispatch fired, resolved or registered a waiter on; `streams`
/// and `tags` are reporting metadata at the granularity the sanitizer's
/// TS-HAZARD rules use (a kernel's tag is its memory label). `global` marks
/// coupling through host-side state (blocking syncs, driver callbacks),
/// which conservatively intersects everything.
///
/// Footprints are recorded two ways: *dynamically* by the probe armed by
/// [`crate::cores::ExploreCore`] around each dispatch (hooks in the queue
/// poll, kernel begin/finish and event trigger paths), and *statically* for
/// enabled-but-undispatched events by walking the queue continuation the
/// dispatch would drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchFootprint {
    /// Host-side coupling: intersects every other footprint.
    pub global: bool,
    /// Devices whose runtime state the dispatch touches.
    pub devices: BTreeSet<usize>,
    /// `(device, stream)` lanes touched, for reporting.
    pub streams: BTreeSet<(usize, usize)>,
    /// Kernel tags (memory labels in the TS-HAZARD sense) touched.
    pub tags: BTreeSet<u64>,
    /// CUDA-like events fired, resolved or waited on.
    pub events: BTreeSet<u64>,
}

impl DispatchFootprint {
    /// True when the two footprints share state: the dispatches do not
    /// commute and their order is a real choice the checker must explore.
    pub fn intersects(&self, other: &DispatchFootprint) -> bool {
        self.global
            || other.global
            || self.devices.iter().any(|d| other.devices.contains(d))
            || self.events.iter().any(|e| other.events.contains(e))
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &DispatchFootprint) {
        self.global |= other.global;
        self.devices.extend(other.devices.iter().copied());
        self.streams.extend(other.streams.iter().copied());
        self.tags.extend(other.tags.iter().copied());
        self.events.extend(other.events.iter().copied());
    }
}

// ---------------------------------------------------------------------------
// Terminal-state report (quiescence / deadlock checking)
// ---------------------------------------------------------------------------

/// Why a hardware queue is blocked at end of run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneBlock {
    /// The queue head is a `Wait` on this (unfired) event.
    Event(u64),
    /// The queue head is a collective member still gathering peers.
    Collective(u64),
}

/// One hardware queue blocked at end of run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedLane {
    /// Owning device.
    pub device: usize,
    /// Hardware queue index on the device.
    pub queue: usize,
    /// Stream of the blocking head op.
    pub stream: usize,
    /// What the head is blocked on.
    pub block: LaneBlock,
}

/// Snapshot of everything left unfinished when the event loop stopped: the
/// raw material for the model checker's MC-QUIESCENCE / MC-DEADLOCK rules.
/// A clean terminal state is [`TerminalReport::is_quiescent`].
#[derive(Debug, Clone, Default)]
pub struct TerminalReport {
    /// Non-stale events still pending in the lanes (0 unless a deadline or
    /// stop request cut the run short).
    pub pending_events: usize,
    /// Ops still sitting in device hardware queues.
    pub queued_ops: usize,
    /// Queues blocked on an event or a collective rendezvous.
    pub blocked_lanes: Vec<BlockedLane>,
    /// Hosts parked on a blocking sync: `(host, event)`.
    pub blocked_hosts: Vec<(usize, u64)>,
    /// `Record` ops still queued (events that could yet fire):
    /// `(event, device, queue)`.
    pub held_records: Vec<(u64, usize, usize)>,
    /// Collective member kernels still queued: `(collective, device, queue)`.
    pub queued_collective_members: Vec<(u64, usize, usize)>,
    /// Collectives stuck gathering: `(collective, members_arrived, size)`.
    pub gathering_collectives: Vec<(u64, usize, usize)>,
}

impl TerminalReport {
    /// True when nothing is left pending, queued or blocked: the run drained
    /// completely.
    pub fn is_quiescent(&self) -> bool {
        self.pending_events == 0
            && self.queued_ops == 0
            && self.blocked_lanes.is_empty()
            && self.blocked_hosts.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

/// Builder for [`Simulation`].
#[derive(Debug, Default)]
pub struct SimulationBuilder {
    devices: Vec<DeviceSpec>,
    hosts: Vec<HostSpec>,
    streams_per_device: usize,
    capture_trace: bool,
    faults: FaultSpec,
}

impl SimulationBuilder {
    /// Starts an empty builder (no devices, 4 streams per device).
    pub fn new() -> Self {
        SimulationBuilder {
            devices: Vec::new(),
            hosts: Vec::new(),
            streams_per_device: 4,
            capture_trace: false,
            faults: FaultSpec::none(),
        }
    }

    /// Adds `count` identical devices.
    pub fn devices(mut self, spec: DeviceSpec, count: usize) -> Self {
        for _ in 0..count {
            self.devices.push(spec.clone());
        }
        self
    }

    /// Adds one device.
    pub fn device(mut self, spec: DeviceSpec) -> Self {
        self.devices.push(spec);
        self
    }

    /// Adds one host thread.
    pub fn host(mut self, spec: HostSpec) -> Self {
        self.hosts.push(spec);
        self
    }

    /// Number of streams created per device (default 4).
    pub fn streams_per_device(mut self, n: usize) -> Self {
        self.streams_per_device = n.max(1);
        self
    }

    /// Enables execution trace capture.
    pub fn capture_trace(mut self, on: bool) -> Self {
        self.capture_trace = on;
        self
    }

    /// Installs a deterministic fault schedule ([`FaultSpec`]).
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// Builds the simulation. If no hosts were added, one MPI-style rank per
    /// device is created ([`HostSpec::mpi_rank`]).
    ///
    /// # Errors
    /// Returns a description of the first invalid spec.
    pub fn build(mut self) -> Result<Simulation, String> {
        if self.devices.is_empty() {
            return Err("simulation requires at least one device".to_string());
        }
        if u16::try_from(self.devices.len()).is_err() {
            return Err(format!(
                "{} devices exceed the memory tracker's limit of {}",
                self.devices.len(),
                u16::MAX
            ));
        }
        for d in &self.devices {
            d.validate()?;
        }
        if self.hosts.is_empty() {
            self.hosts = (0..self.devices.len()).map(HostSpec::mpi_rank).collect();
        }
        let streams = self.streams_per_device;
        let devices: Vec<DeviceRt> = self
            .devices
            .into_iter()
            .map(|spec| {
                let nq = spec.connections.min(streams);
                DeviceRt {
                    spec,
                    queues: (0..nq).map(|_| QueueRt::new()).collect(),
                    run: Vec::new(),
                    free_slots: Vec::new(),
                    n_compute: 0,
                    n_comm: 0,
                    comm_channels: 0,
                    active_colls: Vec::new(),
                    alive: true,
                    stats: DeviceStats::default(),
                }
            })
            .collect();
        let hosts: Vec<HostRt> = self
            .hosts
            .into_iter()
            .map(|spec| HostRt { spec, ops: VecDeque::new(), state: HostState::Idle })
            .collect();
        let memory =
            MemoryTracker::new(devices.iter().map(|d: &DeviceRt| d.spec.mem_capacity).collect());
        let device_lanes = devices.iter().map(|_| EventLane::default()).collect();
        let mut sim = Simulation {
            now: SimTime::ZERO,
            global_lane: EventLane::default(),
            device_lanes,
            devices,
            hosts,
            events: IdTable::default(),
            doomed: Vec::new(),
            collectives: IdTable::default(),
            spare_members: Vec::new(),
            streams_per_device: streams,
            next_kernel: 0,
            next_timer: 0,
            wakes: VecDeque::new(),
            stop: false,
            trace: if self.capture_trace { Some(Trace::new()) } else { None },
            kernels_completed: 0,
            kernels_launched: 0,
            kernels_failed: 0,
            events_dispatched: 0,
            memory,
            faults: self.faults,
            probe: None,
            relaxed_time: false,
        };
        // Every fault-window edge changes rates without a population change;
        // schedule a settle + reprice there so piecewise rates are exact.
        for at in sim.faults.boundaries() {
            sim.push(at, Pending::FaultBoundary);
        }
        for down in sim.faults.device_downs().to_vec() {
            if down.device.0 >= sim.devices.len() {
                return Err(format!("device down schedule names unknown {:?}", down.device));
            }
            sim.push(down.at, Pending::DeviceDown { device: down.device.0 });
            if let Some(until) = down.until {
                sim.push(until, Pending::DeviceRejoin { device: down.device.0 });
            }
        }
        Ok(sim)
    }
}

/// The discrete-event multi-GPU simulation.
///
/// Cloning a `Simulation` deep-copies every lane, device runtime, host
/// queue, event table and counter: the clone replays identically under the
/// same driver and dispatch order. The schedule-space model checker clones
/// a pristine simulation once per explored schedule.
#[derive(Clone)]
pub struct Simulation {
    pub(crate) now: SimTime,
    /// Coordinator lane: hosts, timers, driver wakes, collectives, fault
    /// boundaries, device deaths. Ranks before every device lane at ties.
    pub(crate) global_lane: EventLane<Pending>,
    /// One local lane per device: its kernel completions and comm-lag
    /// expiries. Lane `d` ranks `d + 1` in the canonical dispatch order.
    pub(crate) device_lanes: Vec<EventLane<Pending>>,
    pub(crate) devices: Vec<DeviceRt>,
    pub(crate) hosts: Vec<HostRt>,
    /// Live event records; see [`EventRt`] for when one is reclaimed.
    events: IdTable<EventRt>,
    /// Events that can fire only if recorded again, ascending by id; none
    /// of them has a record in `events`.
    doomed: Vec<DoomedEvent>,
    /// Live collective records; see [`CollectiveRt`] for when one is
    /// reclaimed.
    collectives: IdTable<CollectiveRt>,
    /// Cleared member lists of finished rendezvous groups, reused by the
    /// next group to gather so that steady-state collectives allocate
    /// nothing.
    spare_members: Vec<Vec<(usize, usize)>>,
    streams_per_device: usize,
    next_kernel: u64,
    next_timer: u64,
    pub(crate) wakes: VecDeque<Wake>,
    pub(crate) stop: bool,
    pub(crate) trace: Option<Trace>,
    pub(crate) kernels_completed: u64,
    kernels_launched: u64,
    kernels_failed: u64,
    pub(crate) events_dispatched: u64,
    memory: MemoryTracker,
    pub(crate) faults: FaultSpec,
    /// Armed by the explore core around a dispatch: records the state the
    /// dispatch touches. `None` (the default) costs one branch per hook.
    pub(crate) probe: Option<DispatchFootprint>,
    /// Set by the explore core's unguarded window rule: out-of-timestamp
    /// dispatch across interacting lanes is intentional there, so the
    /// monotone-completion debug assertion is relaxed.
    pub(crate) relaxed_time: bool,
}

impl Simulation {
    /// Starts a builder.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::new()
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of devices in the node.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of host threads.
    #[inline]
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Streams available per device.
    #[inline]
    pub fn streams_per_device(&self) -> usize {
        self.streams_per_device
    }

    /// Device specification.
    pub fn device_spec(&self, d: DeviceId) -> &DeviceSpec {
        &self.devices[d.0].spec
    }

    /// Host specification.
    pub fn host_spec(&self, h: HostId) -> &HostSpec {
        &self.hosts[h.0].spec
    }

    /// Per-device utilization statistics.
    pub fn device_stats(&self, d: DeviceId) -> &DeviceStats {
        &self.devices[d.0].stats
    }

    /// Total kernels launched (enqueued on devices) so far.
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched
    }

    /// Total kernels completed so far (failed kernels included: they still
    /// drain from their queues).
    pub fn kernels_completed(&self) -> u64 {
        self.kernels_completed
    }

    /// Total kernels killed by the fault schedule so far.
    pub fn kernels_failed(&self) -> u64 {
        self.kernels_failed
    }

    /// Total simulation events dispatched so far (stale, superseded entries
    /// excluded). The throughput numerator for `bench_simcore`.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// The installed fault schedule (empty by default).
    pub fn fault_spec(&self) -> &FaultSpec {
        &self.faults
    }

    /// The straggler slowdown factor currently active on `device` (1.0 when
    /// healthy). Schedulers use this for degraded-round replanning.
    pub fn device_fault_factor(&self, device: DeviceId) -> f64 {
        self.faults.device_factor(device, self.now)
    }

    /// The worst straggler factor across all devices right now (dead devices
    /// excluded: they no longer run anything to slow down).
    pub fn worst_fault_factor(&self) -> f64 {
        (0..self.devices.len())
            .filter(|&d| self.devices[d].alive)
            .map(|d| self.faults.device_factor(DeviceId(d), self.now))
            .fold(1.0, f64::max)
    }

    /// Whether `device` is still alive (true until a
    /// [`FaultSpec::device_down`](crate::FaultSpec::device_down) trigger
    /// fires for it).
    pub fn device_alive(&self, device: DeviceId) -> bool {
        self.devices[device.0].alive
    }

    /// The devices currently alive, in index order.
    pub fn alive_devices(&self) -> Vec<DeviceId> {
        (0..self.devices.len()).filter(|&d| self.devices[d].alive).map(DeviceId).collect()
    }

    /// The captured execution trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Takes the captured execution trace out of the simulation.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Whether `ev` has fired. Exact for every id ever issued: an event's
    /// record is reclaimed only after it fired, or while a dead device's
    /// drop keeps it from firing (it is doomed), so any other reclaimed id
    /// answers `true`.
    ///
    /// # Panics
    /// Panics when `ev` was not created by this simulation.
    pub fn event_has_fired(&self, ev: EventId) -> bool {
        match self.events.slot(ev.0) {
            Some(slot) => self.events[slot].fired_at.is_some(),
            None => {
                assert!(ev.0 < self.events.issued(), "unknown event {ev}");
                self.doomed_index(ev.0).is_err()
            }
        }
    }

    /// Events still held: unfired events (doomed ones included), plus fired
    /// ones a queued host sync has yet to read. Follows the synchronisation
    /// in flight, not the number of events ever created.
    pub fn live_events(&self) -> usize {
        self.events.live() + self.doomed.len()
    }

    /// Collective records still held: groups gathering or running, plus
    /// aborted ones still waiting for late members to arrive and fail.
    pub fn live_collectives(&self) -> usize {
        self.collectives.live()
    }

    /// Requests the event loop to stop after the current wake drains.
    pub fn request_stop(&mut self) {
        self.stop = true;
    }

    // -- device memory ---------------------------------------------------------

    /// Allocates `bytes` of device memory (weights, activations, KV cache).
    /// Fails when the device's capacity would be exceeded — the constraint
    /// that forces model partitioning in the first place.
    pub fn alloc_memory(
        &mut self,
        device: DeviceId,
        bytes: u64,
        label: &'static str,
    ) -> Result<AllocationId, OutOfMemory> {
        let id = self.memory.alloc(device, bytes, label)?;
        if let Some(trace) = &mut self.trace {
            trace.push_mark(TraceMark::Alloc {
                id: id.0,
                device,
                bytes,
                label: label.to_string(),
                at: self.now,
            });
        }
        Ok(id)
    }

    /// Frees a device-memory allocation. Accounting is idempotent, but a
    /// second free of the same id is an allocator bug: the tracker counts it
    /// (see [`Simulation::memory_double_frees`]) and fires a debug assertion,
    /// and the duplicate `Free` trace mark trips the sanitizer's
    /// TS-DOUBLE-FREE rule.
    ///
    /// A freed id still names its device, so a double free is charged to
    /// that device and its `Free` mark names it.
    ///
    /// # Panics
    /// Panics when `id` was not allocated by this simulation ("unknown
    /// allocation").
    pub fn free_memory(&mut self, id: AllocationId) {
        let Some(info) = self.memory.info(id) else {
            panic!("unknown allocation {}", id.0);
        };
        if let Some(trace) = &mut self.trace {
            trace.push_mark(TraceMark::Free { id: id.0, device: info.device(), at: self.now });
        }
        self.memory.free(id);
    }

    /// Double frees observed by the memory tracker, across all devices.
    pub fn memory_double_frees(&self) -> u64 {
        self.memory.double_frees()
    }

    /// Double frees charged against `device` specifically.
    pub fn memory_double_frees_on(&self, device: DeviceId) -> u64 {
        self.memory.double_frees_on(device)
    }

    /// Bytes currently allocated on `device`.
    pub fn memory_in_use(&self, device: DeviceId) -> u64 {
        self.memory.in_use(device)
    }

    /// Peak bytes ever allocated on `device`.
    pub fn memory_peak(&self, device: DeviceId) -> u64 {
        self.memory.peak(device)
    }

    // -- driver-facing API ---------------------------------------------------

    /// Registers a timer firing at `at` (clamped to `now`); the driver is
    /// woken with [`Wake::Timer`] carrying `token`.
    pub fn set_timer(&mut self, at: SimTime, token: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        let at = at.max(self.now);
        self.push(at, Pending::Timer { token });
        id
    }

    /// Allocates a fresh CUDA-like event (not yet recorded anywhere).
    pub fn new_event(&mut self) -> EventId {
        // A recycled record was reset when its previous event was reclaimed.
        EventId(self.events.alloc().0)
    }

    /// Allocates a collective rendezvous group expecting `size` member
    /// kernels (one per participating device).
    pub fn new_collective(&mut self, size: usize) -> CollectiveId {
        assert!(size >= 1, "collective size must be >= 1");
        let (id, slot) = self.collectives.alloc();
        let c = &mut self.collectives[slot];
        debug_assert!(c.members.capacity() == 0, "reclaimed group kept its member list");
        c.size = size;
        c.arrived = 0;
        c.work = 0.0;
        c.remaining = 0.0;
        c.rate = 1.0;
        c.settled_at = SimTime::ZERO;
        c.started_at = SimTime::ZERO;
        c.state = CollState::Gathering;
        CollectiveId(id)
    }

    /// Asks host `host` to launch `spec` onto `stream`. The host pays its
    /// launch overhead; the kernel is enqueued on the stream's hardware queue
    /// when the overhead elapses. Returns the kernel's id immediately.
    pub fn launch(&mut self, host: HostId, stream: StreamId, spec: KernelSpec) -> KernelId {
        assert!(stream.device.0 < self.devices.len(), "unknown device {stream:?}");
        assert!(
            stream.index < self.streams_per_device,
            "stream index {} out of range",
            stream.index
        );
        if let Some(cid) = spec.collective {
            assert!(cid.0 < self.collectives.issued(), "unknown collective {cid}");
            // A reclaimed group finished (or aborted with every member in).
            let open = self.collectives.slot(cid.0).is_some_and(|ci| {
                let coll = &self.collectives[ci];
                coll.members.len() < coll.size || coll.state == CollState::Gathering
            });
            assert!(open, "collective {cid} already complete");
        }
        let id = KernelId(self.next_kernel);
        self.next_kernel += 1;
        self.host_push(host.0, HostOp::Enqueue { stream, op: StreamOp::Kernel(spec, id) });
        id
    }

    /// Asks host `host` to record a fresh event on `stream`; the event fires
    /// when every operation previously enqueued on that stream's hardware
    /// queue has completed.
    pub fn record_event(&mut self, host: HostId, stream: StreamId) -> EventId {
        let ev = self.new_event();
        self.host_push(host.0, HostOp::Enqueue { stream, op: StreamOp::Record(ev) });
        ev
    }

    /// Asks host `host` to record the *pre-created* event `ev` on `stream`.
    /// Same semantics as [`Simulation::record_event`], but the caller owns
    /// the event's identity: replay drivers use this to wire a program's
    /// symbolic event ids to simulator events before any lane runs.
    ///
    /// Re-recording an event that already fired is a no-op, as on a
    /// device: the event keeps its first trigger time. An event whose
    /// earlier record a dead device dropped has not fired, so re-recording
    /// it on a live stream fires it normally, callbacks included.
    ///
    /// # Panics
    /// Panics when `ev` was not created by [`Simulation::new_event`].
    pub fn record_existing_event(&mut self, host: HostId, stream: StreamId, ev: EventId) {
        assert!(ev.0 < self.events.issued(), "unknown event {ev:?}");
        self.host_push(host.0, HostOp::Enqueue { stream, op: StreamOp::Record(ev) });
    }

    /// Asks host `host` to make `stream` wait for `ev` (inter-stream
    /// synchronization, `cudaStreamWaitEvent`): operations enqueued on the
    /// stream after this call do not begin until `ev` has fired. No CPU
    /// involvement at execution time.
    pub fn stream_wait(&mut self, host: HostId, stream: StreamId, ev: EventId) {
        self.host_push(host.0, HostOp::Enqueue { stream, op: StreamOp::Wait(ev) });
    }

    /// Parks host `host` until `ev` fires (CPU–GPU synchronization,
    /// `cudaEventSynchronize`). The driver is woken with [`Wake::HostSynced`]
    /// once the host resumes (after sync latency + per-rank wake jitter).
    ///
    /// # Panics
    /// Panics when `ev`'s record was already reclaimed (it fired with no
    /// waiter left), since its trigger time is gone: sync on an event right
    /// after recording it, as `cudaEventSynchronize` callers do.
    pub fn host_sync(&mut self, host: HostId, ev: EventId, token: u64) {
        let slot = self.live_event(ev, "host_sync");
        self.events[slot].syncs += 1;
        self.host_push(host.0, HostOp::Sync { event: ev, token });
    }

    /// Registers a driver callback on `ev`: when the event fires, the driver
    /// is woken with [`Wake::EventFired`] after host `latency_host`'s sync
    /// latency (modelling the driver thread observing the completion).
    ///
    /// # Panics
    /// Panics when `ev`'s record was already reclaimed (it fired with no
    /// waiter left), since its trigger time is gone: register the callback
    /// right after recording the event.
    pub fn notify_on_event(&mut self, ev: EventId, latency_host: HostId, token: u64) {
        let slot = self.live_event(ev, "notify_on_event");
        let e = &mut self.events[slot];
        if let Some(fired_at) = e.fired_at {
            let latency = self.hosts[latency_host.0].spec.sync_latency;
            let at = self.now.max(fired_at) + latency;
            self.push(
                at,
                Pending::DriverWake { wake: Wake::EventFired { event: ev, token, fired_at } },
            );
        } else {
            e.callbacks.push((token, latency_host.0));
        }
    }

    /// The table slot of `ev`, which `caller` needs the record of (a
    /// doomed event's is restored).
    fn live_event(&mut self, ev: EventId, caller: &str) -> usize {
        assert!(ev.0 < self.events.issued(), "unknown event {ev}");
        self.event_slot(ev.0)
            .unwrap_or_else(|| panic!("{caller} on {ev}, which already fired and was reclaimed"))
    }

    /// The table slot of `ev`'s record, restoring a doomed event's first;
    /// `None` when the event fired and its record was reclaimed.
    fn event_slot(&mut self, ev: u64) -> Option<usize> {
        self.events.slot(ev).or_else(|| self.revive_event(ev))
    }

    /// Where doomed event `ev` sits in [`Simulation::doomed`], or where it
    /// would go.
    fn doomed_index(&self, ev: u64) -> Result<usize, usize> {
        self.doomed.binary_search_by_key(&ev, DoomedEvent::id)
    }

    /// A dead device dropped `ev`'s record. Moves the event out of the
    /// table into [`Simulation::doomed`] when nothing waits on it and its
    /// callbacks fit one entry; any other event keeps its record.
    fn doom_event(&mut self, ev: EventId) {
        let Some(slot) = self.events.slot(ev.0) else { return };
        let e = &mut self.events[slot];
        let idle = e.fired_at.is_none()
            && e.syncs == 0
            && e.queue_waiters.is_empty()
            && e.host_waiters.is_empty();
        let (token, host) = match e.callbacks[..] {
            [] => (0, NO_CALLBACK),
            [(token, host)] if (host as u64) < NO_CALLBACK => (token, host as u64),
            _ => return,
        };
        if !idle || ev.0 >> (64 - DOOMED_HOST_BITS) != 0 {
            return;
        }
        // The reclaimed slot keeps the list's capacity for its next event.
        e.callbacks.clear();
        self.events.reclaim(slot);
        let at = self.doomed_index(ev.0).expect_err("a doomed event has no record");
        self.doomed.insert(at, DoomedEvent { key: (ev.0 << DOOMED_HOST_BITS) | host, token });
    }

    /// Gives doomed event `ev` its table record back, unfired and with its
    /// callback, and returns its slot; `None` when `ev` is not doomed.
    fn revive_event(&mut self, ev: u64) -> Option<usize> {
        let at = self.doomed_index(ev).ok()?;
        let doomed = self.doomed.remove(at);
        let slot = self.events.restore(ev);
        self.events[slot].callbacks.extend(doomed.callback());
        Some(slot)
    }

    // -- event loop -----------------------------------------------------------

    /// Runs the simulation on the [`SequentialCore`](crate::cores::SequentialCore)
    /// until the event lanes drain, `deadline` passes, or the driver
    /// requests a stop. Returns the final simulated time.
    pub fn run(&mut self, driver: &mut dyn Driver, deadline: SimTime) -> SimTime {
        use crate::cores::EventCore;
        crate::cores::SequentialCore.run(self, driver, deadline)
    }

    /// Pops the canonically-next pending event across all lanes: the
    /// smallest `(time, lane rank, lane seq)` key, with the global lane at
    /// rank 0 and device `d` at rank `d + 1`. The sequential core dispatches
    /// in exactly this order, and the explore core wherever its schedule
    /// does not redirect it.
    pub(crate) fn pop_next(&mut self) -> Option<(SimTime, Pending)> {
        let mut best: Option<((SimTime, usize, u64), usize)> =
            self.global_lane.peek_key().map(|(at, seq)| ((at, 0, seq), 0));
        for (d, lane) in self.device_lanes.iter().enumerate() {
            if let Some((at, seq)) = lane.peek_key() {
                let key = (at, d + 1, seq);
                let better = match &best {
                    None => true,
                    Some((b, _)) => key < *b,
                };
                if better {
                    best = Some((key, d + 1));
                }
            }
        }
        let (_, idx) = best?;
        let lane = if idx == 0 { &mut self.global_lane } else { &mut self.device_lanes[idx - 1] };
        let e = lane.pop().expect("peeked lane emptied under us");
        Some((e.at, e.payload))
    }

    /// Total pending events across all lanes.
    pub(crate) fn pending_events(&self) -> usize {
        self.global_lane.len() + self.device_lanes.iter().map(|l| l.len()).sum::<usize>()
    }

    /// True when a lane entry was superseded by a later reprice and must be
    /// ignored (its generation no longer matches the live state).
    pub(crate) fn entry_is_stale(&self, pending: &Pending) -> bool {
        match *pending {
            Pending::KernelDone { device, slot, gen } => {
                let s = &self.devices[device].run[slot];
                !s.live || s.gen != gen
            }
            Pending::CollectiveDone { coll, gen } => {
                let c = &self.collectives[coll];
                c.state != CollState::Running || c.gen != gen
            }
            Pending::CommLagDone { device, queue, gen } => {
                !matches!(self.devices[device].queues[queue].head,
                          HeadState::LagWait { gen: g } if g == gen)
            }
            // A rate-change boundary with nothing running changes nothing:
            // kernels beginning later reprice against the schedule anyway.
            Pending::FaultBoundary => {
                self.devices.iter().all(|dev| dev.run.iter().all(|s| !s.live))
                    && self
                        .collectives
                        .iter_live()
                        .all(|(_, ci)| self.collectives[ci].state != CollState::Running)
            }
            _ => false,
        }
    }

    /// [`Simulation::run`] with no deadline.
    pub fn run_to_completion(&mut self, driver: &mut dyn Driver) -> SimTime {
        self.run(driver, SimTime::MAX)
    }

    /// Applies `f` to the armed dispatch-footprint probe, if any.
    #[inline]
    fn probe_mark(&mut self, f: impl FnOnce(&mut DispatchFootprint)) {
        if let Some(p) = self.probe.as_mut() {
            f(p);
        }
    }

    /// Members gathered so far by collective `cid` (explore-core
    /// footprints). Empty for a reclaimed group.
    pub(crate) fn collective_members(&self, cid: u64) -> &[(usize, usize)] {
        self.collectives.slot(cid).map_or(&[], |ci| &self.collectives[ci].members)
    }

    /// Queues currently blocked on event `ev` (explore-core footprints).
    /// Empty once the event's record is reclaimed: it has fired, or it is
    /// doomed, and a doomed event has no queue waiter.
    pub(crate) fn event_queue_waiters(&self, ev: u64) -> &[(usize, usize)] {
        self.events.slot(ev).map_or(&[], |slot| &self.events[slot].queue_waiters)
    }

    /// True when a host blocking sync or a driver callback is parked on
    /// `ev`: firing it couples into host-side (global) state.
    pub(crate) fn event_has_host_interest(&self, ev: u64) -> bool {
        match self.events.slot(ev) {
            Some(slot) => {
                let e = &self.events[slot];
                !e.host_waiters.is_empty() || !e.callbacks.is_empty()
            }
            None => self.doomed_index(ev).is_ok_and(|at| self.doomed[at].callback().is_some()),
        }
    }

    /// Snapshot of everything unfinished: pending events, queued ops,
    /// blocked queues/hosts, undelivered records and gathering collectives.
    /// The model checker derives its MC-QUIESCENCE / MC-DEADLOCK verdicts
    /// from this after every explored schedule.
    pub fn terminal_report(&self) -> TerminalReport {
        let mut r = TerminalReport::default();
        for (_, p) in self.global_lane.iter() {
            if !self.entry_is_stale(p) {
                r.pending_events += 1;
            }
        }
        for lane in &self.device_lanes {
            for (_, p) in lane.iter() {
                if !self.entry_is_stale(p) {
                    r.pending_events += 1;
                }
            }
        }
        for (d, dev) in self.devices.iter().enumerate() {
            for (q, queue) in dev.queues.iter().enumerate() {
                r.queued_ops += queue.ops.len();
                for (i, qop) in queue.ops.iter().enumerate() {
                    match &qop.op {
                        StreamOp::Record(ev) => r.held_records.push((ev.0, d, q)),
                        StreamOp::Kernel(spec, _) => {
                            if let Some(cid) = spec.collective {
                                r.queued_collective_members.push((cid.0, d, q));
                            }
                        }
                        StreamOp::Wait(_) => {}
                    }
                    if i == 0 {
                        match (queue.head, &qop.op) {
                            (HeadState::WaitingEvent, StreamOp::Wait(ev)) => {
                                r.blocked_lanes.push(BlockedLane {
                                    device: d,
                                    queue: q,
                                    stream: qop.stream,
                                    block: LaneBlock::Event(ev.0),
                                });
                            }
                            (HeadState::WaitingPeers, StreamOp::Kernel(spec, _)) => {
                                if let Some(cid) = spec.collective {
                                    r.blocked_lanes.push(BlockedLane {
                                        device: d,
                                        queue: q,
                                        stream: qop.stream,
                                        block: LaneBlock::Collective(cid.0),
                                    });
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        for (h, host) in self.hosts.iter().enumerate() {
            if host.state == HostState::Blocked {
                if let Some(HostOp::Sync { event, .. }) = host.ops.front() {
                    r.blocked_hosts.push((h, event.0));
                }
            }
        }
        for (id, ci) in self.collectives.iter_live() {
            let coll = &self.collectives[ci];
            if coll.state == CollState::Gathering && !coll.members.is_empty() {
                r.gathering_collectives.push((id, coll.members.len(), coll.size));
            }
        }
        r
    }

    pub(crate) fn drain_wakes(&mut self, driver: &mut dyn Driver) {
        while let Some(w) = self.wakes.pop_front() {
            driver.on_wake(w, self);
            if self.stop {
                break;
            }
        }
    }

    fn push(&mut self, at: SimTime, pending: Pending) {
        match pending.device_lane() {
            Some(d) => self.device_lanes[d].push(at, pending),
            None => self.global_lane.push(at, pending),
        }
    }

    pub(crate) fn dispatch(&mut self, pending: Pending) {
        self.events_dispatched += 1;
        match pending {
            Pending::HostReady { host } => self.host_ready(host),
            Pending::KernelDone { device, slot, gen } => self.kernel_done(device, slot, gen),
            Pending::CollectiveDone { coll, gen } => self.collective_done(coll, gen),
            Pending::CommLagDone { device, queue, gen } => self.comm_lag_done(device, queue, gen),
            Pending::Timer { token } => self.wakes.push_back(Wake::Timer { token }),
            Pending::DriverWake { wake } => self.wakes.push_back(wake),
            Pending::FaultBoundary => self.fault_boundary(),
            Pending::DeviceDown { device } => self.device_down(device),
            Pending::DeviceRejoin { device } => self.device_rejoin(device),
        }
    }

    /// A fault window opened or closed: charge progress at the old rates on
    /// every device, then reprice everything at the new ones.
    fn fault_boundary(&mut self) {
        for d in 0..self.devices.len() {
            self.settle_device(d);
        }
        for d in 0..self.devices.len() {
            self.reprice_device(d);
        }
    }

    /// A device dies permanently: charge pre-death progress everywhere, fail
    /// its running kernels, abort every collective it participates in (so
    /// survivor queues drain instead of waiting forever on the rendezvous),
    /// then FIFO-drain its hardware queues — queued kernels fail with their
    /// own [`Wake::KernelFailed`], queued records still fire (work submitted
    /// before the death may legitimately have completed; post-death records
    /// never fire, which is what a heartbeat watchdog detects), queued waits
    /// are dropped. Ends by waking the driver with [`Wake::DeviceDown`].
    fn device_down(&mut self, d: usize) {
        if !self.devices[d].alive {
            return;
        }
        for i in 0..self.devices.len() {
            self.settle_device(i);
        }
        self.devices[d].alive = false;

        // Fail every plain kernel running on the dead device.
        for slot in 0..self.devices[d].run.len() {
            if !self.devices[d].run[slot].live {
                continue;
            }
            let (queue, class, blocks, kernel, started_at) = {
                let s = &self.devices[d].run[slot];
                (s.queue, s.class, s.blocks, s.kernel, s.started_at)
            };
            self.devices[d].run[slot].live = false;
            self.devices[d].free_slots.push(slot);
            let now = self.now;
            self.devices[d].apply_class_delta(now, class, blocks, -1);
            self.finish_queue_head(d, queue, kernel, class, started_at, true);
        }

        // Abort collectives (gathering or running) with a member on `d`, in
        // id order. Collectives whose dead-device member has not arrived yet
        // abort when that member's launch reaches the dead device. An abort
        // polls survivor queues, which can start other groups, so each
        // candidate is checked again when its turn comes.
        let gathered_on_d: Vec<u64> = self
            .collectives
            .iter_live()
            .filter(|&(_, ci)| self.collectives[ci].members.iter().any(|&(md, _)| md == d))
            .map(|(id, _)| id)
            .collect();
        for id in gathered_on_d {
            let Some(ci) = self.collectives.slot(id) else { continue };
            let doomed =
                matches!(self.collectives[ci].state, CollState::Gathering | CollState::Running)
                    && self.collectives[ci].members.iter().any(|&(md, _)| md == d);
            if doomed {
                self.abort_collective(ci);
            }
        }

        // FIFO-drain the dead device's queues.
        for q in 0..self.devices[d].queues.len() {
            self.devices[d].queues[q].head = HeadState::Idle;
            while let Some(front) = self.devices[d].queues[q].ops.front() {
                match &front.op {
                    StreamOp::Record(ev) => {
                        let ev = *ev;
                        let stream = front.stream;
                        self.devices[d].queues[q].ops.pop_front();
                        // The event fires vacuously at death time so that
                        // survivors waiting on it unblock; the trace must
                        // carry the record mark, or those later-resolved
                        // waits reference an event with no provenance.
                        if let Some(trace) = &mut self.trace {
                            trace.push_mark(TraceMark::Record {
                                event: ev.0,
                                device: DeviceId(d),
                                stream,
                                at: self.now,
                            });
                        }
                        self.trigger_event(ev);
                    }
                    StreamOp::Wait(_) => {
                        self.devices[d].queues[q].ops.pop_front();
                    }
                    StreamOp::Kernel(spec, _) => {
                        if let Some(cid) = spec.collective {
                            self.lose_member(cid);
                        }
                        let (kernel, class) = match &self.devices[d].queues[q]
                            .ops
                            .front()
                            .expect("drained under us")
                            .op
                        {
                            StreamOp::Kernel(spec, kid) => (*kid, spec.class),
                            _ => unreachable!("front changed during drain"),
                        };
                        self.finish_queue_head(d, q, kernel, class, self.now, true);
                    }
                }
            }
        }

        for i in 0..self.devices.len() {
            self.reprice_device(i);
        }
        let at = self.now;
        self.wakes.push_back(Wake::DeviceDown { device: DeviceId(d), at });
    }

    /// A device's outage window closed: mark it alive and wake the driver
    /// with [`Wake::DeviceRejoined`]. The death drain already emptied its
    /// queues and nothing enqueues on a dead device (kernels fail at
    /// enqueue, records and waits are dropped), so the device comes back
    /// idle — there is no device-local state to rebuild and rates elsewhere
    /// are unaffected until new work is submitted to it.
    fn device_rejoin(&mut self, d: usize) {
        if self.devices[d].alive {
            return;
        }
        self.devices[d].alive = true;
        let at = self.now;
        self.wakes.push_back(Wake::DeviceRejoined { device: DeviceId(d), at });
    }

    /// Aborts a collective rendezvous whose completion became impossible:
    /// members already gathered (waiting or running) fail and pop from their
    /// queue heads so the queues behind them keep draining; the state moves
    /// to [`CollState::Aborted`] so members arriving later fail on arrival.
    /// A running group had every member in, so nothing can name it again
    /// and it is reclaimed here; a gathering one is reclaimed by its last
    /// late member ([`Simulation::aborted_arrival`]).
    fn abort_collective(&mut self, ci: usize) {
        let was_running = self.collectives[ci].state == CollState::Running;
        let started_at = if was_running { self.collectives[ci].started_at } else { self.now };
        self.collectives[ci].state = CollState::Aborted;
        let members = std::mem::take(&mut self.collectives[ci].members);
        if was_running {
            for &(md, _) in &members {
                self.settle_device(md);
            }
        }
        for &(md, q) in &members {
            let (kernel, class, blocks) = match &self.devices[md].queues[q]
                .ops
                .front()
                .expect("aborting collective with empty member queue")
                .op
            {
                StreamOp::Kernel(spec, kid) => (*kid, spec.class, spec.blocks),
                _ => panic!("collective member head is not a kernel"),
            };
            if was_running {
                self.devices[md].active_colls.retain(|&c| c != ci);
                let now = self.now;
                self.devices[md].apply_class_delta(now, class, blocks, -1);
            }
            self.finish_queue_head(md, q, kernel, class, started_at, true);
        }
        for &(md, _) in &members {
            self.reprice_device(md);
        }
        for &(md, q) in &members {
            if self.devices[md].alive {
                self.poll_queue(md, q);
            }
        }
        self.recycle_members(members);
        if was_running {
            self.reclaim_collective(ci);
        }
    }

    /// A member kernel of `cid` reached a dead device: the rendezvous can
    /// never complete, so it aborts if it still could, and the member
    /// counts as arrived (it fails there).
    fn lose_member(&mut self, cid: CollectiveId) {
        let Some(ci) = self.collectives.slot(cid.0) else { return };
        match self.collectives[ci].state {
            CollState::Gathering | CollState::Running => self.abort_collective(ci),
            CollState::Aborted => {}
            CollState::Done => return,
        }
        if self.collectives.slot(cid.0).is_some() {
            self.aborted_arrival(ci);
        }
    }

    /// A member of aborted group `ci` arrived and fails. The last of its
    /// `size` members reclaims the group: no kernel can name it again.
    fn aborted_arrival(&mut self, ci: usize) {
        let c = &mut self.collectives[ci];
        debug_assert_eq!(c.state, CollState::Aborted);
        c.arrived += 1;
        if c.arrived == c.size {
            self.reclaim_collective(ci);
        }
    }

    /// Returns group `ci`'s slot to the table and its member list to the
    /// spares.
    fn reclaim_collective(&mut self, ci: usize) {
        let members = std::mem::take(&mut self.collectives[ci].members);
        self.recycle_members(members);
        self.collectives.reclaim(ci);
    }

    /// Keeps a member list's capacity for the next group to gather.
    fn recycle_members(&mut self, mut members: Vec<(usize, usize)>) {
        if members.capacity() > 0 {
            members.clear();
            self.spare_members.push(members);
        }
    }

    // -- host machinery --------------------------------------------------------

    fn host_push(&mut self, host: usize, op: HostOp) {
        assert!(host < self.hosts.len(), "unknown host {host}");
        self.hosts[host].ops.push_back(op);
        if self.hosts[host].state == HostState::Idle {
            self.host_begin_next(host);
        }
    }

    /// Begins executing the op at the front of `host`'s queue (which must be
    /// idle and non-empty).
    fn host_begin_next(&mut self, host: usize) {
        // Fault hook: kernel launches may pay a seeded overhead spike.
        let spike = self.faults.launch_spike(HostId(host), self.now);
        let h = &mut self.hosts[host];
        let Some(front) = h.ops.front() else {
            h.state = HostState::Idle;
            return;
        };
        match front {
            HostOp::Enqueue { op, .. } => {
                let cost = match op {
                    StreamOp::Kernel(..) => h.spec.launch_overhead + spike,
                    StreamOp::Record(_) | StreamOp::Wait(_) => h.spec.event_overhead,
                };
                h.state = HostState::Busy;
                let at = self.now + cost;
                self.push(at, Pending::HostReady { host });
            }
            HostOp::Sync { event, .. } => {
                // The queued sync holds the record live (`EventRt::syncs`).
                let slot = self.events.slot(event.0).expect("queued sync on a reclaimed event");
                if self.events[slot].fired_at.is_some() {
                    // The event already fired: no cross-GPU wake skew was
                    // involved, only the driver-call latency applies.
                    h.state = HostState::Busy;
                    let at = self.now + h.spec.sync_latency;
                    self.push(at, Pending::HostReady { host });
                } else {
                    h.state = HostState::Blocked;
                    self.events[slot].host_waiters.push(host);
                }
            }
        }
    }

    /// The front op's overhead elapsed: apply its effect and move on.
    fn host_ready(&mut self, host: usize) {
        let op = self.hosts[host].ops.pop_front().expect("host ready with empty queue");
        self.hosts[host].state = HostState::Idle;
        match op {
            HostOp::Enqueue { stream, op } => {
                self.device_enqueue(stream, op);
            }
            HostOp::Sync { event, token } => {
                let slot = self.events.slot(event.0).expect("queued sync on a reclaimed event");
                let e = &mut self.events[slot];
                let fired_at = e.fired_at.expect("blocking sync resumed before event fired");
                e.syncs -= 1;
                if e.syncs == 0 {
                    // Fired, so its waiter lists drained: the last reader is done.
                    self.reclaim_event(slot);
                }
                self.wakes.push_back(Wake::HostSynced {
                    host: HostId(host),
                    event,
                    token,
                    fired_at,
                });
            }
        }
        if self.hosts[host].state == HostState::Idle && !self.hosts[host].ops.is_empty() {
            self.host_begin_next(host);
        }
    }

    // -- device machinery -------------------------------------------------------

    fn queue_of(&self, device: usize, stream: usize) -> usize {
        stream % self.devices[device].queues.len()
    }

    fn device_enqueue(&mut self, stream: StreamId, op: StreamOp) {
        let d = stream.device.0;
        if !self.devices[d].alive {
            self.dead_enqueue(d, stream.index, op);
            return;
        }
        let q = self.queue_of(d, stream.index);
        if matches!(op, StreamOp::Kernel(..)) {
            self.kernels_launched += 1;
        }
        self.devices[d].queues[q].ops.push_back(QueuedOp {
            op,
            stream: stream.index,
            enqueued_at: self.now,
        });
        self.poll_queue(d, q);
    }

    /// An operation reaching a dead device: kernels fail instantly (the
    /// driver sees a [`Wake::KernelFailed`] per kernel, so no work is
    /// silently lost) and a collective member aborts its whole rendezvous;
    /// records never fire — the missed heartbeats a health watchdog detects
    /// (their events are doomed where they can be); waits are dropped.
    fn dead_enqueue(&mut self, d: usize, stream: usize, op: StreamOp) {
        match op {
            StreamOp::Kernel(spec, kid) => {
                self.kernels_launched += 1;
                if let Some(cid) = spec.collective {
                    self.lose_member(cid);
                }
                self.kernels_completed += 1;
                self.kernels_failed += 1;
                self.devices[d].stats.kernels_failed += 1;
                self.wakes.push_back(Wake::KernelFailed {
                    kernel: kid,
                    device: DeviceId(d),
                    tag: spec.tag,
                    at: self.now,
                });
                if let Some(trace) = &mut self.trace {
                    trace.push(TraceEvent {
                        kernel: kid,
                        name: spec.name,
                        class: spec.class,
                        tag: spec.tag,
                        device: DeviceId(d),
                        stream,
                        enqueued_at: self.now,
                        started_at: self.now,
                        ended_at: self.now,
                        failed: true,
                        collective: spec.collective,
                    });
                }
            }
            StreamOp::Record(ev) => self.doom_event(ev),
            StreamOp::Wait(_) => {}
        }
    }

    /// Advances a hardware queue: completes records, resolves waits, begins
    /// kernels. Loops because records/waits complete instantly.
    fn poll_queue(&mut self, d: usize, q: usize) {
        if !self.devices[d].alive {
            // A dead device runs nothing. This matters mid-`device_down`: a
            // Record popped during the FIFO drain can fire an event a sibling
            // queue of the *same dead device* waits on, and the waiter poll
            // must not start a kernel there.
            return;
        }
        loop {
            if self.devices[d].queues[q].head != HeadState::Idle {
                return; // head already in flight
            }
            let Some(front) = self.devices[d].queues[q].ops.front() else { return };
            let stream = front.stream;
            match &front.op {
                StreamOp::Record(ev) => {
                    let ev = *ev;
                    self.devices[d].queues[q].ops.pop_front();
                    self.probe_mark(|p| {
                        p.devices.insert(d);
                        p.streams.insert((d, stream));
                        p.events.insert(ev.0);
                    });
                    if let Some(trace) = &mut self.trace {
                        trace.push_mark(TraceMark::Record {
                            event: ev.0,
                            device: DeviceId(d),
                            stream,
                            at: self.now,
                        });
                    }
                    self.trigger_event(ev);
                }
                StreamOp::Wait(ev) => {
                    let ev = *ev;
                    self.probe_mark(|p| {
                        p.devices.insert(d);
                        p.streams.insert((d, stream));
                        p.events.insert(ev.0);
                    });
                    // A reclaimed record means the event fired long ago,
                    // unless it is doomed.
                    if let Some(slot) = self.event_slot(ev.0) {
                        if self.events[slot].fired_at.is_none() {
                            self.devices[d].queues[q].head = HeadState::WaitingEvent;
                            self.events[slot].queue_waiters.push((d, q));
                            return;
                        }
                    }
                    self.devices[d].queues[q].ops.pop_front();
                    if let Some(trace) = &mut self.trace {
                        trace.push_mark(TraceMark::Wait {
                            event: ev.0,
                            device: DeviceId(d),
                            stream,
                            at: self.now,
                        });
                    }
                }
                StreamOp::Kernel(spec, _) => {
                    // Dispatch-lag model (left-over scheduling policy): a
                    // communication kernel that becomes ready while the
                    // device's queues are deeply backed up is delayed before
                    // it can begin, because firmware prioritizes compute.
                    if spec.class == KernelClass::Comm {
                        let lag = self.devices[d].comm_dispatch_lag(q);
                        if !lag.is_zero() {
                            let g = &mut self.devices[d].queues[q];
                            g.lag_gen += 1;
                            let gen = g.lag_gen;
                            g.head = HeadState::LagWait { gen };
                            let at = self.now + lag;
                            self.push(at, Pending::CommLagDone { device: d, queue: q, gen });
                            return;
                        }
                    }
                    self.begin_kernel(d, q);
                    return;
                }
            }
        }
    }

    fn comm_lag_done(&mut self, d: usize, q: usize, gen: u64) {
        match self.devices[d].queues[q].head {
            HeadState::LagWait { gen: g } if g == gen => {
                self.devices[d].queues[q].head = HeadState::Idle;
                self.begin_kernel(d, q);
            }
            _ => {} // stale
        }
    }

    /// Begins the kernel at the head of queue `q` (plain or collective).
    fn begin_kernel(&mut self, d: usize, q: usize) {
        let front = self.devices[d].queues[q].ops.front().expect("begin_kernel on empty queue");
        let StreamOp::Kernel(spec, _kid) = &front.op else {
            panic!("begin_kernel on non-kernel head")
        };
        let class = spec.class;
        let blocks = spec.blocks;
        let work = spec.work.as_nanos() as f64;
        let collective = spec.collective;
        let (stream, tag) = (front.stream, spec.tag);
        self.probe_mark(|p| {
            p.devices.insert(d);
            p.streams.insert((d, stream));
            p.tags.insert(tag);
            if let Some(cid) = collective {
                p.events.insert(COLL_FOOTPRINT_BIT | cid.0);
            }
        });

        match collective {
            None => {
                self.settle_device(d);
                // Fault hook: a seeded failure shortens the kernel to a
                // fraction of its nominal work; it then "dies" (pops from
                // the queue with a failure notification) at that point.
                let failure = self.faults.kernel_failure(DeviceId(d), self.now);
                self.devices[d].begin_plain(q, self.now, failure);
                self.reprice_device(d);
            }
            Some(cid) => {
                let ci = self
                    .collectives
                    .slot(cid.0)
                    .unwrap_or_else(|| panic!("kernel joined a non-gathering collective {cid}"));
                if self.collectives[ci].state == CollState::Aborted {
                    // A member arriving at an aborted rendezvous (a peer
                    // device died) fails immediately and pops, keeping the
                    // queue behind it draining.
                    self.aborted_arrival(ci);
                    let (kernel, class) = {
                        let head = self.devices[d].queues[q]
                            .ops
                            .front()
                            .expect("queue head vanished while joining an aborted collective");
                        let StreamOp::Kernel(spec, kid) = &head.op else {
                            unreachable!("begin_kernel checked the head is a kernel")
                        };
                        (*kid, spec.class)
                    };
                    self.finish_queue_head(d, q, kernel, class, self.now, true);
                    self.poll_queue(d, q);
                    return;
                }
                let coll = &mut self.collectives[ci];
                assert_eq!(
                    coll.state,
                    CollState::Gathering,
                    "kernel joined a non-gathering collective {cid}"
                );
                if coll.members.capacity() == 0 {
                    coll.members = self.spare_members.pop().unwrap_or_default();
                    coll.members.reserve(coll.size);
                }
                coll.members.push((d, q));
                coll.arrived += 1;
                if coll.work == 0.0 {
                    coll.work = work;
                    coll.remaining = work;
                }
                self.devices[d].queues[q].head = HeadState::WaitingPeers;
                if self.collectives[ci].members.len() == self.collectives[ci].size {
                    self.start_collective(ci, class, blocks);
                }
            }
        }
    }

    /// The `i`-th gathered member `(device, queue)` of collective `ci`.
    /// Member loops index instead of cloning the list: nothing they call
    /// changes the membership of a gathered collective, and the repricing
    /// they trigger reads it.
    fn member(&self, ci: usize, i: usize) -> (usize, usize) {
        self.collectives[ci].members[i]
    }

    fn start_collective(&mut self, ci: usize, class: KernelClass, blocks: u32) {
        let n = self.collectives[ci].members.len();
        if let Some(p) = self.probe.as_mut() {
            for &(d, _) in &self.collectives[ci].members {
                p.devices.insert(d);
            }
        }
        for i in 0..n {
            self.settle_device(self.member(ci, i).0);
        }
        for i in 0..n {
            let (d, q) = self.member(ci, i);
            self.devices[d].queues[q].head = HeadState::Running { slot: usize::MAX };
            self.devices[d].active_colls.push(ci);
            let now = self.now;
            self.devices[d].apply_class_delta(now, class, blocks, 1);
        }
        let coll = &mut self.collectives[ci];
        coll.state = CollState::Running;
        coll.settled_at = self.now;
        coll.started_at = self.now;
        coll.gen += 1;
        for i in 0..n {
            self.reprice_device(self.member(ci, i).0);
        }
        // reprice_device re-prices collectives touching each device, which
        // includes this one; nothing more to do.
    }

    /// Charges elapsed progress (at current rates) to every plain kernel on
    /// `d` and every collective with a member on `d`.
    fn settle_device(&mut self, d: usize) {
        let now = self.now;
        self.devices[d].settle_plain(now);
        // Split borrow: take the active list out while settling.
        let active = std::mem::take(&mut self.devices[d].active_colls);
        for &ci in &active {
            let coll = &mut self.collectives[ci];
            if coll.state == CollState::Running {
                let elapsed = now.saturating_since(coll.settled_at).as_nanos() as f64;
                if elapsed > 0.0 {
                    coll.remaining = (coll.remaining - elapsed * coll.rate).max(0.0);
                    coll.settled_at = now;
                }
            }
        }
        self.devices[d].active_colls = active;
    }

    /// Recomputes rates and reschedules completions for everything running on
    /// `d` (and collectives touching `d`). Callers must have settled first.
    /// Plain-kernel completions land in device `d`'s lane, collective
    /// completions in the global lane.
    fn reprice_device(&mut self, d: usize) {
        let now = self.now;
        // Fault hook: an active straggler window scales every kernel on the
        // device down uniformly.
        let fault_factor = self.faults.device_factor(DeviceId(d), now);
        self.devices[d].reprice_plain(d, now, fault_factor, &mut self.device_lanes[d]);
        // Collectives: rate = min over member devices of local comm rate.
        // Split borrow: take the active list out while repricing in place.
        // A rate depends only on device populations and the fault schedule,
        // never on another collective's rate, so pricing and rescheduling
        // each collective in turn matches pricing them all first.
        let active = std::mem::take(&mut self.devices[d].active_colls);
        for &ci in &active {
            let coll = &self.collectives[ci];
            if coll.state != CollState::Running {
                continue;
            }
            let mut rate = f64::INFINITY;
            for &(md, _) in &coll.members {
                let dev = &self.devices[md];
                let r = 1.0
                    / dev.slowdown(KernelClass::Comm)
                    / self.faults.device_factor(DeviceId(md), now);
                rate = rate.min(r);
            }
            // Fault hook: a degraded/partitioned link between any pair of
            // members stretches the whole rendezvous.
            let link = self
                .faults
                .collective_link_factor(coll.members.iter().map(|(md, _)| DeviceId(*md)), now);
            let rate = rate / link;
            // Settle on the collective's own clock before changing its rate:
            // settle_device(d) already settled it if it touches d (it does).
            let coll = &mut self.collectives[ci];
            coll.rate = rate;
            coll.gen += 1;
            let gen = coll.gen;
            let dur = (coll.remaining / rate).ceil() as u64;
            self.push(
                now + SimDuration::from_nanos(dur),
                Pending::CollectiveDone { coll: ci, gen },
            );
        }
        self.devices[d].active_colls = active;
    }

    fn kernel_done(&mut self, d: usize, slot: usize, gen: u64) {
        {
            let s = &self.devices[d].run[slot];
            if !s.live || s.gen != gen {
                return; // stale completion
            }
        }
        self.settle_device(d);
        let now = self.now;
        let (queue, class, blocks, kernel, started_at, failed) = {
            let s = &self.devices[d].run[slot];
            debug_assert!(
                self.relaxed_time || s.remaining <= 1.0,
                "kernel completing with {} ns of work left",
                s.remaining
            );
            (s.queue, s.class, s.blocks, s.kernel, s.started_at, s.failing)
        };
        self.devices[d].run[slot].live = false;
        self.devices[d].free_slots.push(slot);
        self.devices[d].apply_class_delta(now, class, blocks, -1);
        self.finish_queue_head(d, queue, kernel, class, started_at, failed);
        self.reprice_device(d);
        self.poll_queue(d, queue);
    }

    fn collective_done(&mut self, ci: usize, gen: u64) {
        {
            let c = &self.collectives[ci];
            if c.state != CollState::Running || c.gen != gen {
                return; // stale
            }
        }
        let n = self.collectives[ci].members.len();
        let started_at = self.collectives[ci].started_at;
        for i in 0..n {
            self.settle_device(self.member(ci, i).0);
        }
        self.collectives[ci].state = CollState::Done;
        for i in 0..n {
            let d = self.member(ci, i).0;
            self.devices[d].active_colls.retain(|&c| c != ci);
        }
        for i in 0..n {
            let (d, q) = self.member(ci, i);
            // Capture kernel identity from the queue head before popping.
            let (kernel, class, blocks) = match &self.devices[d].queues[q]
                .ops
                .front()
                .expect("collective member queue empty")
                .op
            {
                StreamOp::Kernel(spec, kid) => (*kid, spec.class, spec.blocks),
                _ => panic!("collective member head is not a kernel"),
            };
            let now = self.now;
            self.devices[d].apply_class_delta(now, class, blocks, -1);
            self.finish_queue_head(d, q, kernel, class, started_at, false);
        }
        for i in 0..n {
            self.reprice_device(self.member(ci, i).0);
        }
        for i in 0..n {
            let (d, q) = self.member(ci, i);
            self.poll_queue(d, q);
        }
        // Every member is in and done: nothing can name the group again, and
        // `launch` rejects its reclaimed id as already complete.
        self.reclaim_collective(ci);
    }

    /// Pops the completed kernel off its queue, records trace/stat entries.
    ///
    /// A `failed` kernel drains from the queue exactly like a successful one
    /// (so stream FIFO order and dependent events are preserved) but is
    /// counted separately and surfaced to the driver as
    /// [`Wake::KernelFailed`]; recovery policy lives above the simulator.
    fn finish_queue_head(
        &mut self,
        d: usize,
        q: usize,
        kernel: KernelId,
        class: KernelClass,
        started_at: SimTime,
        failed: bool,
    ) {
        let now = self.now;
        let ev =
            self.devices[d].finish_head(DeviceId(d), q, kernel, class, started_at, failed, now);
        self.probe_mark(|p| {
            p.devices.insert(d);
            p.streams.insert((d, ev.stream));
            p.tags.insert(ev.tag);
        });
        self.kernels_completed += 1;
        if failed {
            self.kernels_failed += 1;
            self.wakes.push_back(Wake::KernelFailed {
                kernel,
                device: DeviceId(d),
                tag: ev.tag,
                at: now,
            });
        }
        if let Some(trace) = &mut self.trace {
            trace.push(ev);
        }
    }

    fn trigger_event(&mut self, ev: EventId) {
        let now = self.now;
        // A reclaimed record fired already, unless it is doomed; firing is
        // idempotent.
        let Some(slot) = self.event_slot(ev.0) else { return };
        let e = &mut self.events[slot];
        if e.fired_at.is_some() {
            return; // idempotent
        }
        e.fired_at = Some(now);
        let mut queue_waiters = std::mem::take(&mut e.queue_waiters);
        let mut host_waiters = std::mem::take(&mut e.host_waiters);
        let mut callbacks = std::mem::take(&mut e.callbacks);
        let host_coupled = !host_waiters.is_empty() || !callbacks.is_empty();
        self.probe_mark(|p| {
            p.events.insert(ev.0);
            p.global |= host_coupled;
        });
        for (d, q) in queue_waiters.drain(..) {
            if self.devices[d].queues[q].head == HeadState::WaitingEvent {
                // Re-check: the head wait op must still reference this event.
                if let Some(&QueuedOp { op: StreamOp::Wait(w), stream, .. }) =
                    self.devices[d].queues[q].ops.front()
                {
                    if w == ev {
                        self.devices[d].queues[q].ops.pop_front();
                        self.devices[d].queues[q].head = HeadState::Idle;
                        self.probe_mark(|p| {
                            p.devices.insert(d);
                            p.streams.insert((d, stream));
                        });
                        if let Some(trace) = &mut self.trace {
                            trace.push_mark(TraceMark::Wait {
                                event: ev.0,
                                device: DeviceId(d),
                                stream,
                                at: now,
                            });
                        }
                        self.poll_queue(d, q);
                    }
                }
            }
        }
        for h in host_waiters.drain(..) {
            if self.hosts[h].state == HostState::Blocked {
                let spec = &self.hosts[h].spec;
                let at = now + spec.sync_latency + spec.wake_jitter;
                self.hosts[h].state = HostState::Busy;
                self.push(at, Pending::HostReady { host: h });
            }
        }
        for (token, lat_host) in callbacks.drain(..) {
            let latency = self.hosts[lat_host].spec.sync_latency;
            let at = now + latency;
            self.push(
                at,
                Pending::DriverWake { wake: Wake::EventFired { event: ev, token, fired_at: now } },
            );
        }
        // Nothing joins a fired event's lists (waits pass, syncs do not
        // park, callbacks are scheduled at once), so the drained lists go
        // back empty and keep their capacity for the slot's next event.
        let e = &mut self.events[slot];
        e.queue_waiters = queue_waiters;
        e.host_waiters = host_waiters;
        e.callbacks = callbacks;
        if e.syncs == 0 {
            self.reclaim_event(slot);
        }
    }

    /// Returns a fired event's slot to the table once nothing reads its
    /// record again, reset for the next event to reuse.
    fn reclaim_event(&mut self, slot: usize) {
        let e = &mut self.events[slot];
        debug_assert!(
            e.fired_at.is_some()
                && e.syncs == 0
                && e.queue_waiters.is_empty()
                && e.host_waiters.is_empty()
                && e.callbacks.is_empty(),
            "reclaiming an event something still reads"
        );
        e.fired_at = None;
        self.events.reclaim(slot);
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("devices", &self.devices.len())
            .field("hosts", &self.hosts.len())
            .field("pending_events", &self.pending_events())
            .field("kernels_launched", &self.kernels_launched)
            .field("kernels_completed", &self.kernels_completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::ContentionParams;
    use crate::faults::{KernelFaultParams, LaunchSpikeParams};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A scriptable driver: a start closure plus a wake log.
    struct Script<F: FnMut(&mut Simulation), G: FnMut(Wake, &mut Simulation)> {
        on_start: F,
        on_wake: G,
    }

    impl<F: FnMut(&mut Simulation), G: FnMut(Wake, &mut Simulation)> Driver for Script<F, G> {
        fn start(&mut self, sim: &mut Simulation) {
            (self.on_start)(sim);
        }
        fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
            (self.on_wake)(wake, sim);
        }
    }

    fn script<F: FnMut(&mut Simulation)>(f: F) -> Script<F, impl FnMut(Wake, &mut Simulation)> {
        Script { on_start: f, on_wake: |_, _| {} }
    }

    fn test_sim(devices: usize) -> Simulation {
        Simulation::builder()
            .devices(DeviceSpec::test_device(), devices)
            .streams_per_device(4)
            .capture_trace(true)
            .build()
            .map(|mut s| {
                // Instant hosts: timing assertions stay exact.
                for h in &mut s.hosts {
                    h.spec = HostSpec::instant();
                }
                s
            })
            .unwrap()
    }

    fn s(d: usize, i: usize) -> StreamId {
        StreamId::new(DeviceId(d), i)
    }

    #[test]
    fn single_kernel_runs_for_its_work() {
        let mut sim = test_sim(1);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(HostId(0), s(0, 0), KernelSpec::compute("a", SimDuration::from_micros(100)));
        });
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(100));
        assert_eq!(sim.kernels_completed(), 1);
        assert_eq!(sim.kernels_launched(), 1);
    }

    #[test]
    fn same_stream_kernels_serialize_fifo() {
        let mut sim = test_sim(1);
        let mut drv = script(|sim: &mut Simulation| {
            for i in 0..3 {
                sim.launch(
                    HostId(0),
                    s(0, 0),
                    KernelSpec::compute(format!("k{i}"), SimDuration::from_micros(10)).with_tag(i),
                );
            }
        });
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(30));
        let trace = sim.take_trace().unwrap();
        let evs = trace.events();
        assert_eq!(evs.len(), 3);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.tag, i as u64, "completion order is FIFO");
            assert_eq!(e.started_at, SimTime::from_micros(10 * i as u64));
        }
    }

    #[test]
    fn streams_sharing_a_hardware_queue_serialize() {
        // connections = 2; streams 0 and 2 map to queue 0, stream 1 to queue 1.
        let mut sim = test_sim(1);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(
                HostId(0),
                s(0, 0),
                KernelSpec::compute("q0a", SimDuration::from_micros(100)).with_tag(0),
            );
            sim.launch(
                HostId(0),
                s(0, 2),
                KernelSpec::compute("q0b", SimDuration::from_micros(100)).with_tag(2),
            );
            sim.launch(
                HostId(0),
                s(0, 1),
                KernelSpec::compute("q1", SimDuration::from_micros(100)).with_tag(1),
            );
        });
        sim.run_to_completion(&mut drv);
        let trace = sim.take_trace().unwrap();
        let find = |tag: u64| trace.events().iter().find(|e| e.tag == tag).unwrap().clone();
        let (a, b, c) = (find(0), find(2), find(1));
        // a (stream0) and c (stream1) start together; equal-share slows both 2x.
        assert_eq!(a.started_at, SimTime::ZERO);
        assert_eq!(c.started_at, SimTime::ZERO);
        assert_eq!(a.ended_at, SimTime::from_micros(200));
        assert_eq!(c.ended_at, SimTime::from_micros(200));
        // b shares queue 0 with a: begins only after a completes.
        assert_eq!(b.started_at, SimTime::from_micros(200));
        assert_eq!(b.ended_at, SimTime::from_micros(300));
    }

    #[test]
    fn cross_class_overlap_runs_concurrently_when_frictionless() {
        let mut sim = test_sim(1);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(HostId(0), s(0, 0), KernelSpec::compute("c", SimDuration::from_micros(100)));
            sim.launch(HostId(0), s(0, 1), KernelSpec::comm("m", SimDuration::from_micros(80)));
        });
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(100), "full overlap: makespan = max");
        let trace = sim.take_trace().unwrap();
        assert_eq!(trace.overlap_time(DeviceId(0)), SimDuration::from_micros(80));
    }

    #[test]
    fn contention_stretches_overlapping_kernels() {
        // compute_vs_comm = 1.5 (insensitive to channels), comm_vs_compute = 2.0.
        let contention = ContentionParams {
            compute_vs_comm: 1.5,
            comm_vs_compute: 2.0,
            compute_self_penalty: 1.0,
            comm_self_penalty: 1.0,
            reference_channels: 2,
            channel_sensitivity: 0.0,
        };
        let dev = DeviceSpec::test_device().with_contention(contention);
        let mut sim = Simulation::builder()
            .device(dev)
            .host(HostSpec::instant())
            .capture_trace(true)
            .build()
            .unwrap();
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(
                HostId(0),
                s(0, 0),
                KernelSpec::compute("c", SimDuration::from_micros(100)).with_tag(1),
            );
            sim.launch(
                HostId(0),
                s(0, 1),
                KernelSpec::comm("m", SimDuration::from_micros(100)).with_tag(2),
            );
        });
        sim.run_to_completion(&mut drv);
        let trace = sim.take_trace().unwrap();
        let find = |tag: u64| trace.events().iter().find(|e| e.tag == tag).unwrap().clone();
        // Compute at rate 2/3 while comm runs; comm at rate 1/2 while compute runs.
        // Compute finishes first: 100us work / (2/3) = 150us.
        assert_eq!(find(1).ended_at, SimTime::from_micros(150));
        // Comm: 75us of work done by t=150 (rate 1/2), then full rate: +25us.
        assert_eq!(find(2).ended_at, SimTime::from_micros(175));
    }

    #[test]
    fn staggered_overlap_retimes_the_running_kernel() {
        let contention = ContentionParams {
            compute_vs_comm: 1.5,
            comm_vs_compute: 2.0,
            compute_self_penalty: 1.0,
            comm_self_penalty: 1.0,
            reference_channels: 2,
            channel_sensitivity: 0.0,
        };
        let dev = DeviceSpec::test_device().with_contention(contention);
        let mut sim = Simulation::builder()
            .device(dev)
            .host(HostSpec::instant())
            .capture_trace(true)
            .build()
            .unwrap();
        struct D;
        impl Driver for D {
            fn start(&mut self, sim: &mut Simulation) {
                sim.launch(
                    HostId(0),
                    s2(0, 0),
                    KernelSpec::compute("c", SimDuration::from_micros(100)).with_tag(1),
                );
                sim.set_timer(SimTime::from_micros(50), 1);
            }
            fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
                if matches!(wake, Wake::Timer { token: 1 }) {
                    sim.launch(
                        HostId(0),
                        s2(0, 1),
                        KernelSpec::comm("m", SimDuration::from_micros(100)).with_tag(2),
                    );
                }
            }
        }
        fn s2(d: usize, i: usize) -> StreamId {
            StreamId::new(DeviceId(d), i)
        }
        sim.run_to_completion(&mut D);
        let trace = sim.take_trace().unwrap();
        let find = |tag: u64| trace.events().iter().find(|e| e.tag == tag).unwrap().clone();
        // Compute: 50us solo (50 work left), then rate 2/3 => +75us => ends 125us.
        assert_eq!(find(1).ended_at, SimTime::from_micros(125));
        // Comm from 50: rate 1/2 for 75us => 37.5 done; then full rate for 62.5.
        assert_eq!(find(2).ended_at, SimTime::from_nanos(187_500));
    }

    #[test]
    fn stream_wait_event_gates_execution() {
        let mut sim = test_sim(1);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(
                HostId(0),
                s(0, 0),
                KernelSpec::compute("a", SimDuration::from_micros(100)).with_tag(1),
            );
            let ev = sim.record_event(HostId(0), s(0, 0));
            sim.stream_wait(HostId(0), s(0, 1), ev);
            sim.launch(
                HostId(0),
                s(0, 1),
                KernelSpec::compute("b", SimDuration::from_micros(10)).with_tag(2),
            );
        });
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(110));
        let trace = sim.take_trace().unwrap();
        let b = trace.events().iter().find(|e| e.tag == 2).unwrap();
        assert_eq!(b.started_at, SimTime::from_micros(100));
    }

    #[test]
    fn wait_on_already_fired_event_is_free() {
        let mut sim = test_sim(1);
        struct D;
        impl Driver for D {
            fn start(&mut self, sim: &mut Simulation) {
                let st = StreamId::new(DeviceId(0), 0);
                sim.launch(HostId(0), st, KernelSpec::compute("a", SimDuration::from_micros(10)));
                let ev = sim.record_event(HostId(0), st);
                sim.notify_on_event(ev, HostId(0), 7);
            }
            fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
                if let Wake::EventFired { event, token: 7, .. } = wake {
                    // Event already fired: the wait resolves instantly.
                    sim.stream_wait(HostId(0), StreamId::new(DeviceId(0), 1), event);
                    sim.launch(
                        HostId(0),
                        StreamId::new(DeviceId(0), 1),
                        KernelSpec::compute("b", SimDuration::from_micros(5)).with_tag(2),
                    );
                }
            }
        }
        sim.run_to_completion(&mut D);
        let trace = sim.take_trace().unwrap();
        let b = trace.events().iter().find(|e| e.tag == 2).unwrap();
        assert_eq!(b.started_at, SimTime::from_micros(10), "no extra delay past the callback");
    }

    #[test]
    fn host_launch_overhead_delays_enqueue() {
        let host = HostSpec::instant().with_launch_overhead(SimDuration::from_micros(5));
        let mut sim = Simulation::builder()
            .device(DeviceSpec::test_device())
            .host(host)
            .capture_trace(true)
            .build()
            .unwrap();
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(
                HostId(0),
                s(0, 0),
                KernelSpec::compute("a", SimDuration::from_micros(10)).with_tag(1),
            );
            sim.launch(
                HostId(0),
                s(0, 0),
                KernelSpec::compute("b", SimDuration::from_micros(10)).with_tag(2),
            );
        });
        let end = sim.run_to_completion(&mut drv);
        let trace = sim.take_trace().unwrap();
        let find = |tag: u64| trace.events().iter().find(|e| e.tag == tag).unwrap().clone();
        assert_eq!(find(1).started_at, SimTime::from_micros(5), "first launch pays 5us");
        assert_eq!(find(1).ended_at, SimTime::from_micros(15));
        // Second kernel enqueued at 10us, runs after the first.
        assert_eq!(find(2).enqueued_at, SimTime::from_micros(10));
        assert_eq!(find(2).started_at, SimTime::from_micros(15));
        assert_eq!(end, SimTime::from_micros(25));
    }

    #[test]
    fn host_sync_wakes_with_jitter() {
        let host = HostSpec {
            launch_overhead: SimDuration::ZERO,
            event_overhead: SimDuration::ZERO,
            sync_latency: SimDuration::from_micros(2),
            wake_jitter: SimDuration::from_micros(3),
        };
        let mut sim =
            Simulation::builder().device(DeviceSpec::test_device()).host(host).build().unwrap();
        let log: Rc<RefCell<Vec<(Wake, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = log.clone();
        let mut drv = Script {
            on_start: |sim: &mut Simulation| {
                let st = StreamId::new(DeviceId(0), 0);
                sim.launch(HostId(0), st, KernelSpec::compute("a", SimDuration::from_micros(10)));
                let ev = sim.record_event(HostId(0), st);
                sim.host_sync(HostId(0), ev, 9);
            },
            on_wake: move |w: Wake, sim: &mut Simulation| {
                log2.borrow_mut().push((w, sim.now()));
            },
        };
        sim.run_to_completion(&mut drv);
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        let (wake, at) = log[0];
        match wake {
            Wake::HostSynced { host, token, fired_at, .. } => {
                assert_eq!(host, HostId(0));
                assert_eq!(token, 9);
                assert_eq!(fired_at, SimTime::from_micros(10), "GPU-side trigger time is exact");
            }
            w => panic!("unexpected wake {w:?}"),
        }
        assert_eq!(at, SimTime::from_micros(15), "wake delayed by sync latency + jitter");
    }

    #[test]
    fn notify_on_event_reports_fired_at() {
        let host = HostSpec { sync_latency: SimDuration::from_micros(2), ..HostSpec::instant() };
        let mut sim =
            Simulation::builder().device(DeviceSpec::test_device()).host(host).build().unwrap();
        let log: Rc<RefCell<Vec<(Wake, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = log.clone();
        let mut drv = Script {
            on_start: |sim: &mut Simulation| {
                let st = StreamId::new(DeviceId(0), 0);
                sim.launch(HostId(0), st, KernelSpec::compute("a", SimDuration::from_micros(10)));
                let ev = sim.record_event(HostId(0), st);
                sim.notify_on_event(ev, HostId(0), 4);
            },
            on_wake: move |w: Wake, sim: &mut Simulation| {
                log2.borrow_mut().push((w, sim.now()));
            },
        };
        sim.run_to_completion(&mut drv);
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        match log[0] {
            (Wake::EventFired { token: 4, fired_at, .. }, at) => {
                assert_eq!(fired_at, SimTime::from_micros(10));
                assert_eq!(at, SimTime::from_micros(12));
            }
            ref w => panic!("unexpected wake {w:?}"),
        }
    }

    #[test]
    fn collective_waits_for_all_ranks_and_completes_simultaneously() {
        let mut sim = test_sim(2);
        struct D;
        impl Driver for D {
            fn start(&mut self, sim: &mut Simulation) {
                let c = sim.new_collective(2);
                sim.launch(
                    HostId(0),
                    StreamId::new(DeviceId(0), 1),
                    KernelSpec::comm("ar", SimDuration::from_micros(50))
                        .with_collective(c)
                        .with_tag(0),
                );
                // Rank 1 arrives 30us late.
                sim.set_timer(SimTime::from_micros(30), 100 + c.0);
            }
            fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
                if let Wake::Timer { token } = wake {
                    let c = CollectiveId(token - 100);
                    sim.launch(
                        HostId(1),
                        StreamId::new(DeviceId(1), 1),
                        KernelSpec::comm("ar", SimDuration::from_micros(50))
                            .with_collective(c)
                            .with_tag(1),
                    );
                }
            }
        }
        let end = sim.run_to_completion(&mut D);
        assert_eq!(end, SimTime::from_micros(80), "starts at the latest rank (30us) + 50us");
        let trace = sim.take_trace().unwrap();
        for e in trace.events() {
            assert_eq!(e.started_at, SimTime::from_micros(30));
            assert_eq!(e.ended_at, SimTime::from_micros(80));
        }
    }

    #[test]
    fn collective_rate_is_min_over_member_devices() {
        // Device 0 also runs a compute kernel; comm there is slowed 2x.
        let contention = ContentionParams {
            compute_vs_comm: 1.0,
            comm_vs_compute: 2.0,
            compute_self_penalty: 1.0,
            comm_self_penalty: 1.0,
            reference_channels: 2,
            channel_sensitivity: 0.0,
        };
        let dev = DeviceSpec::test_device().with_contention(contention);
        let mut sim = Simulation::builder()
            .devices(dev, 2)
            .host(HostSpec::instant())
            .host(HostSpec::instant())
            .capture_trace(true)
            .build()
            .unwrap();
        let mut drv = script(|sim: &mut Simulation| {
            // Long compute on device 0 keeps the collective slowed throughout.
            sim.launch(
                HostId(0),
                s(0, 0),
                KernelSpec::compute("c", SimDuration::from_micros(500)).with_tag(9),
            );
            let c = sim.new_collective(2);
            for d in 0..2 {
                sim.launch(
                    HostId(d),
                    s(d, 1),
                    KernelSpec::comm("ar", SimDuration::from_micros(50)).with_collective(c),
                );
            }
        });
        sim.run_to_completion(&mut drv);
        let trace = sim.take_trace().unwrap();
        let ar: Vec<_> = trace.events().iter().filter(|e| e.class == KernelClass::Comm).collect();
        assert_eq!(ar.len(), 2);
        for e in &ar {
            assert_eq!(e.started_at, SimTime::ZERO);
            // min rate = 1/2 (device 0's comm_vs_compute) => 100us wall.
            assert_eq!(e.ended_at, SimTime::from_micros(100));
        }
    }

    #[test]
    fn comm_dispatch_lag_under_backlog() {
        let mut sim = test_sim(1);
        let mut drv = script(|sim: &mut Simulation| {
            for i in 0..30 {
                sim.launch(
                    HostId(0),
                    s(0, 0),
                    KernelSpec::compute(format!("c{i}"), SimDuration::from_micros(100)),
                );
            }
            sim.launch(
                HostId(0),
                s(0, 1),
                KernelSpec::comm("m", SimDuration::from_micros(10)).with_tag(77),
            );
        });
        sim.run_to_completion(&mut drv);
        let trace = sim.take_trace().unwrap();
        let m = trace.events().iter().find(|e| e.tag == 77).unwrap();
        // foreign backlog = 30 compute ops - 24 free = 6 * 400ns = 2.4us lag.
        assert_eq!(m.started_at, SimTime::from_nanos(2_400));
    }

    #[test]
    fn comm_starts_immediately_without_backlog() {
        let mut sim = test_sim(1);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(HostId(0), s(0, 0), KernelSpec::compute("c", SimDuration::from_micros(100)));
            sim.launch(
                HostId(0),
                s(0, 1),
                KernelSpec::comm("m", SimDuration::from_micros(10)).with_tag(77),
            );
        });
        sim.run_to_completion(&mut drv);
        let trace = sim.take_trace().unwrap();
        let m = trace.events().iter().find(|e| e.tag == 77).unwrap();
        assert_eq!(m.started_at, SimTime::ZERO);
    }

    #[test]
    fn deadline_stops_the_clock() {
        let mut sim = test_sim(1);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(HostId(0), s(0, 0), KernelSpec::compute("c", SimDuration::from_micros(100)));
        });
        let end = sim.run(&mut drv, SimTime::from_micros(50));
        assert_eq!(end, SimTime::from_micros(50));
        assert_eq!(sim.kernels_completed(), 0);
    }

    #[test]
    fn request_stop_halts_immediately() {
        let mut sim = test_sim(1);
        struct D;
        impl Driver for D {
            fn start(&mut self, sim: &mut Simulation) {
                sim.set_timer(SimTime::from_micros(10), 0);
                sim.set_timer(SimTime::from_micros(20), 1);
            }
            fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
                if matches!(wake, Wake::Timer { token: 0 }) {
                    sim.request_stop();
                }
            }
        }
        let end = sim.run_to_completion(&mut D);
        assert_eq!(end, SimTime::from_micros(10));
    }

    #[test]
    fn stats_account_busy_time_and_ratio() {
        let mut sim = test_sim(1);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(HostId(0), s(0, 0), KernelSpec::compute("c", SimDuration::from_micros(100)));
            let ev = sim.record_event(HostId(0), s(0, 0));
            sim.stream_wait(HostId(0), s(0, 1), ev);
            sim.launch(HostId(0), s(0, 1), KernelSpec::comm("m", SimDuration::from_micros(50)));
        });
        sim.run_to_completion(&mut drv);
        let st = sim.device_stats(DeviceId(0));
        assert_eq!(st.busy_compute, SimDuration::from_micros(100));
        assert_eq!(st.busy_comm, SimDuration::from_micros(50));
        assert_eq!(st.busy_overlap, SimDuration::ZERO);
        assert!((st.comm_ratio() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(st.kernels_total(), 2);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut sim = test_sim(2);
            let mut drv = script(|sim: &mut Simulation| {
                for d in 0..2 {
                    for i in 0..5u64 {
                        sim.launch(
                            HostId(d),
                            s(d, (i % 2) as usize),
                            KernelSpec::compute(
                                format!("k{d}{i}"),
                                SimDuration::from_micros(10 + i),
                            )
                            .with_tag(i),
                        );
                    }
                }
                let c = sim.new_collective(2);
                for d in 0..2 {
                    sim.launch(
                        HostId(d),
                        s(d, 1),
                        KernelSpec::comm("ar", SimDuration::from_micros(30)).with_collective(c),
                    );
                }
            });
            sim.run_to_completion(&mut drv);
            let t = sim.take_trace().unwrap();
            t.events()
                .iter()
                .map(|e| (e.name.to_string(), e.device, e.started_at, e.ended_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn event_fired_query() {
        let mut sim = test_sim(1);
        struct D {
            ev: Option<EventId>,
            fired_before_run: bool,
        }
        impl Driver for D {
            fn start(&mut self, sim: &mut Simulation) {
                let st = StreamId::new(DeviceId(0), 0);
                sim.launch(HostId(0), st, KernelSpec::compute("a", SimDuration::from_micros(10)));
                let ev = sim.record_event(HostId(0), st);
                self.fired_before_run = sim.event_has_fired(ev);
                self.ev = Some(ev);
            }
            fn on_wake(&mut self, _: Wake, _: &mut Simulation) {}
        }
        let mut d = D { ev: None, fired_before_run: true };
        assert_eq!(sim.live_events(), 0);
        sim.run_to_completion(&mut d);
        assert!(!d.fired_before_run);
        assert!(sim.event_has_fired(d.ev.unwrap()), "a reclaimed event answers fired");
        assert_eq!(sim.live_events(), 0, "nothing waited, so the record is gone");
    }

    #[test]
    #[should_panic(expected = "unknown device")]
    fn launch_to_unknown_device_panics() {
        let mut sim = test_sim(1);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(HostId(0), s(5, 0), KernelSpec::compute("a", SimDuration::from_micros(1)));
        });
        sim.run_to_completion(&mut drv);
    }

    #[test]
    fn builder_rejects_empty_node() {
        assert!(Simulation::builder().build().is_err());
    }

    #[test]
    fn builder_rejects_more_devices_than_the_memory_tracker_indexes() {
        let too_many = usize::from(u16::MAX) + 1;
        let err = Simulation::builder()
            .devices(DeviceSpec::test_device(), too_many)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("65536 devices"), "{err}");
    }

    fn faulty_sim(devices: usize, faults: FaultSpec) -> Simulation {
        Simulation::builder()
            .devices(DeviceSpec::test_device(), devices)
            .streams_per_device(4)
            .capture_trace(true)
            .faults(faults)
            .build()
            .map(|mut s| {
                for h in &mut s.hosts {
                    h.spec = HostSpec::instant();
                }
                s
            })
            .unwrap()
    }

    #[test]
    fn straggler_window_stretches_kernel_piecewise() {
        // Device 0 runs at half speed over [0, 50us); a 100us kernel does
        // 25us-equivalent of work in the window, then finishes the remaining
        // 75us at full rate once the boundary reprices it: ends at 125us.
        let faults =
            FaultSpec::new(7).straggler(DeviceId(0), SimTime::ZERO, SimTime::from_micros(50), 2.0);
        let mut sim = faulty_sim(1, faults);
        assert_eq!(sim.device_fault_factor(DeviceId(0)), 2.0);
        assert_eq!(sim.worst_fault_factor(), 2.0);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(HostId(0), s(0, 0), KernelSpec::compute("a", SimDuration::from_micros(100)));
        });
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(125));
        assert_eq!(sim.kernels_failed(), 0);
        assert_eq!(sim.device_fault_factor(DeviceId(0)), 1.0, "window over");
    }

    #[test]
    fn link_degrade_stretches_collective() {
        let faults = FaultSpec::new(7).degrade_link(
            DeviceId(0),
            DeviceId(1),
            SimTime::ZERO,
            SimTime::from_millis(10),
            2.0,
        );
        let mut sim = faulty_sim(2, faults);
        let mut drv = script(|sim: &mut Simulation| {
            let c = sim.new_collective(2);
            for d in 0..2 {
                sim.launch(
                    HostId(d),
                    s(d, 1),
                    KernelSpec::comm("ar", SimDuration::from_micros(50)).with_collective(c),
                );
            }
        });
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(100), "degraded link halves the collective rate");
    }

    #[test]
    fn failed_kernels_drain_fifo_and_wake_the_driver() {
        // Certain failure at half runtime: both kernels die but still pop
        // from the queue in launch order, and the driver hears about each.
        let faults = FaultSpec::new(7).kernel_failures(KernelFaultParams {
            prob: 1.0,
            fraction: 0.5,
            from: SimTime::ZERO,
            until: SimTime::MAX,
        });
        let mut sim = faulty_sim(1, faults);
        let failures: Rc<RefCell<Vec<(u64, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        let log = failures.clone();
        let mut drv = Script {
            on_start: |sim: &mut Simulation| {
                for i in 0..2u64 {
                    sim.launch(
                        HostId(0),
                        s(0, 0),
                        KernelSpec::compute("k", SimDuration::from_micros(100)).with_tag(i),
                    );
                }
            },
            on_wake: move |wake: Wake, _: &mut Simulation| {
                if let Wake::KernelFailed { tag, at, .. } = wake {
                    log.borrow_mut().push((tag, at));
                }
            },
        };
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(100), "each attempt dies after 50us");
        assert_eq!(sim.kernels_completed(), 2, "failed kernels still drain");
        assert_eq!(sim.kernels_failed(), 2);
        assert_eq!(
            *failures.borrow(),
            vec![(0, SimTime::from_micros(50)), (1, SimTime::from_micros(100))],
            "failures surface in FIFO completion order"
        );
        let trace = sim.take_trace().unwrap();
        assert!(trace.events().iter().all(|e| e.failed));
    }

    #[test]
    fn launch_spike_delays_the_kernel() {
        let faults = FaultSpec::new(7).launch_spikes(LaunchSpikeParams {
            prob: 1.0,
            extra: SimDuration::from_micros(40),
            from: SimTime::ZERO,
            until: SimTime::MAX,
        });
        let mut sim = faulty_sim(1, faults);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(HostId(0), s(0, 0), KernelSpec::compute("a", SimDuration::from_micros(10)));
        });
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(50), "40us spike + 10us kernel");
    }

    #[test]
    fn same_seed_fault_runs_are_identical() {
        let run = || {
            let faults = FaultSpec::new(42)
                .straggler(DeviceId(0), SimTime::from_micros(20), SimTime::from_micros(90), 3.0)
                .kernel_failures(KernelFaultParams {
                    prob: 0.4,
                    fraction: 0.5,
                    from: SimTime::ZERO,
                    until: SimTime::MAX,
                });
            let mut sim = faulty_sim(2, faults);
            let mut drv = script(|sim: &mut Simulation| {
                for d in 0..2 {
                    for i in 0..6u64 {
                        sim.launch(
                            HostId(d),
                            s(d, (i % 3) as usize),
                            KernelSpec::compute(format!("k{d}{i}"), SimDuration::from_micros(15))
                                .with_tag(i),
                        );
                    }
                }
            });
            sim.run_to_completion(&mut drv);
            sim.take_trace().unwrap().to_chrome_json()
        };
        assert_eq!(run(), run(), "same seed, byte-identical chrome traces");
    }

    #[test]
    fn device_down_fails_running_and_queued_kernels_in_fifo_order() {
        let faults = FaultSpec::new(1).device_down(DeviceId(0), SimTime::from_micros(50));
        let mut sim = faulty_sim(1, faults);
        let wakes: Rc<RefCell<Vec<(String, u64, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        let log = wakes.clone();
        let mut drv = Script {
            on_start: |sim: &mut Simulation| {
                for i in 0..3u64 {
                    sim.launch(
                        HostId(0),
                        s(0, 0),
                        KernelSpec::compute("k", SimDuration::from_micros(100)).with_tag(i),
                    );
                }
            },
            on_wake: move |wake: Wake, _: &mut Simulation| match wake {
                Wake::KernelFailed { tag, at, .. } => {
                    log.borrow_mut().push(("fail".into(), tag, at));
                }
                Wake::DeviceDown { device, at } => {
                    log.borrow_mut().push(("down".into(), device.0 as u64, at));
                }
                _ => {}
            },
        };
        let end = sim.run_to_completion(&mut drv);
        let t50 = SimTime::from_micros(50);
        assert_eq!(end, t50, "nothing outlives the death instant");
        assert!(!sim.device_alive(DeviceId(0)));
        assert!(sim.alive_devices().is_empty());
        assert_eq!(sim.kernels_completed(), 3, "dead kernels still drain");
        assert_eq!(sim.kernels_failed(), 3);
        assert_eq!(
            *wakes.borrow(),
            vec![
                ("fail".into(), 0, t50),
                ("fail".into(), 1, t50),
                ("fail".into(), 2, t50),
                ("down".into(), 0, t50),
            ],
            "kernel losses surface in FIFO order before the DeviceDown wake"
        );
        let trace = sim.take_trace().unwrap();
        assert!(trace.events().iter().all(|e| e.failed));
    }

    #[test]
    fn death_drain_does_not_start_kernels_on_sibling_queues() {
        // Queue 0 of the dying device holds a running kernel and then a
        // Record; queue 1 waits on that event with a kernel behind the wait.
        // When the drain pops the Record, the triggered event satisfies the
        // sibling queue's wait — but the sibling must NOT begin its kernel on
        // the now-dead device (its completion would fire against a drained
        // queue). Everything fails at the death instant instead.
        let faults = FaultSpec::new(1).device_down(DeviceId(0), SimTime::from_micros(50));
        let mut sim = faulty_sim(1, faults);
        let mut drv = script(|sim: &mut Simulation| {
            sim.launch(
                HostId(0),
                s(0, 0),
                KernelSpec::compute("a", SimDuration::from_micros(100)).with_tag(1),
            );
            let ev = sim.record_event(HostId(0), s(0, 0));
            sim.stream_wait(HostId(0), s(0, 1), ev);
            sim.launch(
                HostId(0),
                s(0, 1),
                KernelSpec::compute("b", SimDuration::from_micros(10)).with_tag(2),
            );
        });
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(50), "nothing outlives the death instant");
        assert_eq!(sim.kernels_failed(), 2, "both kernels fail; neither runs past death");
        assert_eq!(sim.kernels_completed(), 2);
        let trace = sim.take_trace().unwrap();
        assert!(trace.events().iter().all(|e| e.failed));
    }

    #[test]
    fn device_down_aborts_collectives_and_survivor_queues_drain() {
        let faults = FaultSpec::new(1).device_down(DeviceId(1), SimTime::from_micros(25));
        let mut sim = faulty_sim(2, faults);
        let mut drv = script(|sim: &mut Simulation| {
            let c = sim.new_collective(2);
            for d in 0..2 {
                sim.launch(
                    HostId(d),
                    s(d, 1),
                    KernelSpec::comm("ar", SimDuration::from_micros(50))
                        .with_collective(c)
                        .with_tag(d as u64),
                );
            }
            // Queued behind the doomed collective on the survivor.
            sim.launch(
                HostId(0),
                s(0, 1),
                KernelSpec::compute("after", SimDuration::from_micros(10)).with_tag(9),
            );
        });
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(
            end,
            SimTime::from_micros(35),
            "survivor drains past the aborted rendezvous and runs the next kernel"
        );
        assert_eq!(sim.kernels_failed(), 2, "both collective members fail");
        let trace = sim.take_trace().unwrap();
        let after = trace.events().iter().find(|e| e.tag == 9).unwrap();
        assert!(!after.failed);
        assert_eq!(after.started_at, SimTime::from_micros(25));
    }

    #[test]
    fn post_death_launches_fail_instantly_and_records_never_fire() {
        let faults = FaultSpec::new(1).device_down(DeviceId(0), SimTime::from_micros(10));
        let mut sim = faulty_sim(1, faults);
        let fired: Rc<RefCell<Vec<Wake>>> = Rc::new(RefCell::new(Vec::new()));
        let log = fired.clone();
        let probe: Rc<RefCell<Option<EventId>>> = Rc::new(RefCell::new(None));
        let probe2 = probe.clone();
        let mut drv = Script {
            on_start: |sim: &mut Simulation| {
                sim.set_timer(SimTime::from_micros(20), 1);
            },
            on_wake: move |wake: Wake, sim: &mut Simulation| match wake {
                Wake::Timer { token: 1 } => {
                    sim.launch(
                        HostId(0),
                        s(0, 0),
                        KernelSpec::compute("late", SimDuration::from_micros(5)).with_tag(7),
                    );
                    let ev = sim.record_event(HostId(0), s(0, 0));
                    sim.notify_on_event(ev, HostId(0), 99);
                    *probe2.borrow_mut() = Some(ev);
                }
                w => log.borrow_mut().push(w),
            },
        };
        sim.run_to_completion(&mut drv);
        let ev = probe.borrow().unwrap();
        assert!(!sim.event_has_fired(ev), "post-death records never fire");
        let wakes = fired.borrow();
        assert_eq!(wakes.len(), 2, "kernel failure + device-down only: {wakes:?}");
        assert!(matches!(wakes[0], Wake::DeviceDown { device: DeviceId(0), .. }));
        assert!(
            matches!(wakes[1], Wake::KernelFailed { tag: 7, .. }),
            "a launch to a dead device fails instantly"
        );
        assert_eq!(sim.kernels_failed(), 1);
    }

    #[test]
    fn gathering_collective_aborts_when_the_dead_member_arrives() {
        // The survivor gathers first; the dead device's member kernel is
        // launched only after the death, so the rendezvous can never fill —
        // it aborts when that launch reaches the dead device.
        let faults = FaultSpec::new(1).device_down(DeviceId(1), SimTime::from_micros(5));
        let mut sim = faulty_sim(2, faults);
        let coll: Rc<RefCell<Option<CollectiveId>>> = Rc::new(RefCell::new(None));
        let coll2 = coll.clone();
        let mut drv = Script {
            on_start: move |sim: &mut Simulation| {
                let c = sim.new_collective(2);
                *coll2.borrow_mut() = Some(c);
                sim.launch(
                    HostId(0),
                    s(0, 1),
                    KernelSpec::comm("ar", SimDuration::from_micros(50))
                        .with_collective(c)
                        .with_tag(0),
                );
                sim.launch(
                    HostId(0),
                    s(0, 1),
                    KernelSpec::compute("after", SimDuration::from_micros(10)).with_tag(9),
                );
                sim.set_timer(SimTime::from_micros(12), 1);
            },
            on_wake: move |wake: Wake, sim: &mut Simulation| {
                if let Wake::Timer { token: 1 } = wake {
                    let c = coll.borrow().unwrap();
                    sim.launch(
                        HostId(1),
                        s(1, 1),
                        KernelSpec::comm("ar", SimDuration::from_micros(50))
                            .with_collective(c)
                            .with_tag(1),
                    );
                }
            },
        };
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(22), "abort at 12us + 10us trailing kernel");
        assert_eq!(sim.kernels_failed(), 2, "both members of the doomed rendezvous fail");
        let trace = sim.take_trace().unwrap();
        assert!(!trace.events().iter().find(|e| e.tag == 9).unwrap().failed);
    }

    #[test]
    fn same_seed_device_down_runs_are_identical() {
        let run = || {
            let faults = FaultSpec::new(42)
                .straggler(DeviceId(0), SimTime::from_micros(20), SimTime::from_micros(90), 3.0)
                .device_down(DeviceId(1), SimTime::from_micros(40));
            let mut sim = faulty_sim(2, faults);
            let mut drv = script(|sim: &mut Simulation| {
                for d in 0..2 {
                    for i in 0..6u64 {
                        sim.launch(
                            HostId(d),
                            s(d, (i % 3) as usize),
                            KernelSpec::compute(format!("k{d}{i}"), SimDuration::from_micros(15))
                                .with_tag(i),
                        );
                    }
                }
            });
            sim.run_to_completion(&mut drv);
            sim.take_trace().unwrap().to_chrome_json()
        };
        assert_eq!(run(), run(), "same seed + device loss, byte-identical chrome traces");
    }

    #[test]
    fn windowed_outage_rejoins_and_executes_new_work() {
        // Device 0 is down over [50us, 80us): the 100us kernel launched at
        // start dies at 50, the driver hears the rejoin at 80 and submits a
        // fresh kernel, which runs to completion on the recovered device.
        let faults = FaultSpec::new(1).device_outage(
            DeviceId(0),
            SimTime::from_micros(50),
            SimTime::from_micros(80),
        );
        let mut sim = faulty_sim(1, faults);
        let wakes: Rc<RefCell<Vec<(String, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        let log = wakes.clone();
        let mut drv = Script {
            on_start: |sim: &mut Simulation| {
                sim.launch(
                    HostId(0),
                    s(0, 0),
                    KernelSpec::compute("pre", SimDuration::from_micros(100)).with_tag(1),
                );
            },
            on_wake: move |wake: Wake, sim: &mut Simulation| match wake {
                Wake::KernelFailed { tag, at, .. } => {
                    log.borrow_mut().push((format!("fail{tag}"), at));
                }
                Wake::DeviceDown { at, .. } => log.borrow_mut().push(("down".into(), at)),
                Wake::DeviceRejoined { device, at } => {
                    log.borrow_mut().push(("rejoin".into(), at));
                    assert!(sim.device_alive(device), "alive again by wake delivery");
                    sim.launch(
                        HostId(0),
                        s(0, 0),
                        KernelSpec::compute("post", SimDuration::from_micros(10)).with_tag(2),
                    );
                }
                _ => {}
            },
        };
        let end = sim.run_to_completion(&mut drv);
        assert_eq!(end, SimTime::from_micros(90), "rejoin at 80us + 10us kernel");
        assert!(sim.device_alive(DeviceId(0)));
        assert_eq!(sim.alive_devices(), vec![DeviceId(0)]);
        assert_eq!(sim.kernels_failed(), 1, "only the pre-outage kernel dies");
        assert_eq!(
            *wakes.borrow(),
            vec![
                ("fail1".into(), SimTime::from_micros(50)),
                ("down".into(), SimTime::from_micros(50)),
                ("rejoin".into(), SimTime::from_micros(80)),
            ]
        );
        let trace = sim.take_trace().unwrap();
        assert!(trace.events().iter().find(|e| e.tag == 1).unwrap().failed);
        assert!(!trace.events().iter().find(|e| e.tag == 2).unwrap().failed);
    }

    #[test]
    fn flapping_device_delivers_one_wake_pair_per_window() {
        let faults = FaultSpec::new(1)
            .device_outage(DeviceId(0), SimTime::from_micros(10), SimTime::from_micros(20))
            .device_outage(DeviceId(0), SimTime::from_micros(30), SimTime::from_micros(40));
        let mut sim = faulty_sim(1, faults);
        let log: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = log.clone();
        let mut drv = Script {
            on_start: |_: &mut Simulation| {},
            on_wake: move |wake: Wake, _: &mut Simulation| match wake {
                Wake::DeviceDown { at, .. } => log2.borrow_mut().push(format!("down@{at}")),
                Wake::DeviceRejoined { at, .. } => log2.borrow_mut().push(format!("up@{at}")),
                _ => {}
            },
        };
        sim.run_to_completion(&mut drv);
        assert!(sim.device_alive(DeviceId(0)), "alive after the last window closes");
        assert_eq!(*log.borrow(), vec!["down@0.010ms", "up@0.020ms", "down@0.030ms", "up@0.040ms"]);
    }

    #[test]
    fn same_seed_windowed_outage_runs_are_identical() {
        let run = || {
            let faults = FaultSpec::new(42)
                .device_outage(DeviceId(1), SimTime::from_micros(30), SimTime::from_micros(70))
                .kernel_failures(KernelFaultParams {
                    prob: 0.2,
                    fraction: 0.5,
                    from: SimTime::ZERO,
                    until: SimTime::MAX,
                });
            let mut sim = faulty_sim(2, faults);
            let mut drv = script(|sim: &mut Simulation| {
                for d in 0..2 {
                    for i in 0..6u64 {
                        sim.launch(
                            HostId(d),
                            s(d, (i % 3) as usize),
                            KernelSpec::compute(format!("k{d}{i}"), SimDuration::from_micros(15))
                                .with_tag(i),
                        );
                    }
                }
            });
            sim.run_to_completion(&mut drv);
            sim.take_trace().unwrap().to_chrome_json()
        };
        assert_eq!(run(), run(), "same seed + outage window, byte-identical chrome traces");
    }

    // -- record reclamation ----------------------------------------------------

    #[test]
    fn host_sync_on_an_event_fired_before_the_sync_runs_reads_its_time() {
        // The CpuGpu engine path: record, then sync right away. On an idle
        // stream the record fires before the host reaches the sync, which
        // then reads the trigger time from the still-live record.
        let host = HostSpec {
            event_overhead: SimDuration::from_micros(5),
            sync_latency: SimDuration::from_micros(2),
            ..HostSpec::instant()
        };
        let mut sim =
            Simulation::builder().device(DeviceSpec::test_device()).host(host).build().unwrap();
        let synced: Rc<RefCell<Vec<(Wake, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        let log = synced.clone();
        let mut drv = Script {
            on_start: |sim: &mut Simulation| {
                let ev = sim.record_event(HostId(0), s(0, 0));
                sim.host_sync(HostId(0), ev, 7);
            },
            on_wake: move |w: Wake, sim: &mut Simulation| log.borrow_mut().push((w, sim.now())),
        };
        sim.run_to_completion(&mut drv);
        let synced = synced.borrow();
        assert_eq!(synced.len(), 1);
        let (wake, at) = synced[0];
        assert_eq!(
            wake,
            Wake::HostSynced {
                host: HostId(0),
                event: EventId(0),
                token: 7,
                fired_at: SimTime::from_micros(5),
            }
        );
        assert_eq!(at, SimTime::from_micros(7), "record overhead + sync latency");
        assert_eq!(sim.live_events(), 0, "the sync was the record's last reader");
    }

    #[test]
    fn a_wait_on_an_event_reclaimed_long_ago_resolves_at_once() {
        const ROUNDS: u64 = 2_000;
        let mut sim = test_sim(2);
        let first: Rc<RefCell<Option<EventId>>> = Rc::new(RefCell::new(None));
        let first2 = first.clone();
        let mut drv = Script {
            on_start: move |sim: &mut Simulation| {
                sim.launch(
                    HostId(0),
                    s(0, 0),
                    KernelSpec::compute("a", SimDuration::from_micros(10)),
                );
                *first2.borrow_mut() = Some(sim.record_event(HostId(0), s(0, 0)));
                sim.set_timer(SimTime::from_micros(20), 1);
            },
            on_wake: move |w: Wake, sim: &mut Simulation| {
                let Wake::Timer { token } = w else { return };
                if token < ROUNDS {
                    // Churn: records that fire and are reclaimed at once.
                    sim.record_event(HostId(0), s(0, 1));
                    sim.set_timer(sim.now() + SimDuration::from_micros(1), token + 1);
                } else {
                    let ev = first.borrow().unwrap();
                    sim.stream_wait(HostId(1), s(1, 0), ev);
                    let k = KernelSpec::compute("b", SimDuration::from_micros(5)).with_tag(9);
                    sim.launch(HostId(1), s(1, 0), k);
                }
            },
        };
        sim.run_to_completion(&mut drv);
        assert_eq!(sim.live_events(), 0);
        let waited_at = SimTime::from_micros(20 + ROUNDS - 1);
        let trace = sim.take_trace().unwrap();
        let b = trace.events().iter().find(|e| e.tag == 9).unwrap();
        assert_eq!(b.started_at, waited_at, "the wait did not block");
        let marks: Vec<&TraceMark> = trace
            .marks()
            .iter()
            .filter(|m| {
                matches!(m, TraceMark::Record { event: 0, .. } | TraceMark::Wait { event: 0, .. })
            })
            .collect();
        assert_eq!(marks.len(), 2, "{marks:?}");
        assert!(
            matches!(marks[0], TraceMark::Record { at, .. } if *at == SimTime::from_micros(10))
        );
        assert!(matches!(marks[1], TraceMark::Wait { at, .. } if *at == waited_at));
    }

    #[test]
    fn a_stale_completion_never_finishes_the_group_reusing_its_slot() {
        // Collective A starts slowed by a compute kernel and schedules its
        // completion for 200us; the kernel ends early, A speeds up and
        // finishes at 137.5us, leaving the 200us entry stale. B then takes
        // A's table slot. Had B's generation restarted, the stale entry
        // would end B at 200us instead of 137.5 + 200 = 337.5us.
        let contention = ContentionParams {
            compute_vs_comm: 1.5,
            comm_vs_compute: 2.0,
            compute_self_penalty: 1.0,
            comm_self_penalty: 1.0,
            reference_channels: 2,
            channel_sensitivity: 0.0,
        };
        let dev = DeviceSpec::test_device().with_contention(contention);
        let mut sim = Simulation::builder()
            .devices(dev, 2)
            .host(HostSpec::instant())
            .host(HostSpec::instant())
            .capture_trace(true)
            .build()
            .unwrap();
        let slots: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let log = slots.clone();
        let comm = |us: u64, c: CollectiveId, tag: u64| {
            KernelSpec::comm("ar", SimDuration::from_micros(us)).with_collective(c).with_tag(tag)
        };
        let mut drv = Script {
            on_start: |sim: &mut Simulation| {
                sim.launch(
                    HostId(0),
                    s(0, 0),
                    KernelSpec::compute("c", SimDuration::from_micros(50)),
                );
                let a = sim.new_collective(2);
                log.borrow_mut().push(sim.collectives.slot(a.0).unwrap());
                for d in 0..2 {
                    sim.launch(HostId(d), s(d, 1), comm(100, a, 1));
                }
                let ev = sim.record_event(HostId(0), s(0, 1));
                sim.notify_on_event(ev, HostId(0), 0);
            },
            on_wake: |_: Wake, sim: &mut Simulation| {
                let b = sim.new_collective(2);
                slots.borrow_mut().push(sim.collectives.slot(b.0).unwrap());
                for d in 0..2 {
                    sim.launch(HostId(d), s(d, 1), comm(200, b, 2));
                }
            },
        };
        sim.run_to_completion(&mut drv);
        let slots = slots.borrow();
        assert_eq!(slots[0], slots[1], "B reused A's slot");
        let trace = sim.take_trace().unwrap();
        for e in trace.events().iter().filter(|e| e.tag == 1) {
            assert_eq!(e.ended_at, SimTime::from_nanos(137_500));
        }
        let b: Vec<_> = trace.events().iter().filter(|e| e.tag == 2).collect();
        assert_eq!(b.len(), 2);
        for e in b {
            assert_eq!(e.started_at, SimTime::from_nanos(137_500));
            assert_eq!(e.ended_at, SimTime::from_nanos(337_500));
        }
        assert_eq!(sim.live_collectives(), 0);
    }

    #[test]
    #[should_panic(expected = "already complete")]
    fn launching_into_a_finished_collective_still_panics() {
        let mut sim = test_sim(2);
        let group: Rc<RefCell<Option<CollectiveId>>> = Rc::new(RefCell::new(None));
        let g = group.clone();
        let mut drv = script(move |sim: &mut Simulation| {
            let c = sim.new_collective(2);
            for d in 0..2 {
                let k = KernelSpec::comm("ar", SimDuration::from_micros(10)).with_collective(c);
                sim.launch(HostId(d), s(d, 1), k);
            }
            *g.borrow_mut() = Some(c);
        });
        sim.run_to_completion(&mut drv);
        assert_eq!(sim.live_collectives(), 0, "the finished group was reclaimed");
        let c = group.borrow().unwrap();
        let late = KernelSpec::comm("ar", SimDuration::from_micros(10)).with_collective(c);
        sim.launch(HostId(0), s(0, 1), late);
    }

    #[test]
    fn an_aborted_group_is_reclaimed_only_after_its_last_member_fails() {
        // A 3-rank group: gpu0's member gathers at once, gpu1's queues
        // behind a 100us kernel, and gpu2 dies at 10us before its member is
        // launched at 20us. That launch aborts the group (gpu0's member
        // fails); gpu1's member still fails on arrival at 100us, and only
        // then is the group reclaimed.
        let faults = FaultSpec::new(1).device_down(DeviceId(2), SimTime::from_micros(10));
        let mut sim = faulty_sim(3, faults);
        let seen: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let log = seen.clone();
        let group: Rc<RefCell<Option<CollectiveId>>> = Rc::new(RefCell::new(None));
        let g = group.clone();
        let ar = |c: CollectiveId, tag: u64| {
            KernelSpec::comm("ar", SimDuration::from_micros(10)).with_collective(c).with_tag(tag)
        };
        let mut drv = Script {
            on_start: move |sim: &mut Simulation| {
                let c = sim.new_collective(3);
                sim.launch(HostId(0), s(0, 1), ar(c, 10));
                sim.launch(
                    HostId(1),
                    s(1, 1),
                    KernelSpec::comm("m", SimDuration::from_micros(100)),
                );
                sim.launch(HostId(1), s(1, 1), ar(c, 11));
                *g.borrow_mut() = Some(c);
                sim.set_timer(SimTime::from_micros(20), 1);
                sim.set_timer(SimTime::from_micros(50), 2);
            },
            on_wake: move |w: Wake, sim: &mut Simulation| match w {
                Wake::Timer { token: 1 } => {
                    let c = group.borrow().unwrap();
                    sim.launch(HostId(2), s(2, 1), ar(c, 12));
                }
                Wake::Timer { token: 2 } => log.borrow_mut().push(sim.live_collectives()),
                _ => {}
            },
        };
        sim.run_to_completion(&mut drv);
        assert_eq!(*seen.borrow(), vec![1], "held while gpu1's member is still coming");
        assert_eq!(sim.live_collectives(), 0);
        let trace = sim.take_trace().unwrap();
        let at = |tag: u64| trace.events().iter().find(|e| e.tag == tag).unwrap().clone();
        assert!(at(10).failed && at(10).ended_at == SimTime::from_micros(20));
        assert!(at(12).failed && at(12).ended_at == SimTime::from_micros(20));
        assert!(at(11).failed, "a late member fails on arrival");
        assert_eq!(at(11).ended_at, SimTime::from_micros(100));
    }

    // -- doomed events -----------------------------------------------------------

    /// Device 1 of two dies at 10 µs. At 20 µs `probe` runs and returns an
    /// event it recorded on the dead device; at 50 µs `then` runs on it.
    /// Host 0's sync latency is 3 µs and host 1's is 7 µs. Returns the
    /// simulation, the event and every other wake with its time.
    fn dead_device_probe(
        mut probe: impl FnMut(&mut Simulation) -> EventId,
        mut then: impl FnMut(EventId, &mut Simulation),
    ) -> (Simulation, EventId, Vec<(Wake, SimTime)>) {
        let host =
            |us| HostSpec { sync_latency: SimDuration::from_micros(us), ..HostSpec::instant() };
        let mut sim = Simulation::builder()
            .devices(DeviceSpec::test_device(), 2)
            .streams_per_device(4)
            .capture_trace(true)
            .faults(FaultSpec::new(1).device_down(DeviceId(1), SimTime::from_micros(10)))
            .host(host(3))
            .host(host(7))
            .build()
            .unwrap();
        let mut ev = None;
        let mut wakes = Vec::new();
        let mut drv = Script {
            on_start: |sim: &mut Simulation| {
                sim.set_timer(SimTime::from_micros(20), 1);
                sim.set_timer(SimTime::from_micros(50), 2);
            },
            on_wake: |w: Wake, sim: &mut Simulation| match w {
                Wake::Timer { token: 1 } => ev = Some(probe(sim)),
                Wake::Timer { token: 2 } => then(ev.unwrap(), sim),
                Wake::DeviceDown { .. } => {}
                w => wakes.push((w, sim.now())),
            },
        };
        sim.run_to_completion(&mut drv);
        (sim, ev.unwrap(), wakes)
    }

    /// A heartbeat probe: a record on the dead device plus a driver
    /// callback with latency host 1.
    fn heartbeat(sim: &mut Simulation) -> EventId {
        let ev = sim.record_event(HostId(0), s(1, 0));
        sim.notify_on_event(ev, HostId(1), 42);
        ev
    }

    #[test]
    fn a_dropped_probe_is_doomed_unfired_and_counted_live() {
        let (sim, ev, wakes) = dead_device_probe(heartbeat, |ev, sim| {
            assert_eq!(sim.events.slot(ev.0), None, "the record left the table");
            assert_eq!(sim.doomed.len(), 1);
        });
        assert!(wakes.is_empty(), "a dropped record never fires: {wakes:?}");
        assert!(!sim.event_has_fired(ev));
        assert_eq!(sim.live_events(), 1, "an unfired event stays live");
        assert!(sim.event_has_host_interest(ev.0), "its callback still couples to the host");
        assert!(sim.event_queue_waiters(ev.0).is_empty());
        assert!(sim.terminal_report().is_quiescent());
        let (sim, ev, _) = dead_device_probe(|sim| sim.record_event(HostId(0), s(1, 0)), |_, _| {});
        assert!(!sim.event_has_fired(ev));
        assert_eq!(sim.live_events(), 1);
        assert!(!sim.event_has_host_interest(ev.0), "no callback, no host interest");
    }

    #[test]
    fn re_recording_a_doomed_event_on_a_live_stream_fires_it() {
        let (sim, ev, wakes) = dead_device_probe(heartbeat, |ev, sim| {
            sim.record_existing_event(HostId(0), s(0, 0), ev);
        });
        let fired_at = SimTime::from_micros(50);
        assert_eq!(
            wakes,
            vec![(Wake::EventFired { event: ev, token: 42, fired_at }, SimTime::from_micros(57))],
            "the original token, after latency host 1's sync latency"
        );
        assert!(sim.event_has_fired(ev));
        assert_eq!(sim.live_events(), 0);
        assert!(sim.doomed.is_empty());
    }

    #[test]
    fn a_survivor_wait_on_a_doomed_event_stays_blocked() {
        let (sim, ev, wakes) = dead_device_probe(heartbeat, |ev, sim| {
            sim.stream_wait(HostId(0), s(0, 1), ev);
            sim.launch(
                HostId(0),
                s(0, 1),
                KernelSpec::compute("after", SimDuration::from_micros(5)).with_tag(9),
            );
        });
        assert!(wakes.is_empty(), "{wakes:?}");
        assert!(!sim.event_has_fired(ev));
        assert_eq!(sim.live_events(), 1);
        assert_eq!(sim.event_queue_waiters(ev.0), &[(0, 1)], "the wait brought the record back");
        let report = sim.terminal_report();
        assert_eq!(
            report.blocked_lanes,
            vec![BlockedLane { device: 0, queue: 1, stream: 1, block: LaneBlock::Event(ev.0) }]
        );
        assert_eq!(report.queued_ops, 2, "the wait and the kernel behind it");
        let trace = sim.trace().unwrap();
        assert!(trace.events().iter().all(|e| e.tag != 9), "nothing ran behind the wait");
    }

    #[test]
    fn a_callback_and_a_host_sync_on_a_doomed_event_park() {
        let (sim, ev, wakes) = dead_device_probe(heartbeat, |ev, sim| {
            sim.notify_on_event(ev, HostId(0), 43);
            sim.host_sync(HostId(1), ev, 44);
        });
        assert!(wakes.is_empty(), "{wakes:?}");
        assert!(!sim.event_has_fired(ev));
        assert_eq!(sim.live_events(), 1);
        assert!(sim.event_has_host_interest(ev.0));
        assert_eq!(sim.terminal_report().blocked_hosts, vec![(1, ev.0)], "the host parks");
        let slot = sim.events.slot(ev.0).expect("the record is back");
        assert_eq!(sim.events[slot].callbacks, vec![(42, 1), (43, 0)], "callbacks in order");
    }

    #[test]
    fn a_waited_on_or_twice_watched_event_keeps_its_record() {
        let mut waited = None;
        let (sim, watched, _) = dead_device_probe(
            |sim| {
                // A survivor queue blocks on `ev` before its record is dropped.
                let ev = sim.new_event();
                sim.stream_wait(HostId(0), s(0, 1), ev);
                sim.record_existing_event(HostId(0), s(1, 0), ev);
                waited = Some(ev);
                let twice = heartbeat(sim);
                sim.notify_on_event(twice, HostId(0), 43);
                twice
            },
            |_, _| {},
        );
        let waited = waited.unwrap();
        for ev in [waited, watched] {
            assert!(!sim.event_has_fired(ev));
            assert!(sim.events.slot(ev.0).is_some(), "{ev} stays in the table");
        }
        assert!(sim.doomed.is_empty());
        assert_eq!(sim.live_events(), 2);
        assert_eq!(sim.event_queue_waiters(waited.0), &[(0, 1)]);
    }
}
