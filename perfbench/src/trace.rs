//! Tracing from the benchmark's side of the layer boundaries: an
//! [`InferenceEngine`] wrapper that times every call into [`LigerEngine`],
//! counts the allocations inside it, and keeps the spans in memory until
//! the run dumps them.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use liger_core::LigerEngine;
use liger_gpu_sim::{DeviceId, SimTime, Simulation, Wake};
use liger_serving::{InferenceEngine, Request};

use crate::alloc;

/// Simulator counters summed over a simulation's devices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Events the core dispatched.
    pub events: u64,
    /// Kernels completed (failed ones included).
    pub kernels: u64,
    /// Kernels killed by the fault schedule.
    pub kernels_failed: u64,
    /// Σ time with compute running, ns.
    pub busy_compute_ns: u64,
    /// Σ time with communication running, ns.
    pub busy_comm_ns: u64,
    /// Σ time with both running at once, ns.
    pub busy_overlap_ns: u64,
    /// Devices × simulated horizon, ns.
    pub device_ns: u64,
}

impl SimCounters {
    /// Reads the public getters of `sim`.
    pub fn read(sim: &Simulation) -> SimCounters {
        let mut c = SimCounters {
            events: sim.events_dispatched(),
            kernels: sim.kernels_completed(),
            kernels_failed: sim.kernels_failed(),
            device_ns: sim.device_count() as u64 * sim.now().as_nanos(),
            ..SimCounters::default()
        };
        for d in 0..sim.device_count() {
            let s = sim.device_stats(DeviceId(d));
            c.busy_compute_ns += s.busy_compute.as_nanos();
            c.busy_comm_ns += s.busy_comm.as_nanos();
            c.busy_overlap_ns += s.busy_overlap.as_nanos();
        }
        c
    }

    /// Adds another simulation's counters.
    pub fn add(&mut self, o: &SimCounters) {
        self.events += o.events;
        self.kernels += o.kernels;
        self.kernels_failed += o.kernels_failed;
        self.busy_compute_ns += o.busy_compute_ns;
        self.busy_comm_ns += o.busy_comm_ns;
        self.busy_overlap_ns += o.busy_overlap_ns;
        self.device_ns += o.device_ns;
    }
}

/// An engine the workloads can serve through: the Liger engine itself, or
/// the Liger engine behind the tracing wrapper.
pub trait Liger: InferenceEngine {
    /// The Liger engine underneath.
    fn liger(&self) -> &LigerEngine;
}

impl Liger for LigerEngine {
    fn liger(&self) -> &LigerEngine {
        self
    }
}

/// Which engine entry point a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Submit,
    Wake,
    Drain,
    DeviceLoss,
    DeviceRejoin,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Submit => "submit",
            Call::Wake => "on_wake",
            Call::Drain => "drain_completions",
            Call::DeviceLoss => "on_device_loss",
            Call::DeviceRejoin => "on_device_rejoin",
        }
    }
}

/// One timed call into the engine.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Replica whose engine was called (0 outside the cluster).
    pub replica: usize,
    /// Entry point.
    pub call: Call,
    /// Request the call concerned: the submitted request, or the first
    /// request a drain returned.
    pub request: Option<u64>,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Heap allocations inside the call.
    pub allocs: u64,
}

/// What an engine had done when it was dropped.
#[derive(Debug, Clone, Copy)]
pub struct EngineTotals {
    /// `LigerEngine::rounds_planned`.
    pub rounds_planned: u64,
    /// `LigerEngine::degraded_rounds`.
    pub degraded_rounds: u64,
    /// The simulation's counters as of the engine's last call (the cluster
    /// front owns and drops its replicas' simulations, so this is the only
    /// view of them).
    pub sim: SimCounters,
}

/// In-memory span store shared by every wrapped engine of one serve.
pub struct Recorder {
    origin: Instant,
    /// Spans in call order.
    pub spans: Vec<Span>,
    /// One entry per wrapped engine, in drop order.
    pub engines: Vec<EngineTotals>,
}

impl Recorder {
    /// An empty recorder, shareable between the engines of one serve.
    pub fn shared() -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            engines: Vec::new(),
        }))
    }

    /// Σ span durations, ns: the engine's self time (nothing nests inside
    /// an engine call).
    pub fn engine_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.dur_ns).sum()
    }

    /// Σ allocations inside engine calls.
    pub fn engine_allocs(&self) -> u64 {
        self.spans.iter().map(|s| s.allocs).sum()
    }

    /// The first `limit` spans as CSV.
    pub fn to_csv(&self, limit: usize) -> String {
        let mut out = String::from("replica,call,request,start_ns,dur_ns,allocs\n");
        for s in self.spans.iter().take(limit) {
            let request = s.request.map(|r| r.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.replica,
                s.call.name(),
                request,
                s.start_ns,
                s.dur_ns,
                s.allocs
            );
        }
        out
    }
}

/// The Liger engine with every call timed into a [`Recorder`].
pub struct Traced {
    inner: LigerEngine,
    replica: usize,
    recorder: Rc<RefCell<Recorder>>,
    last_sim: SimCounters,
}

impl Traced {
    /// Wraps `inner`, the engine of `replica`.
    pub fn new(inner: LigerEngine, replica: usize, recorder: Rc<RefCell<Recorder>>) -> Traced {
        Traced { inner, replica, recorder, last_sim: SimCounters::default() }
    }

    fn timed<R>(
        &mut self,
        call: Call,
        sim: &mut Simulation,
        f: impl FnOnce(&mut LigerEngine, &mut Simulation) -> R,
    ) -> (R, Span) {
        let before = alloc::snapshot().allocs;
        let start = Instant::now();
        let out = f(&mut self.inner, sim);
        let end = Instant::now();
        let allocs = alloc::snapshot().allocs - before;
        self.last_sim = SimCounters::read(sim);
        let origin = self.recorder.borrow().origin;
        let span = Span {
            replica: self.replica,
            call,
            request: None,
            start_ns: start.duration_since(origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            allocs,
        };
        (out, span)
    }

    fn record(&self, span: Span) {
        self.recorder.borrow_mut().spans.push(span);
    }
}

impl Liger for Traced {
    fn liger(&self) -> &LigerEngine {
        &self.inner
    }
}

impl InferenceEngine for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn submit(&mut self, request: Request, sim: &mut Simulation) {
        let id = request.id;
        let ((), span) = self.timed(Call::Submit, sim, |e, sim| e.submit(request, sim));
        self.record(Span { request: Some(id), ..span });
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        let ((), span) = self.timed(Call::Wake, sim, |e, sim| e.on_wake(wake, sim));
        self.record(span);
    }

    fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
        let before = alloc::snapshot().allocs;
        let start = Instant::now();
        let out = self.inner.drain_completions();
        let end = Instant::now();
        let allocs = alloc::snapshot().allocs - before;
        let origin = self.recorder.borrow().origin;
        self.record(Span {
            replica: self.replica,
            call: Call::Drain,
            request: out.first().map(|&(id, _)| id),
            start_ns: start.duration_since(origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            allocs,
        });
        out
    }

    fn on_device_loss(
        &mut self,
        dead: DeviceId,
        survivors: &[DeviceId],
        sim: &mut Simulation,
    ) -> Vec<u64> {
        let (out, span) =
            self.timed(Call::DeviceLoss, sim, |e, sim| e.on_device_loss(dead, survivors, sim));
        self.record(span);
        out
    }

    fn on_device_rejoin(
        &mut self,
        rejoined: DeviceId,
        devices: &[DeviceId],
        sim: &mut Simulation,
    ) -> Vec<u64> {
        let (out, span) = self
            .timed(Call::DeviceRejoin, sim, |e, sim| e.on_device_rejoin(rejoined, devices, sim));
        self.record(span);
        out
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        // A failed borrow can only mean a panic is already unwinding through
        // a recorder borrow; losing this engine's totals then is harmless.
        if let Ok(mut rec) = self.recorder.try_borrow_mut() {
            rec.engines.push(EngineTotals {
                rounds_planned: self.inner.rounds_planned(),
                degraded_rounds: self.inner.degraded_rounds(),
                sim: self.last_sim,
            });
        }
    }
}
