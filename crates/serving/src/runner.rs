//! The request driver: feeds a request trace into an engine running on the
//! simulator and collects metrics. [`serve`], [`serve_with_policy`] and
//! [`serve_with_recovery`](crate::recovery::serve_with_recovery) all run it
//! under the crate's membership controller.

use std::collections::VecDeque;

use liger_gpu_sim::{CoreSelect, DeviceId, SimDuration, SimTime, Simulation, Wake};

use crate::engine::{InferenceEngine, RUNNER_TOKEN_BASE};
use crate::membership::{MembershipController, MembershipDriver, Recovery};
use crate::metrics::ServingMetrics;
use crate::request::{Completion, Request};

/// Timer-token marker (within the runner's bit-63 namespace) for retry
/// resubmissions of requests whose kernels failed.
const RETRY_BIT: u64 = 1 << 61;

/// Timer-token marker for per-request timeout accounting.
const TIMEOUT_BIT: u64 = 1 << 60;

/// Degraded-mode reaction policy: per-request timeout accounting plus
/// bounded exponential-backoff retries of requests whose kernels were killed
/// by the fault schedule.
///
/// A failed attempt is *not* cancelled mid-flight — the simulator drains it
/// like a successful kernel (preserving stream FIFO order) — so the retry is
/// scheduled once the tainted attempt completes, after a backoff delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// End-to-end latency past which a request counts as timed out. Purely
    /// observational: the attempt keeps running (cancelling work mid-kernel
    /// has no real-hardware analogue on CUDA streams).
    pub timeout: SimDuration,
    /// Maximum retries per request; a request whose budget is exhausted
    /// completes with its last (tainted) attempt rather than being dropped.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub backoff: SimDuration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(500),
            max_retries: 3,
            backoff: SimDuration::from_micros(100),
            backoff_cap: SimDuration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based):
    /// `backoff * 2^attempt`, capped at `backoff_cap`.
    pub fn delay(&self, attempt: u32) -> SimDuration {
        let scaled = self.backoff.as_nanos().saturating_mul(1u64 << attempt.min(20));
        SimDuration::from_nanos(scaled.min(self.backoff_cap.as_nanos()))
    }
}

/// Per-request state.
#[derive(Debug, Clone, Copy, Default)]
struct RequestState {
    /// Retries consumed so far.
    attempts: u32,
    /// A kernel of the current attempt failed; retry on completion.
    tainted: bool,
    /// Completed or shed; late wakes and completions are ignored.
    done: bool,
}

/// The request driver: submits arrivals, retries failed attempts under a
/// [`RetryPolicy`], and, steered by a [`MembershipController`], defers
/// arrivals mid-replan and requeues what the engine abandons.
pub(crate) struct RequestDriver<'a, E: InferenceEngine + ?Sized> {
    engine: &'a mut E,
    requests: Vec<Request>,
    metrics: ServingMetrics,
    /// Requests neither completed nor shed.
    outstanding: usize,
    retry: Option<RetryPolicy>,
    /// Indexed by request id.
    states: Vec<RequestState>,
    /// Arrivals deferred during a replan plus cancelled in-flight requests,
    /// in arrival order (front = oldest).
    deferred: VecDeque<u64>,
    /// Cancelled in-flight ids whose KV the replan must rebuild.
    lost: Vec<u64>,
    /// Completions drained from the engine, emptied by every collect.
    drained: Vec<(u64, SimTime)>,
}

impl<E: InferenceEngine + ?Sized> RequestDriver<'_, E> {
    /// Requeues the requests a replan abandoned ahead of every deferred
    /// arrival (they are older) and keeps them for KV pricing.
    fn requeue(&mut self, mut cancelled: Vec<u64>) {
        cancelled.sort_unstable();
        cancelled.retain(|&id| !self.states[id as usize].done);
        for &id in cancelled.iter().rev() {
            self.deferred.push_front(id);
        }
        self.lost = cancelled;
    }
}

impl<E: InferenceEngine + ?Sized> MembershipDriver for RequestDriver<'_, E> {
    fn metrics(&mut self) -> &mut ServingMetrics {
        &mut self.metrics
    }

    fn start(&mut self, sim: &mut Simulation) -> bool {
        assert!(
            // Ids must stay clear of the retry, timeout and controller
            // marker bits.
            self.requests.len() < (1u64 << 55) as usize,
            "request count overflows the runner token namespace"
        );
        let Some(first) = self.requests.first() else { return false };
        for (i, r) in self.requests.iter().enumerate() {
            debug_assert_eq!(r.id as usize, i, "request ids must be dense arrival indices");
            debug_assert!(
                i == 0 || self.requests[i - 1].arrival <= r.arrival,
                "requests must be sorted by arrival"
            );
        }
        // Arrival timers are chained: only the next pending arrival has a
        // timer in flight, so the event heap holds O(in-flight batch) timer
        // entries instead of one per trace request up front.
        sim.set_timer(first.arrival, RUNNER_TOKEN_BASE);
        true
    }

    fn on_wake(&mut self, wake: Wake, serving: bool, sim: &mut Simulation) {
        match wake {
            Wake::Timer { token } if token & RUNNER_TOKEN_BASE != 0 => {
                let id = (token & !(RUNNER_TOKEN_BASE | RETRY_BIT | TIMEOUT_BIT)) as usize;
                let request = self.requests[id];
                if self.states[id].done {
                    // A late retry or timeout of a finished request.
                } else if token & TIMEOUT_BIT != 0 {
                    self.metrics.faults_mut().timeouts += 1;
                } else {
                    // A first submission, not a retry: chain the next
                    // arrival and arm this one's timeout.
                    let fresh = token & RETRY_BIT == 0;
                    if let Some(next) = self.requests.get(id + 1).filter(|_| fresh) {
                        // `set_timer` clamps past deadlines to `now`, so a
                        // burst of simultaneous arrivals still drains one
                        // per wake.
                        sim.set_timer(next.arrival, RUNNER_TOKEN_BASE | next.id);
                    }
                    if serving {
                        self.engine.submit(request, sim);
                    } else {
                        // Mid-replan arrivals and retries wait it out.
                        self.deferred.push_back(request.id);
                    }
                    if let Some(policy) = self.retry.filter(|_| fresh) {
                        let deadline = request.arrival + policy.timeout;
                        sim.set_timer(deadline, RUNNER_TOKEN_BASE | TIMEOUT_BIT | request.id);
                    }
                }
            }
            Wake::KernelFailed { tag, .. } => {
                if self.retry.is_some() {
                    self.metrics.faults_mut().kernel_failures += 1;
                    if let Some(s) = self.states.get_mut(tag as usize) {
                        if !s.done {
                            s.tainted = true;
                        }
                    }
                }
                // Engines may track failures too (all current ones ignore).
                self.engine.on_wake(wake, sim);
            }
            other => self.engine.on_wake(other, sim),
        }
    }

    fn collect(&mut self, _serving: bool, sim: &mut Simulation) -> bool {
        let mut drained = std::mem::take(&mut self.drained);
        self.engine.drain_completions_into(&mut drained);
        for (id, finished) in drained.drain(..) {
            let idx = id as usize;
            let s = &mut self.states[idx];
            if s.done {
                continue;
            }
            // A tainted attempt finished: resubmit after backoff instead of
            // recording, while the retry budget lasts.
            if let Some(policy) = self.retry {
                if s.tainted && s.attempts < policy.max_retries {
                    s.tainted = false;
                    let delay = policy.delay(s.attempts);
                    s.attempts += 1;
                    self.metrics.faults_mut().retries += 1;
                    sim.set_timer(sim.now() + delay, RUNNER_TOKEN_BASE | RETRY_BIT | id);
                    continue;
                }
            }
            s.done = true;
            let arrival = self.requests[idx].arrival;
            self.metrics.record(Completion { id, arrival, finished });
            self.outstanding = self.outstanding.saturating_sub(1);
        }
        self.drained = drained;
        self.outstanding == 0
    }

    fn on_loss(&mut self, dead: DeviceId, survivors: &[DeviceId], sim: &mut Simulation) {
        let cancelled = self.engine.on_device_loss(dead, survivors, sim);
        self.requeue(cancelled);
    }

    fn on_rejoin(&mut self, rejoined: DeviceId, devices: &[DeviceId], sim: &mut Simulation) {
        let cancelled = self.engine.on_device_rejoin(rejoined, devices, sim);
        self.requeue(cancelled);
    }

    fn kv_to_price(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.lost)
            .into_iter()
            .map(|id| {
                let shape = self.requests[id as usize].shape;
                (shape.batch, shape.phase.kv_len())
            })
            .collect()
    }

    fn backlog(&mut self) -> &mut VecDeque<u64> {
        &mut self.deferred
    }

    fn shed(&mut self, id: u64) {
        let s = &mut self.states[id as usize];
        if !s.done {
            s.done = true;
            self.outstanding = self.outstanding.saturating_sub(1);
        }
    }

    fn readmit(&mut self, ids: Vec<u64>) {
        for id in ids {
            self.states[id as usize].done = false;
            self.outstanding += 1;
            self.deferred.push_back(id);
        }
        // Re-admitted sheds are older than deferred arrivals; restore
        // arrival order before resubmitting.
        let mut backlog: Vec<u64> = std::mem::take(&mut self.deferred).into();
        backlog.sort_unstable();
        backlog.dedup();
        self.deferred = backlog.into();
    }

    fn resume(&mut self, sim: &mut Simulation) {
        while let Some(id) = self.deferred.pop_front() {
            if !self.states[id as usize].done {
                self.engine.submit(self.requests[id as usize], sim);
            }
        }
    }
}

/// Serves `requests` (dense ids, sorted by arrival) with `engine` on `sim`,
/// retrying under `retry` and recovering from confirmed losses and rejoins
/// under `recovery`.
pub(crate) fn drive<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
    retry: Option<RetryPolicy>,
    recovery: Option<Recovery<'_>>,
) -> ServingMetrics {
    let driver = RequestDriver {
        engine,
        outstanding: requests.len(),
        states: vec![RequestState::default(); requests.len()],
        requests,
        metrics: ServingMetrics::new(),
        retry,
        deferred: VecDeque::new(),
        lost: Vec::new(),
        drained: Vec::new(),
    };
    let mut controller = MembershipController::new(driver, recovery);
    sim.run_to_completion(&mut controller);
    controller.into_driver().metrics
}

/// Serves `requests` with `engine` on `sim`; returns the metrics.
pub fn serve<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
) -> ServingMetrics {
    drive(sim, engine, requests, None, None)
}

/// [`serve`]. Kept only because the repository benchmark (`perfbench/`)
/// calls it with [`CoreSelect::Seq`]; new code should call [`serve`].
pub fn serve_on<E: InferenceEngine + ?Sized>(
    _core: CoreSelect,
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
) -> ServingMetrics {
    serve(sim, engine, requests)
}

/// [`serve`] with a [`RetryPolicy`]: requests whose kernels fail are retried
/// with exponential backoff, and timeout/retry/failure counts land in the
/// returned metrics' [`faults`](ServingMetrics::faults).
pub fn serve_with_policy<E: InferenceEngine + ?Sized>(
    sim: &mut Simulation,
    engine: &mut E,
    requests: Vec<Request>,
    policy: RetryPolicy,
) -> ServingMetrics {
    drive(sim, engine, requests, Some(policy), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::{
        DeviceId, DeviceSpec, EventId, HostId, HostSpec, KernelSpec, SimDuration, SimTime, StreamId,
    };
    use liger_model::BatchShape;

    /// A trivial engine: each request is one 10us kernel on device 0.
    struct OneKernelEngine {
        pending: Vec<(EventId, u64)>,
        done: Vec<(u64, SimTime)>,
    }

    impl OneKernelEngine {
        fn new() -> Self {
            OneKernelEngine { pending: Vec::new(), done: Vec::new() }
        }
    }

    impl InferenceEngine for OneKernelEngine {
        fn name(&self) -> &'static str {
            "one-kernel"
        }
        fn submit(&mut self, request: Request, sim: &mut Simulation) {
            let stream = StreamId::new(DeviceId(0), 0);
            sim.launch(
                HostId(0),
                stream,
                KernelSpec::compute("job", SimDuration::from_micros(10)).with_tag(request.id),
            );
            let ev = sim.record_event(HostId(0), stream);
            sim.notify_on_event(ev, HostId(0), request.id);
            self.pending.push((ev, request.id));
        }
        fn on_wake(&mut self, wake: Wake, _: &mut Simulation) {
            if let Wake::EventFired { token, fired_at, .. } = wake {
                self.done.push((token, fired_at));
            }
        }
        fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
            std::mem::take(&mut self.done)
        }
    }

    fn sim() -> Simulation {
        Simulation::builder()
            .device(DeviceSpec::test_device())
            .host(HostSpec::instant())
            .build()
            .unwrap()
    }

    fn trace(n: usize, gap_us: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::new(
                    i as u64,
                    BatchShape::prefill(1, 16),
                    SimTime::from_micros(gap_us * i as u64),
                )
            })
            .collect()
    }

    #[test]
    fn all_requests_complete() {
        let mut engine = OneKernelEngine::new();
        let metrics = serve(&mut sim(), &mut engine, trace(20, 100));
        assert_eq!(metrics.completed(), 20);
    }

    #[test]
    fn latency_at_low_rate_equals_service_time() {
        let mut engine = OneKernelEngine::new();
        // 100us gaps >> 10us service: no queueing.
        let metrics = serve(&mut sim(), &mut engine, trace(10, 100));
        assert_eq!(metrics.avg_latency(), SimDuration::from_micros(10));
        assert_eq!(metrics.max_latency(), SimDuration::from_micros(10));
    }

    #[test]
    fn overload_builds_queueing_delay() {
        let mut engine = OneKernelEngine::new();
        // 5us gaps < 10us service: the queue grows linearly.
        let metrics = serve(&mut sim(), &mut engine, trace(50, 5));
        assert!(metrics.avg_latency() > SimDuration::from_micros(50));
        // Throughput saturates at the service rate (1 / 10us = 100k/s).
        let thr = metrics.throughput();
        assert!((thr - 100_000.0).abs() / 100_000.0 < 0.05, "throughput {thr}");
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let mut engine = OneKernelEngine::new();
        let metrics = serve(&mut sim(), &mut engine, Vec::new());
        assert_eq!(metrics.completed(), 0);
    }

    #[test]
    fn completions_map_back_to_arrivals() {
        let mut engine = OneKernelEngine::new();
        let reqs = trace(5, 50);
        let metrics = serve(&mut sim(), &mut engine, reqs.clone());
        for c in metrics.completions() {
            assert_eq!(c.arrival, reqs[c.id as usize].arrival);
            assert!(c.finished > c.arrival);
        }
    }

    use liger_gpu_sim::{FaultSpec, KernelFaultParams};

    fn faulty_sim(faults: FaultSpec) -> Simulation {
        Simulation::builder()
            .device(DeviceSpec::test_device())
            .host(HostSpec::instant())
            .faults(faults)
            .build()
            .unwrap()
    }

    fn policy() -> RetryPolicy {
        RetryPolicy {
            timeout: SimDuration::from_micros(100),
            max_retries: 3,
            backoff: SimDuration::from_micros(1),
            backoff_cap: SimDuration::from_micros(8),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = policy();
        assert_eq!(p.delay(0), SimDuration::from_micros(1));
        assert_eq!(p.delay(1), SimDuration::from_micros(2));
        assert_eq!(p.delay(2), SimDuration::from_micros(4));
        assert_eq!(p.delay(3), SimDuration::from_micros(8));
        assert_eq!(p.delay(10), SimDuration::from_micros(8), "capped");
    }

    #[test]
    fn failed_request_is_retried_and_completes() {
        // Kernels beginning inside [0, 1us) die at half runtime; the lone
        // request's first attempt (launched at t=0) fails at 5us, the retry
        // (1us backoff => begins at 6us) runs clean and completes at 16us.
        let faults = FaultSpec::new(3).kernel_failures(KernelFaultParams {
            prob: 1.0,
            fraction: 0.5,
            from: SimTime::ZERO,
            until: SimTime::from_micros(1),
        });
        let mut engine = OneKernelEngine::new();
        let metrics =
            serve_with_policy(&mut faulty_sim(faults), &mut engine, trace(1, 0), policy());
        assert_eq!(metrics.completed(), 1, "no lost requests");
        assert_eq!(metrics.faults().kernel_failures, 1);
        assert_eq!(metrics.faults().retries, 1);
        assert_eq!(metrics.faults().timeouts, 0);
        assert_eq!(metrics.completions()[0].latency(), SimDuration::from_micros(16));
    }

    #[test]
    fn retry_budget_bounds_resubmissions() {
        // Failures forever: the request burns its full retry budget and then
        // completes tainted instead of being dropped or retried unboundedly.
        let faults = FaultSpec::new(3).kernel_failures(KernelFaultParams {
            prob: 1.0,
            fraction: 0.5,
            from: SimTime::ZERO,
            until: SimTime::MAX,
        });
        let mut engine = OneKernelEngine::new();
        let metrics =
            serve_with_policy(&mut faulty_sim(faults), &mut engine, trace(1, 0), policy());
        assert_eq!(metrics.completed(), 1, "exhausted budget still completes the request");
        assert_eq!(metrics.faults().retries, 3);
        assert_eq!(metrics.faults().kernel_failures, 4, "initial attempt + three retries");
    }

    #[test]
    fn timeouts_are_counted_without_cancelling() {
        let p = RetryPolicy { timeout: SimDuration::from_micros(5), ..policy() };
        let mut engine = OneKernelEngine::new();
        // Healthy sim: 10us service > 5us timeout for every request.
        let metrics = serve_with_policy(&mut sim(), &mut engine, trace(3, 100), p);
        assert_eq!(metrics.completed(), 3, "timeout is accounting, not cancellation");
        assert_eq!(metrics.faults().timeouts, 3);
        assert_eq!(metrics.faults().retries, 0);
    }

    #[test]
    fn healthy_runs_keep_fault_counters_zero() {
        let mut engine = OneKernelEngine::new();
        let metrics = serve_with_policy(&mut sim(), &mut engine, trace(5, 100), policy());
        assert_eq!(metrics.completed(), 5);
        assert_eq!(*metrics.faults(), crate::metrics::FaultCounters::default());
    }
}
