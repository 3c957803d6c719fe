//! Device membership: the one drain / recover / expand state machine every
//! request-trace and continuous-batching serve runs under.
//!
//! A [`MembershipController`] decides *when* the engine replans over a
//! changed device set and what the replan costs. It owns:
//!
//! * the [`RecoveryPhase`], the serving world and the queue of status
//!   changes confirmed while a replan is in progress;
//! * the [`HealthMonitor`] whose confirmations drive it, plus the oracle
//!   death instants kept only to measure detection latency;
//! * the drain barriers, the KV-recovery and re-expansion pricing
//!   ([`kv_recovery_plan`]) and the kernels that carry it;
//! * the recovery timeline and counters in [`ServingMetrics`].
//!
//! The serving driver it steers supplies only what differs, through
//! [`MembershipDriver`]: how its work is cancelled and requeued when the
//! engine replans, which KV the replan must rebuild, the backlog admission
//! sheds from, and how serving resumes.
//!
//! Without a watchdog ([`Recovery`] unset) nothing is ever confirmed, and
//! the controller only forwards wakes to the driver and stops the run once
//! it has served everything.
//!
//! The state machine:
//!
//! 1. **Detect** — a loss is acted on only once the watchdog *confirms* it.
//! 2. **Drain** — the engine abandons its work and replans over the
//!    survivors; barrier events behind all outstanding survivor work gate
//!    the next step, so no stale kernel overlaps the replan.
//! 3. **Recover** — the lost KV shards are rebuilt under the configured
//!    [`RecoveryPolicy`] on the survivors.
//! 4. **Degraded** — the backlog is trimmed to the admission watermark
//!    (oldest shed first) and serving resumes on the survivors.
//! 5. **Expand** — a confirmed rejoin widens the world by that device: the
//!    engine replans onto it, the device reloads its weight shard, and the
//!    live KV is migrated or recomputed there, whichever prices cheaper.
//!    Queue-depth sheds are re-admitted once it is warm, and serving
//!    resumes at full (or less degraded) width.
//!
//! Changes confirmed while a drain, recovery or expansion runs queue and
//! replay in confirmation order once it finishes. The serving world is
//! distinct from `Simulation::alive_devices`: a device whose outage window
//! closed is sim-alive while it still sits in rejoin quarantine, and joins
//! the world only on a watchdog-confirmed rejoin.

use std::collections::VecDeque;

use liger_gpu_sim::{
    DeviceId, Driver, HostId, KernelSpec, SimDuration, SimTime, Simulation, StreamId, Wake,
};
use liger_model::{kv_recovery_plan, CostModel, LayerOp, ModelConfig, RecoveryPolicy};

use crate::admission::{AdmissionController, ShedReason};
use crate::engine::RUNNER_TOKEN_BASE;
use crate::health::{HealthEvents, HealthMonitor};
use crate::metrics::ServingMetrics;
use crate::recovery::RecoveryConfig;

/// Token base handed to the health monitor (bit 63 = runner namespace,
/// bit 59 = health sub-namespace; the monitor fills the low 49 bits).
const HEALTH_BASE: u64 = RUNNER_TOKEN_BASE | (1 << 59);

/// Drain-barrier completion token (one event per survivor stream).
const DRAIN_TOKEN: u64 = RUNNER_TOKEN_BASE | (1 << 56);

/// KV-recovery completion token.
const RECOVERED_TOKEN: u64 = RUNNER_TOKEN_BASE | (1 << 55);

/// Re-expansion completion token (the rejoined device is warm and the KV
/// migrate/recompute work has drained).
const EXPANDED_TOKEN: u64 = RUNNER_TOKEN_BASE | (1 << 53);

/// Engine streams the drain barrier covers (the Liger engine launches on
/// streams 0 and 1; probes ride elsewhere).
const BARRIER_STREAMS: usize = 2;

/// Where a serving driver is in the recovery state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Serving normally; no confirmed loss outstanding.
    Normal,
    /// Loss confirmed; waiting for survivor streams to drain.
    Draining,
    /// Replanned; KV recovery work is running on the survivors.
    Recovering,
    /// Serving again on reduced capacity.
    Degraded,
    /// A quarantined device rejoined; the engine has replanned onto the
    /// wider set and the warmup + KV migrate/recompute work is running.
    Expanding,
}

impl RecoveryPhase {
    /// Stable label (timeline, tables).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPhase::Normal => "normal",
            RecoveryPhase::Draining => "draining",
            RecoveryPhase::Recovering => "recovering",
            RecoveryPhase::Degraded => "degraded",
            RecoveryPhase::Expanding => "expanding",
        }
    }
}

/// A watchdog-confirmed status change queued behind an in-progress
/// recovery or expansion, in confirmation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingChange {
    Loss(DeviceId),
    Rejoin(DeviceId),
}

/// The part of a serving driver that differs between drivers; the
/// [`MembershipController`] steering it does the rest.
pub(crate) trait MembershipDriver {
    /// Metrics the controller records the timeline and recovery counters
    /// into.
    fn metrics(&mut self) -> &mut ServingMetrics;

    /// Sets the arrival timers. Returns false when there is nothing to
    /// serve.
    fn start(&mut self, sim: &mut Simulation) -> bool;

    /// A wake the state machine does not own: arrivals, driver timers, and
    /// everything addressed to the engine. `serving` is false mid-replan.
    fn on_wake(&mut self, wake: Wake, serving: bool, sim: &mut Simulation);

    /// Collects engine completions (and, while `serving`, schedules more
    /// work). Returns true once every request is completed or shed.
    fn collect(&mut self, serving: bool, sim: &mut Simulation) -> bool;

    /// The engine must drop `dead` and replan over `survivors`: cancel the
    /// in-flight work and requeue what must run again.
    fn on_loss(&mut self, dead: DeviceId, survivors: &[DeviceId], sim: &mut Simulation);

    /// The engine must replan onto `devices`, which now include
    /// `rejoined`: cancel and requeue as on a loss.
    fn on_rejoin(&mut self, rejoined: DeviceId, devices: &[DeviceId], sim: &mut Simulation);

    /// `(batch rows, cached KV tokens)` of every sequence whose KV the
    /// replan just announced must rebuild or migrate.
    fn kv_to_price(&mut self) -> Vec<(u32, u32)>;

    /// The backlog admission sheds from when serving resumes (front =
    /// oldest).
    fn backlog(&mut self) -> &mut VecDeque<u64>;

    /// `id` was shed from the backlog: it is terminal.
    fn shed(&mut self, id: u64);

    /// Capacity is back: requeue these queue-depth sheds (in shed order).
    fn readmit(&mut self, ids: Vec<u64>);

    /// Serving resumes after a replan.
    fn resume(&mut self, sim: &mut Simulation);

    /// The devices the driver's own state is sharded over, if it tracks
    /// them; debug builds check they always equal the serving world.
    fn devices(&self) -> Option<&[DeviceId]> {
        None
    }
}

/// What the controller uses only once the watchdog confirms a loss or a
/// rejoin: the watchdog's parameters, the KV [`RecoveryPolicy`] and the
/// admission bound, and the model and cost model that price the replan.
#[derive(Clone, Copy)]
pub(crate) struct Recovery<'a> {
    pub(crate) model: &'a ModelConfig,
    pub(crate) cost: &'a CostModel,
    pub(crate) config: RecoveryConfig,
}

/// The simulation driver of every serve: health monitoring, drain-and-replan
/// on a confirmed loss, re-expansion on a confirmed rejoin, and admission
/// shedding, steering the serving driver `D`. See the module docs for the
/// state machine.
pub(crate) struct MembershipController<'a, D> {
    driver: D,
    /// Unset: no watchdog runs, so no loss or rejoin is ever confirmed.
    recovery: Option<Recovery<'a>>,
    monitor: Option<HealthMonitor>,
    phase: RecoveryPhase,
    /// The serving world: devices the engine is currently planned over.
    world: Vec<DeviceId>,
    /// World size at start; reaching it again on expansion restores
    /// [`RecoveryPhase::Normal`].
    full_world: usize,
    /// Status changes confirmed while a recovery or expansion was already
    /// in progress, replayed strictly in confirmation order. Stale losses
    /// still replay: even if a lost device has since rejoined, the engine's
    /// in-flight work died with it and must still be replanned.
    pending_changes: VecDeque<PendingChange>,
    /// Oracle death instants from [`Wake::DeviceDown`], for the
    /// detection-latency metric only.
    ground_truth: Vec<(DeviceId, SimTime)>,
    survivors: Vec<DeviceId>,
    drain_pending: usize,
    drain_started: SimTime,
    recover_started: SimTime,
    expand_started: SimTime,
}

impl<'a, D: MembershipDriver> MembershipController<'a, D> {
    /// Steers `driver`, with a watchdog and recovery when `recovery` is set.
    pub(crate) fn new(driver: D, recovery: Option<Recovery<'a>>) -> Self {
        MembershipController {
            driver,
            recovery,
            monitor: None,
            phase: RecoveryPhase::Normal,
            world: Vec::new(),
            full_world: 0,
            pending_changes: VecDeque::new(),
            ground_truth: Vec::new(),
            survivors: Vec::new(),
            drain_pending: 0,
            drain_started: SimTime::ZERO,
            recover_started: SimTime::ZERO,
            expand_started: SimTime::ZERO,
        }
    }

    /// The steered driver, with the watchdog's flap and rejoin counts
    /// folded into its metrics (complete once the simulation has stopped).
    pub(crate) fn into_driver(mut self) -> D {
        if let Some(m) = &self.monitor {
            let rec = self.driver.metrics().recovery_mut();
            rec.flaps = m.flaps();
            rec.rejoins = m.rejoins();
        }
        self.driver
    }

    /// The recovery inputs: set whenever a change can be confirmed.
    fn recovery(&self) -> Recovery<'a> {
        self.recovery.expect("a confirmed loss or rejoin needs the recovery inputs")
    }

    fn serving(&self) -> bool {
        matches!(self.phase, RecoveryPhase::Normal | RecoveryPhase::Degraded)
    }

    fn owns_health(&self, token: u64) -> bool {
        self.monitor.as_ref().is_some_and(|m| m.owns(token))
    }

    fn set_phase(&mut self, phase: RecoveryPhase, now: SimTime) {
        self.phase = phase;
        self.driver.metrics().recovery_mut().timeline.push((phase.name(), now));
    }

    fn stop(&mut self, sim: &mut Simulation) {
        if let Some(m) = &mut self.monitor {
            m.stop();
        }
        sim.request_stop();
    }

    /// A watchdog-confirmed loss: record detection latency and either start
    /// a recovery or queue the loss behind the change in progress.
    fn confirm_loss(&mut self, dead: DeviceId, sim: &mut Simulation) {
        let now = sim.now();
        let rec = self.driver.metrics().recovery_mut();
        rec.losses += 1;
        if let Some(&(_, death)) = self.ground_truth.iter().find(|&&(d, _)| d == dead) {
            rec.detection_latency = now.saturating_since(death);
        }
        if self.serving() {
            self.handle_loss(dead, sim);
        } else {
            self.pending_changes.push_back(PendingChange::Loss(dead));
        }
    }

    /// A watchdog-confirmed rejoin (the device answered probes through the
    /// full quarantine): either re-expand now or queue behind the change
    /// in progress.
    fn confirm_rejoin(&mut self, device: DeviceId, sim: &mut Simulation) {
        if self.serving() {
            self.handle_rejoin(device, sim);
        } else {
            self.pending_changes.push_back(PendingChange::Rejoin(device));
        }
    }

    /// Replays queued status changes in confirmation order until one starts
    /// a replan; changes that no longer apply are dropped on the way.
    fn pop_pending(&mut self, sim: &mut Simulation) {
        while let Some(change) = self.pending_changes.pop_front() {
            let started = match change {
                PendingChange::Loss(dead) => self.handle_loss(dead, sim),
                PendingChange::Rejoin(device) => self.handle_rejoin(device, sim),
            };
            if started {
                return;
            }
        }
    }

    /// Drain-and-replan: the engine abandons its work and replans over the
    /// survivors; barrier events behind all remaining survivor work gate the
    /// transition to KV recovery. Returns whether the drain started.
    fn handle_loss(&mut self, dead: DeviceId, sim: &mut Simulation) -> bool {
        // Only serving-world members can be lost: a device that died again
        // while quarantining holds no serving state.
        if !self.world.contains(&dead) {
            return false;
        }
        // Survivors must also be sim-alive: a world member that has died
        // again (its own loss not yet confirmed) cannot host drain-barrier
        // records — dead devices drop them, and the drain would never
        // complete. Its confirmation will run its own drain later.
        let alive = sim.alive_devices();
        let survivors: Vec<DeviceId> =
            self.world.iter().copied().filter(|&d| d != dead && alive.contains(&d)).collect();
        if survivors.is_empty() {
            // The watchdog condemned the only serving device (a false
            // positive under congestion). Shrinking onto nothing is
            // unactionable: keep serving and let the probes recover.
            return false;
        }
        let now = sim.now();
        self.set_phase(RecoveryPhase::Draining, now);
        self.drain_started = now;
        self.survivors = survivors;
        self.world.retain(|&d| d != dead);
        self.driver.on_loss(dead, &self.survivors, sim);
        // Barrier: one event per survivor engine stream, enqueued after any
        // still-running work, so every pre-loss record has fired before the
        // recovery kernels (and the resubmissions behind them) launch.
        self.drain_pending = 0;
        for &d in &self.survivors {
            for s in 0..BARRIER_STREAMS {
                let ev = sim.record_event(HostId(d.0), StreamId::new(d, s));
                sim.notify_on_event(ev, HostId(d.0), DRAIN_TOKEN);
                self.drain_pending += 1;
            }
        }
        true
    }

    /// Survivor streams are empty: price rebuilding the lost KV shards and
    /// launch the recovery work (or skip straight to degraded serving if
    /// there is nothing to rebuild).
    fn begin_recovery(&mut self, sim: &mut Simulation) {
        let now = sim.now();
        self.driver.metrics().recovery_mut().drain_time += now.saturating_since(self.drain_started);
        self.set_phase(RecoveryPhase::Recovering, now);
        self.recover_started = now;
        // KV was sharded over the pre-loss degree (survivors + the dead).
        let survivors = self.survivors.len() as u32;
        let Recovery { model, cost, config } = self.recovery();
        let mut duration = SimDuration::ZERO;
        let mut tokens = 0u64;
        for (batch, kv) in self.driver.kv_to_price() {
            let plan =
                kv_recovery_plan(model, cost, config.policy, survivors + 1, survivors, batch, kv);
            duration += plan.duration;
            tokens += plan.recompute_tokens;
        }
        self.driver.metrics().recovery_mut().recompute_tokens += tokens;
        if duration == SimDuration::ZERO {
            self.finish_recovery(sim);
            return;
        }
        let spec = match config.policy {
            RecoveryPolicy::Recompute => KernelSpec::compute("kv-recover-recompute", duration),
            RecoveryPolicy::Replicate => KernelSpec::comm("kv-recover-replicate", duration),
        };
        for &d in &self.survivors {
            sim.launch(HostId(d.0), StreamId::new(d, 0), spec.clone());
        }
        let d0 = self.survivors[0];
        let ev = sim.record_event(HostId(d0.0), StreamId::new(d0, 0));
        sim.notify_on_event(ev, HostId(d0.0), RECOVERED_TOKEN);
    }

    fn finish_recovery(&mut self, sim: &mut Simulation) {
        let now = sim.now();
        self.driver.metrics().recovery_mut().replan_time +=
            now.saturating_since(self.recover_started);
        self.enter_degraded(sim);
    }

    /// Back to serving on the survivors: shed the backlog beyond the
    /// watermark (oldest first), resume, then take on any change that was
    /// confirmed while this recovery ran.
    fn enter_degraded(&mut self, sim: &mut Simulation) {
        let now = sim.now();
        self.set_phase(RecoveryPhase::Degraded, now);
        let admission = AdmissionController::new(self.recovery().config.admission);
        let shed = admission.shed_excess(self.driver.backlog(), now);
        for s in &shed {
            self.driver.shed(s.id);
        }
        self.driver.metrics().recovery_mut().shed.extend(shed);
        self.driver.resume(sim);
        self.pop_pending(sim);
    }

    /// Re-expansion: the engine replans onto the widened set, the live KV
    /// is either migrated onto it or recomputed there (whichever the cost
    /// model prices cheaper, per sequence), and the rejoined device reloads
    /// its weight shard before anything else lands on it. Returns whether
    /// the expansion started: a duplicate confirmation is already serving,
    /// and a device that has died again is dropped — the watchdog confirms
    /// the fresh loss on its own.
    fn handle_rejoin(&mut self, rejoined: DeviceId, sim: &mut Simulation) -> bool {
        if self.world.contains(&rejoined) || !sim.alive_devices().contains(&rejoined) {
            return false;
        }
        let now = sim.now();
        self.set_phase(RecoveryPhase::Expanding, now);
        self.expand_started = now;
        // Widen by exactly the confirmed device: other sim-alive devices
        // may still be in quarantine and join only on their own rejoin.
        self.world.push(rejoined);
        self.world.sort_unstable_by_key(|d| d.0);
        // Plan only over sim-alive members: one may have died again with
        // its loss not yet confirmed, and work placed on it would vanish.
        let alive = sim.alive_devices();
        let devices: Vec<DeviceId> =
            self.world.iter().copied().filter(|d| alive.contains(d)).collect();
        let ways = devices.len() as u32;
        // Live KV sits on the narrower pre-rejoin placement; those devices
        // hold the copies a migrate would source.
        let holders = (devices.len() - 1).max(1) as u32;
        self.driver.on_rejoin(rejoined, &devices, sim);
        let Recovery { model, cost, .. } = self.recovery();
        let mut migrate = SimDuration::ZERO;
        let mut recompute = SimDuration::ZERO;
        let mut tokens = 0u64;
        for (batch, kv) in self.driver.kv_to_price() {
            let plan =
                |policy, holders| kv_recovery_plan(model, cost, policy, ways, holders, batch, kv);
            let mig = plan(RecoveryPolicy::Replicate, holders);
            let rec = plan(RecoveryPolicy::Recompute, ways);
            if rec.duration < mig.duration {
                recompute += rec.duration;
                tokens += rec.recompute_tokens;
            } else {
                migrate += mig.duration;
            }
        }
        self.driver.metrics().recovery_mut().recompute_tokens += tokens;
        let dev = HostId(rejoined.0);
        let stream = StreamId::new(rejoined, 0);
        // Warm the rejoined device first: its weight shard travels over the
        // interconnect before any KV or serving kernel may land on it.
        let warm =
            cost.op_time(&LayerOp::P2p { bytes: model.weight_bytes() / u64::from(ways.max(1)) });
        sim.launch(dev, stream, KernelSpec::comm("rejoin-warmup", warm));
        if migrate > SimDuration::ZERO {
            sim.launch(dev, stream, KernelSpec::comm("kv-expand-migrate", migrate));
        }
        if recompute > SimDuration::ZERO {
            sim.launch(dev, stream, KernelSpec::compute("kv-expand-recompute", recompute));
        }
        let ev = sim.record_event(dev, stream);
        sim.notify_on_event(ev, dev, EXPANDED_TOKEN);
        true
    }

    /// The rejoined device is warm: re-admit what was shed for queue depth
    /// (the capacity that forced it out is back; KV-exhaustion sheds stay
    /// final), return to full-capacity serving — or degraded, if other
    /// devices are still out — and take on any queued change.
    fn finish_expansion(&mut self, sim: &mut Simulation) {
        let now = sim.now();
        let rec = self.driver.metrics().recovery_mut();
        rec.replan_time += now.saturating_since(self.expand_started);
        rec.re_expansions += 1;
        let (readmitted, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut rec.shed)
            .into_iter()
            .partition(|s| s.reason == ShedReason::QueueDepth);
        rec.shed = kept;
        self.driver.readmit(readmitted.into_iter().map(|s| s.id).collect());
        let all_back = self.world.len() == self.full_world;
        self.set_phase(if all_back { RecoveryPhase::Normal } else { RecoveryPhase::Degraded }, now);
        self.driver.resume(sim);
        self.pop_pending(sim);
    }
}

impl<D: MembershipDriver> Driver for MembershipController<'_, D> {
    fn start(&mut self, sim: &mut Simulation) {
        self.world = sim.alive_devices();
        self.full_world = self.world.len();
        if let Some(r) = self.recovery {
            let mut monitor = HealthMonitor::new(r.config.health, sim.alive_devices(), HEALTH_BASE);
            monitor.start(sim);
            self.monitor = Some(monitor);
        }
        if !self.driver.start(sim) {
            self.stop(sim);
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        // The monitor inspects every wake; confirmations come back here.
        let events = match &mut self.monitor {
            Some(m) => m.on_wake(&wake, sim),
            None => HealthEvents::default(),
        };
        for dead in events.lost {
            self.confirm_loss(dead, sim);
        }
        for device in events.rejoined {
            self.confirm_rejoin(device, sim);
        }
        match wake {
            // Oracle knowledge: logged for the detection-latency metric,
            // never acted on directly.
            Wake::DeviceDown { device, at } => self.ground_truth.push((device, at)),
            Wake::Timer { token } | Wake::EventFired { token, .. } if self.owns_health(token) => {}
            Wake::EventFired { token: DRAIN_TOKEN, .. } => {
                self.drain_pending = self.drain_pending.saturating_sub(1);
                if self.drain_pending == 0 && self.phase == RecoveryPhase::Draining {
                    self.begin_recovery(sim);
                }
            }
            Wake::EventFired { token: RECOVERED_TOKEN, .. } => {
                if self.phase == RecoveryPhase::Recovering {
                    self.finish_recovery(sim);
                }
            }
            Wake::EventFired { token: EXPANDED_TOKEN, .. } => {
                if self.phase == RecoveryPhase::Expanding {
                    self.finish_expansion(sim);
                }
            }
            other => self.driver.on_wake(other, self.serving(), sim),
        }
        debug_assert!(
            self.driver.devices().is_none_or(|d| d == self.world.as_slice()),
            "the driver's devices left the serving world"
        );
        if self.driver.collect(self.serving(), sim) {
            self.stop(sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sim;
    use liger_gpu_sim::FaultSpec;

    /// A driver with no work of its own: it logs every replan the
    /// controller announces.
    #[derive(Default)]
    struct Fake {
        metrics: ServingMetrics,
        backlog: VecDeque<u64>,
        replans: Vec<String>,
    }

    impl MembershipDriver for Fake {
        fn metrics(&mut self) -> &mut ServingMetrics {
            &mut self.metrics
        }
        fn start(&mut self, _: &mut Simulation) -> bool {
            true
        }
        fn on_wake(&mut self, _: Wake, _: bool, _: &mut Simulation) {}
        fn collect(&mut self, _: bool, _: &mut Simulation) -> bool {
            false
        }
        fn on_loss(&mut self, dead: DeviceId, survivors: &[DeviceId], _: &mut Simulation) {
            self.replans.push(format!("loss {} -> {survivors:?}", dead.0));
        }
        fn on_rejoin(&mut self, rejoined: DeviceId, devices: &[DeviceId], _: &mut Simulation) {
            self.replans.push(format!("rejoin {} -> {devices:?}", rejoined.0));
        }
        fn kv_to_price(&mut self) -> Vec<(u32, u32)> {
            Vec::new()
        }
        fn backlog(&mut self) -> &mut VecDeque<u64> {
            &mut self.backlog
        }
        fn shed(&mut self, _: u64) {}
        fn readmit(&mut self, _: Vec<u64>) {}
        fn resume(&mut self, _: &mut Simulation) {}
    }

    /// Feeds watchdog confirmations to the controller at fixed instants
    /// (same-instant steps fire in order, before the state machine's own
    /// wakes at that instant). The scripted confirmations stand in for the
    /// watchdog, which is dropped once the controller has started.
    struct Script<'a> {
        controller: MembershipController<'a, Fake>,
        steps: Vec<(u64, PendingChange)>,
    }

    const STEP: u64 = 1 << 40;

    impl Driver for Script<'_> {
        fn start(&mut self, sim: &mut Simulation) {
            self.controller.start(sim);
            self.controller.monitor = None;
            for (i, &(at_us, _)) in self.steps.iter().enumerate() {
                sim.set_timer(SimTime::from_micros(at_us), STEP | i as u64);
            }
        }
        fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
            match wake {
                Wake::Timer { token } if token & STEP != 0 => {
                    match self.steps[(token & !STEP) as usize].1 {
                        PendingChange::Loss(d) => self.controller.confirm_loss(d, sim),
                        PendingChange::Rejoin(d) => self.controller.confirm_rejoin(d, sim),
                    }
                }
                other => self.controller.on_wake(other, sim),
            }
        }
    }

    struct Outcome {
        timeline: Vec<&'static str>,
        replans: Vec<String>,
        world: Vec<DeviceId>,
        losses: u64,
    }

    fn run(world: usize, faults: FaultSpec, steps: &[(u64, PendingChange)]) -> Outcome {
        let model = ModelConfig::opt_30b();
        let cost = CostModel::v100_node();
        let config = RecoveryConfig::default();
        let recovery = Recovery { model: &model, cost: &cost, config };
        let controller = MembershipController::new(Fake::default(), Some(recovery));
        let mut script = Script { controller, steps: steps.to_vec() };
        sim(world, faults).run_to_completion(&mut script);
        let Script { controller, .. } = script;
        let world = controller.world.clone();
        let fake = controller.into_driver();
        let rec = fake.metrics.recovery();
        Outcome {
            timeline: rec.timeline.iter().map(|&(l, _)| l).collect(),
            replans: fake.replans,
            world,
            losses: rec.losses,
        }
    }

    use PendingChange::{Loss, Rejoin};

    const DRAIN: [&str; 3] = ["draining", "recovering", "degraded"];

    #[test]
    fn a_loss_confirmed_during_an_expansion_replays_after_it() {
        let o = run(
            3,
            FaultSpec::none(),
            &[(10, Loss(DeviceId(2))), (100, Rejoin(DeviceId(2))), (100, Loss(DeviceId(1)))],
        );
        assert_eq!(
            o.replans,
            [
                "loss 2 -> [DeviceId(0), DeviceId(1)]",
                "rejoin 2 -> [DeviceId(0), DeviceId(1), DeviceId(2)]",
                "loss 1 -> [DeviceId(0), DeviceId(2)]",
            ]
        );
        assert_eq!(o.timeline, [&DRAIN[..], &["expanding", "normal"], &DRAIN[..]].concat());
        assert_eq!(o.world, [DeviceId(0), DeviceId(2)]);
    }

    #[test]
    fn a_queued_rejoin_whose_device_died_again_is_dropped() {
        // Device 1 answers its quarantine at 100us but dies for good at
        // 101us, while device 2's expansion is still warming up.
        let faults = FaultSpec::new(1).device_down(DeviceId(1), SimTime::from_micros(101));
        let o = run(
            3,
            faults,
            &[
                (10, Loss(DeviceId(1))),
                (20, Loss(DeviceId(2))),
                (100, Rejoin(DeviceId(2))),
                (100, Rejoin(DeviceId(1))),
            ],
        );
        assert_eq!(
            o.replans,
            [
                "loss 1 -> [DeviceId(0), DeviceId(2)]",
                "loss 2 -> [DeviceId(0)]",
                "rejoin 2 -> [DeviceId(0), DeviceId(2)]",
            ]
        );
        assert_eq!(o.timeline, [&DRAIN[..], &DRAIN[..], &["expanding", "degraded"]].concat());
        assert_eq!(o.world, [DeviceId(0), DeviceId(2)]);
    }

    #[test]
    fn a_duplicate_rejoin_confirmation_is_ignored() {
        // The queued duplicate is skipped and the loss behind it replays;
        // a duplicate confirmed while serving changes nothing either.
        let o = run(
            3,
            FaultSpec::none(),
            &[
                (10, Loss(DeviceId(2))),
                (100, Rejoin(DeviceId(2))),
                (100, Rejoin(DeviceId(2))),
                (100, Loss(DeviceId(1))),
                (900_000, Rejoin(DeviceId(2))),
            ],
        );
        assert_eq!(
            o.replans,
            [
                "loss 2 -> [DeviceId(0), DeviceId(1)]",
                "rejoin 2 -> [DeviceId(0), DeviceId(1), DeviceId(2)]",
                "loss 1 -> [DeviceId(0), DeviceId(2)]",
            ]
        );
        assert_eq!(o.timeline, [&DRAIN[..], &["expanding", "normal"], &DRAIN[..]].concat());
    }

    #[test]
    fn a_loss_outside_the_world_or_of_its_only_member_is_ignored() {
        let o = run(
            2,
            FaultSpec::none(),
            &[(10, Loss(DeviceId(1))), (20, Loss(DeviceId(1))), (30, Loss(DeviceId(0)))],
        );
        assert_eq!(o.replans, ["loss 1 -> [DeviceId(0)]"]);
        assert_eq!(o.timeline, DRAIN);
        assert_eq!(o.world, [DeviceId(0)]);
        assert_eq!(o.losses, 3, "every confirmation is counted");
    }
}
