//! The Liger runtime engine (§3).
//!
//! Implements interleaved parallelism on the simulated multi-GPU node: the
//! engine keeps a waiting queue and a fixed-size processing list of
//! assembled `FuncVec`s (§3.3), repeatedly plans scheduling rounds with
//! [`plan_round_into`] (Algorithm 1 + contention anticipation + runtime
//! decomposition, into one reused [`RoundPlan`]) and launches each round's two subsets through the shared
//! launch sequence (the crate-private `launch` module, which the verifier's
//! [`LaunchProgram`](crate::LaunchProgram) records too) onto two streams of
//! every device:
//!
//! * **stream 0** carries primary subsets (the earliest batch's runs),
//! * **stream 1** carries secondary subsets (opposite-class kernels from
//!   subsequent batches).
//!
//! With `CUDA_DEVICE_MAX_CONNECTIONS = 2` each stream owns a hardware
//! queue, so the two subsets execute concurrently and the interleaving is
//! exactly the paper's Fig. 6 timeline. Round-to-round coordination follows
//! the configured [`SyncMode`].

use std::collections::VecDeque;

use liger_collectives::{NcclConfig, Topology};
use liger_gpu_sim::{DeviceId, EventId, HostId, KernelClass, SimTime, Simulation, StreamId, Wake};
use liger_model::{CostModel, ModelConfig};
use liger_parallelism::launch::{
    batch_working_set_bytes, compute_spec, launch_collective, EngineMemory,
};
use liger_parallelism::{check_divisibility, check_divisibility_relaxed};
use liger_serving::{InferenceEngine, Request};

use crate::config::{LigerConfig, SyncMode};
use crate::funcvec::FuncVec;
use crate::launch::{LaunchTarget, Launcher, Notify};
use crate::scheduler::{plan_round_into, LaunchItem, PlanParams, RoundPlan};

/// Wake tokens with this bit set are engine control-flow (round events);
/// tokens without it are batch completion notifications. The serving
/// runner's namespace uses bit 63, so bit 62 is free for the engine.
const CONTROL: u64 = 1 << 62;

/// Control-token sub-kinds (bits 56..58 within the CONTROL namespace).
const KIND_SHIFT: u64 = 56;
const KIND_MASK: u64 = 0b11 << KIND_SHIFT;
const KIND_E1: u64 = 0;
const KIND_PRI_END: u64 = 1 << KIND_SHIFT;
const KIND_SEC_END: u64 = 2 << KIND_SHIFT;

fn control_token(kind: u64, round: u64) -> u64 {
    debug_assert!(round < 1 << 56);
    CONTROL | kind | round
}

/// Batch-completion tokens carry the engine's replan epoch in bits 48..62
/// (the batch id sits below). A device loss bumps the epoch, so completion
/// records queued before the loss — which may still fire on survivors while
/// the abandoned batches are being resubmitted — are recognizably stale and
/// dropped instead of completing the wrong attempt.
const EPOCH_SHIFT: u64 = 48;
const BATCH_MASK: u64 = (1 << EPOCH_SHIFT) - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing scheduled; next submit starts a round immediately.
    Idle,
    /// Hybrid mode: a round is in flight, its E1 callback pending.
    Hybrid,
    /// CPU–GPU mode: blocking syncs outstanding for the current round.
    CpuGpuWait { remaining: u32 },
    /// Inter-stream mode: everything launched; completions outstanding.
    Flood { outstanding: u32 },
}

/// The Liger serving engine.
pub struct LigerEngine {
    cfg: ModelConfig,
    cost: CostModel,
    config: LigerConfig,
    devices: Vec<DeviceId>,
    nccl: NcclConfig,
    waiting: VecDeque<FuncVec>,
    processing: VecDeque<FuncVec>,
    /// Round counter, E2 gate and per-batch stream state of the launch
    /// sequence.
    launcher: Launcher,
    /// The round being launched, refilled by every plan so that steady-state
    /// rounds reuse its buffers instead of allocating.
    plan: RoundPlan,
    phase: Phase,
    completed: Vec<(u64, SimTime)>,
    /// Rounds planned so far (exposed for tests/diagnostics).
    rounds_planned: u64,
    /// Live contention factor (may drift from the configured one when
    /// adaptation is enabled).
    factor: f64,
    /// Per-round (primary end, secondary end) observations for adaptation,
    /// keyed by round number; windows in nanoseconds.
    observations: liger_gpu_sim::DetHashMap<u64, RoundObs>,
    /// Count of adaptation decisions taken (diagnostics).
    adaptations: u64,
    /// Rounds planned while a straggler fault window was active (the plan
    /// shrank the left-over budget accordingly).
    degraded_rounds: u64,
    /// Replan epoch: bumped on every device loss or rejoin (see
    /// [`EPOCH_SHIFT`]).
    epoch: u64,
    /// Batches whose final kernel is scheduled and whose completion record
    /// has not fired yet. `update_list` purges fully-scheduled batches from
    /// `processing` before the record lands, so a replan in that window
    /// must report these as cancelled too — the epoch bump silently drops
    /// their stale records, and a batch reported neither completed nor
    /// cancelled would leak in the serving layer forever.
    completion_pending: Vec<u64>,
    memory: EngineMemory,
    /// Device count the engine was built with (pristine ring size).
    full_world: usize,
    /// Topology before any loss, for rebuilding rings after a rejoin.
    healthy_topology: Topology,
}

#[derive(Debug, Clone, Copy, Default)]
struct RoundObs {
    window_ns: u64,
    primary_end: Option<SimTime>,
    secondary_end: Option<SimTime>,
}

impl LigerEngine {
    /// Creates the engine over devices `0..world` with the given config.
    pub fn new(
        cfg: ModelConfig,
        cost: CostModel,
        world: usize,
        config: LigerConfig,
    ) -> Result<LigerEngine, String> {
        LigerEngine::new_on(cfg, cost, (0..world).map(DeviceId).collect(), config)
    }

    /// Creates the engine over an explicit device set — the cluster tier's
    /// disaggregated mode runs several engines side by side in one
    /// simulation, each owning one node's devices. The devices need not
    /// start at 0 but must all exist in the simulation the engine runs on.
    pub fn new_on(
        cfg: ModelConfig,
        cost: CostModel,
        devices: Vec<DeviceId>,
        config: LigerConfig,
    ) -> Result<LigerEngine, String> {
        let world = devices.len();
        if world == 0 {
            return Err("engine needs at least one device".into());
        }
        check_divisibility(&cfg, world as u32)?;
        config.validate()?;
        let nccl = cost.nccl;
        let healthy_topology = cost.topology.clone();
        Ok(LigerEngine {
            cfg,
            cost,
            config,
            devices,
            nccl,
            waiting: VecDeque::new(),
            processing: VecDeque::new(),
            launcher: Launcher::default(),
            plan: RoundPlan::default(),
            phase: Phase::Idle,
            completed: Vec::new(),
            rounds_planned: 0,
            factor: config.contention_factor,
            observations: liger_gpu_sim::DetHashMap::default(),
            adaptations: 0,
            degraded_rounds: 0,
            epoch: 0,
            completion_pending: Vec::new(),
            memory: EngineMemory::new(),
            full_world: world,
            healthy_topology,
        })
    }

    /// Tensor-parallel degree / device count.
    pub fn world(&self) -> usize {
        self.devices.len()
    }

    /// The devices the engine currently runs on.
    pub fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// Number of scheduling rounds planned so far.
    pub fn rounds_planned(&self) -> u64 {
        self.rounds_planned
    }

    /// The active configuration.
    pub fn config(&self) -> &LigerConfig {
        &self.config
    }

    /// The contention factor currently in effect (drifts from the
    /// configured value when adaptation is on).
    pub fn current_factor(&self) -> f64 {
        self.factor
    }

    /// Number of rounds planned while a device was degraded by a fault.
    pub fn degraded_rounds(&self) -> u64 {
        self.degraded_rounds
    }

    /// Planning parameters for the next round, always read against the live
    /// simulation: the straggler factor comes off the fault schedule, so a
    /// degraded device shrinks this round's left-over kernel budget (§3.4's
    /// window invariant survives the slowdown). There is deliberately no
    /// fault-blind variant — every planning site must see the same world.
    fn params(&self, sim: &Simulation) -> PlanParams {
        PlanParams {
            contention_factor: self.factor,
            division_factor: self.config.division_factor,
            enable_decomposition: self.config.enable_decomposition,
            straggler_factor: sim.worst_fault_factor(),
        }
    }

    /// Feeds one round's (primary end, secondary end) pair into the online
    /// factor adaptation: overruns push the factor up multiplicatively;
    /// a clean round relaxes it slowly toward 1.0.
    fn adapt_factor(&mut self, obs: RoundObs) {
        let (Some(pri), Some(sec)) = (obs.primary_end, obs.secondary_end) else { return };
        if obs.window_ns == 0 {
            return;
        }
        let overrun = sec.saturating_since(pri).as_nanos() as f64 / obs.window_ns as f64;
        self.adaptations += 1;
        if overrun > 0.01 {
            self.factor = (self.factor * (1.0 + overrun.min(0.5))).min(2.0);
        } else {
            self.factor = (self.factor * 0.998).max(1.0);
        }
    }

    fn record_observation(&mut self, round: u64, kind: u64, at: SimTime) {
        let obs = self.observations.entry(round).or_default();
        match kind {
            KIND_PRI_END => obs.primary_end = Some(at),
            KIND_SEC_END => obs.secondary_end = Some(at),
            _ => unreachable!("not an observation kind"),
        }
        if obs.primary_end.is_some() && obs.secondary_end.is_some() {
            let obs = self
                .observations
                .remove(&round)
                .expect("observation entry exists: it was populated just above");
            self.adapt_factor(obs);
        }
    }

    /// Purges fully scheduled batches and admits waiting batches up to the
    /// processing-list capacity (§3.3's update_list()). Working sets are
    /// allocated at admission — the processing list, not the waiting queue,
    /// is what occupies device memory.
    ///
    /// A batch whose working set does not fit beside the batches in flight
    /// stays waiting until one of them completes (inter-stream mode would
    /// otherwise admit the whole backlog at once). With nothing in flight it
    /// can never fit, and admission reports the deployment error.
    fn update_list(&mut self, sim: &mut Simulation) {
        self.processing.retain(|v| !v.is_empty());
        while self.processing.len() < self.config.processing_slots {
            let Some(shape) = self.waiting.front().map(|v| v.shape) else { break };
            let bytes = batch_working_set_bytes(&self.cfg, shape, self.devices.len() as u32);
            if self.memory.has_batches() && !self.devices.iter().all(|&d| sim.memory_fits(d, bytes))
            {
                break;
            }
            let v = self.waiting.pop_front().expect("the front batch was just read");
            self.memory.batch_submitted(sim, &self.devices, v.batch_id, bytes);
            self.processing.push_back(v);
        }
    }

    /// Starts scheduling from idle in the configured sync mode.
    fn start(&mut self, sim: &mut Simulation) {
        match self.config.sync_mode {
            SyncMode::InterStream => self.flood(sim),
            _ => {
                self.advance(sim);
            }
        }
    }

    /// Plans and launches the next round; returns false when idle.
    fn advance(&mut self, sim: &mut Simulation) -> bool {
        self.update_list(sim);
        let params = self.params(sim);
        if !plan_round_into(&mut self.processing, &params, &self.cost, &mut self.plan) {
            self.phase = Phase::Idle;
            return false;
        }
        self.rounds_planned += 1;
        if params.straggler_factor > 1.0 {
            self.degraded_rounds += 1;
        }
        self.launch(sim);
        self.phase = match self.config.sync_mode {
            SyncMode::Hybrid => Phase::Hybrid,
            // The round ends with one host sync per device and stream.
            SyncMode::CpuGpu => Phase::CpuGpuWait { remaining: 2 * self.devices.len() as u32 },
            SyncMode::InterStream => unreachable!("flood mode plans in flood()"),
        };
        true
    }

    /// Inter-stream mode: plan and launch every possible round up front.
    fn flood(&mut self, sim: &mut Simulation) {
        let mut outstanding = 0u32;
        loop {
            self.update_list(sim);
            let params = self.params(sim);
            if !plan_round_into(&mut self.processing, &params, &self.cost, &mut self.plan) {
                break;
            }
            self.rounds_planned += 1;
            if params.straggler_factor > 1.0 {
                self.degraded_rounds += 1;
            }
            outstanding += self.launch(sim);
        }
        self.phase = if outstanding > 0 { Phase::Flood { outstanding } } else { Phase::Idle };
    }

    /// Launches the planned round through the shared launch sequence;
    /// returns the number of batch-completion notifications registered.
    fn launch(&mut self, sim: &mut Simulation) -> u32 {
        let mut target = SimTarget {
            sim,
            nccl: &self.nccl,
            epoch: self.epoch,
            adaptive: self.config.adaptive_factor,
            completion_pending: &mut self.completion_pending,
            observations: &mut self.observations,
        };
        self.launcher.launch_round(&mut target, &self.devices, &self.plan, self.config.sync_mode)
    }

    /// Abandons every queued and in-flight batch for a replan and returns
    /// their ids; the caller resubmits them. Outstanding completion records
    /// (on survivors) go stale behind the epoch bump, and weights and
    /// working sets are re-allocated over the new placement at the next
    /// submit.
    fn abandon_all(&mut self, sim: &mut Simulation) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .processing
            .iter()
            .chain(self.waiting.iter())
            .map(|v| v.batch_id)
            .chain(self.completion_pending.drain(..))
            .collect();
        ids.sort_unstable();
        // A notified batch can still sit in `processing` until the next
        // purge, so the two sources may overlap.
        ids.dedup();
        self.processing.clear();
        self.waiting.clear();
        self.launcher.reset();
        self.observations.clear();
        self.phase = Phase::Idle;
        self.epoch += 1;
        self.memory.release_all(sim);
        ids
    }
}

/// The engine's launch target: issues the launch sequence into the
/// simulator and keeps the host-side bookkeeping its notifications imply.
struct SimTarget<'a> {
    sim: &'a mut Simulation,
    nccl: &'a NcclConfig,
    epoch: u64,
    adaptive: bool,
    completion_pending: &'a mut Vec<u64>,
    observations: &'a mut liger_gpu_sim::DetHashMap<u64, RoundObs>,
}

impl LaunchTarget for SimTarget<'_> {
    fn record(&mut self, device: DeviceId, stream: usize) -> EventId {
        self.sim.record_event(HostId(device.0), StreamId::new(device, stream))
    }

    fn wait(&mut self, device: DeviceId, stream: usize, event: EventId) {
        self.sim.stream_wait(HostId(device.0), StreamId::new(device, stream), event);
    }

    fn launch(&mut self, devices: &[DeviceId], item: &LaunchItem, stream: usize) {
        match item.op.class() {
            KernelClass::Compute => {
                for &d in devices {
                    let spec = compute_spec(&item.op, item.batch);
                    self.sim.launch(HostId(d.0), StreamId::new(d, stream), spec);
                }
            }
            KernelClass::Comm => {
                launch_collective(self.sim, &item.op, devices, stream, self.nccl, item.batch);
            }
        }
    }

    fn notify(&mut self, device: DeviceId, event: EventId, note: Notify) {
        let host = HostId(device.0);
        match note {
            Notify::E1 { round } => {
                self.sim.notify_on_event(event, host, control_token(KIND_E1, round));
            }
            Notify::BatchDone { batch } => {
                debug_assert!(batch <= BATCH_MASK, "batch id overflows the epoch-tagged token");
                debug_assert!(self.epoch < 1 << (62 - EPOCH_SHIFT), "epoch overflows its bits");
                self.sim.notify_on_event(event, host, (self.epoch << EPOCH_SHIFT) | batch);
                self.completion_pending.push(batch);
            }
            // The two window ends feed factor adaptation.
            Notify::PrimaryEnd { round, window } if self.adaptive => {
                self.sim.notify_on_event(event, host, control_token(KIND_PRI_END, round));
                self.observations.entry(round).or_default().window_ns = window.as_nanos();
            }
            Notify::SecondaryEnd { round } if self.adaptive => {
                self.sim.notify_on_event(event, host, control_token(KIND_SEC_END, round));
            }
            Notify::PrimaryEnd { .. } | Notify::SecondaryEnd { .. } => {}
            // Tagged with the round the sync releases.
            Notify::RoundSync { round } => {
                self.sim.host_sync(host, event, control_token(KIND_E1, round + 1));
            }
        }
    }
}

impl InferenceEngine for LigerEngine {
    fn name(&self) -> &'static str {
        match self.config.sync_mode {
            SyncMode::Hybrid => "Liger",
            SyncMode::CpuGpu => "Liger(CPU-GPU sync)",
            SyncMode::InterStream => "Liger(inter-stream only)",
        }
    }

    fn submit(&mut self, request: Request, sim: &mut Simulation) {
        let world = self.world() as u32;
        self.memory.ensure_weights(sim, &self.devices, self.cfg.weight_bytes() / world as u64);
        let v = FuncVec::assemble(
            request.id,
            request.shape,
            request.arrival,
            &self.cost,
            &self.cfg,
            self.world() as u32,
        );
        self.waiting.push_back(v);
        if self.phase == Phase::Idle {
            self.start(sim);
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        match wake {
            Wake::EventFired { token, fired_at, .. } if token & CONTROL == 0 => {
                // Batch completion. A stale epoch means the record was queued
                // before a device loss and the batch has since been abandoned
                // (and possibly resubmitted) — ignore it.
                if token >> EPOCH_SHIFT != self.epoch {
                    return;
                }
                let batch = token & BATCH_MASK;
                self.completion_pending.retain(|&b| b != batch);
                self.memory.batch_completed(sim, batch);
                self.completed.push((batch, fired_at));
                match self.phase {
                    Phase::Flood { outstanding } => {
                        let left = outstanding.saturating_sub(1);
                        if left == 0 {
                            self.phase = Phase::Idle;
                            if !self.waiting.is_empty() {
                                self.flood(sim);
                            }
                        } else {
                            self.phase = Phase::Flood { outstanding: left };
                        }
                    }
                    // `update_list` held a batch back for this completion's
                    // memory and the schedule ran dry meanwhile.
                    Phase::Idle if !self.waiting.is_empty() => self.start(sim),
                    _ => {}
                }
            }
            Wake::EventFired { token, fired_at, .. } => match token & KIND_MASK {
                KIND_E1 => {
                    // E1: pre-launch the next round while the switch kernel
                    // still runs.
                    if self.phase == Phase::Hybrid {
                        self.advance(sim);
                    }
                }
                kind @ (KIND_PRI_END | KIND_SEC_END) => {
                    let round = token & !(CONTROL | KIND_MASK);
                    self.record_observation(round, kind, fired_at);
                }
                _ => unreachable!("unknown control-token kind"),
            },
            Wake::HostSynced { .. } => {
                if let Phase::CpuGpuWait { remaining } = self.phase {
                    let left = remaining.saturating_sub(1);
                    if left == 0 {
                        self.advance(sim);
                    } else {
                        self.phase = Phase::CpuGpuWait { remaining: left };
                    }
                }
            }
            Wake::Timer { .. } => {}
            // Kernel failures are a serving-layer concern: the runner retries
            // the whole request once the tainted attempt drains, so the
            // engine's round state machine needs no transition here.
            Wake::KernelFailed { .. } => {}
            // Permanent losses are likewise driven from the serving layer —
            // the recovery runner waits for its watchdog to confirm, then
            // calls `on_device_loss`. The oracle wake itself is not acted on.
            Wake::DeviceDown { .. } => {}
            // Same for rejoins: the watchdog re-confirms the device through
            // its quarantine before the runner calls `on_device_rejoin`.
            Wake::DeviceRejoined { .. } => {}
        }
    }

    fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
        std::mem::take(&mut self.completed)
    }

    fn on_device_loss(
        &mut self,
        _dead: DeviceId,
        survivors: &[DeviceId],
        sim: &mut Simulation,
    ) -> Vec<u64> {
        assert!(!survivors.is_empty(), "cannot replan over zero survivors");
        check_divisibility_relaxed(&self.cfg, survivors.len() as u32)
            .expect("model cannot be replanned over the survivors");
        let ids = self.abandon_all(sim);
        // Collective rings are rebuilt around the hole: point-to-point
        // bricks route past the dead GPU, so NVLink-style fabrics lose bus
        // bandwidth proportionally (PCIe switches are indifferent).
        self.cost.topology = self.cost.topology.degraded(survivors.len(), self.devices.len());
        self.devices = survivors.to_vec();
        ids
    }

    fn on_device_rejoin(
        &mut self,
        _rejoined: DeviceId,
        devices: &[DeviceId],
        sim: &mut Simulation,
    ) -> Vec<u64> {
        assert!(!devices.is_empty(), "cannot replan over zero devices");
        check_divisibility_relaxed(&self.cfg, devices.len() as u32)
            .expect("model cannot be replanned over the rejoined set");
        // Re-expansion is a replan, exactly like a loss.
        let ids = self.abandon_all(sim);
        // Rings are rebuilt around the returned brick: bandwidth recovers
        // to the pristine topology scaled by how much of the original
        // world is back (fully healthy when everyone rejoined).
        self.cost.topology = self.healthy_topology.degraded(devices.len(), self.full_world);
        self.devices = devices.to_vec();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::{DeviceSpec, HostSpec, SimDuration, SimTime};
    use liger_model::BatchShape;
    use liger_parallelism::{InterOpEngine, IntraOpEngine, PipelineFlavor};
    use liger_serving::{serve, ArrivalProcess, PrefillTraceConfig, Request};

    /// A mid-size model whose kernels comfortably dominate host overheads:
    /// hidden 4096 gives ~18% communication share at tp=2 on the V100 node.
    pub(super) fn chunky() -> ModelConfig {
        ModelConfig {
            name: "Chunky-Test".into(),
            layers: 4,
            heads: 8,
            hidden: 4096,
            vocab: 4096,
            dtype_bytes: 2,
        }
    }

    pub(super) fn v100_sim(n: usize) -> Simulation {
        let mut b = Simulation::builder().devices(DeviceSpec::v100_16gb(), n).capture_trace(true);
        for r in 0..n {
            b = b.host(HostSpec::mpi_rank(r));
        }
        b.build().unwrap()
    }

    fn trace(count: usize, rate: f64, seq: u32) -> Vec<Request> {
        PrefillTraceConfig {
            count,
            batch: 2,
            seq_min: seq,
            seq_max: seq,
            arrivals: ArrivalProcess::Constant { rate },
            seed: 0,
        }
        .generate()
    }

    fn liger(world: usize, config: LigerConfig) -> LigerEngine {
        LigerEngine::new(chunky(), CostModel::v100_node(), world, config).unwrap()
    }

    fn v100_factor() -> f64 {
        // The profiled V100 contention factor (§4.2 reports 1.1).
        liger_model::profile_contention(
            &DeviceSpec::v100_16gb(),
            &liger_collectives::NcclConfig::liger_tuned(),
        )
        .factor()
    }

    #[test]
    fn construction_checks() {
        assert!(
            LigerEngine::new(chunky(), CostModel::v100_node(), 3, LigerConfig::default()).is_err()
        );
        let e = liger(2, LigerConfig::default());
        assert_eq!(e.world(), 2);
        assert_eq!(e.name(), "Liger");
        assert_eq!(
            liger(2, LigerConfig::default().with_sync_mode(SyncMode::CpuGpu)).name(),
            "Liger(CPU-GPU sync)"
        );
        let bad = LigerConfig { contention_factor: 0.5, ..LigerConfig::default() };
        assert!(LigerEngine::new(chunky(), CostModel::v100_node(), 2, bad).is_err());
    }

    #[test]
    fn all_requests_complete_in_every_sync_mode() {
        for mode in [SyncMode::Hybrid, SyncMode::CpuGpu, SyncMode::InterStream] {
            let mut engine = liger(2, LigerConfig::default().with_sync_mode(mode));
            let metrics = serve(&mut v100_sim(2), &mut engine, trace(25, 400.0, 64));
            assert_eq!(metrics.completed(), 25, "mode {mode:?} lost requests");
            assert!(engine.rounds_planned() > 25, "each batch takes many rounds");
        }
    }

    #[test]
    fn inter_stream_backlog_larger_than_device_memory_completes() {
        // Room for the weights and three working sets: a simultaneous
        // backlog of twelve floods past it unless admission waits for
        // completions to free memory.
        let shape = BatchShape::prefill(2, 64);
        let working = batch_working_set_bytes(&chunky(), shape, 2);
        let capacity = chunky().weight_bytes() / 2 + 3 * working;
        let spec = DeviceSpec { mem_capacity: capacity, ..DeviceSpec::v100_16gb() };
        let mut b = Simulation::builder().devices(spec, 2);
        for r in 0..2 {
            b = b.host(HostSpec::mpi_rank(r));
        }
        let mut sim = b.build().unwrap();
        let mut engine = liger(2, LigerConfig::default().with_sync_mode(SyncMode::InterStream));
        let metrics = serve(&mut sim, &mut engine, trace(12, 1e6, 64));
        assert_eq!(metrics.completed(), 12);
        assert!(sim.memory_peak(DeviceId(0)) <= capacity);
    }

    #[test]
    fn degenerates_to_intra_op_at_low_rate() {
        // Paper §3.1: "when requests arrive at a low rate, the interleaved
        // parallelism degenerates to the intra-operator approach".
        let t = trace(4, 2.0, 64); // 500ms gaps: no two batches ever coexist
        let mut lg = liger(2, LigerConfig::default().with_contention_factor(v100_factor()));
        let lm = serve(&mut v100_sim(2), &mut lg, t.clone());
        let mut intra = IntraOpEngine::new(chunky(), CostModel::v100_node(), 2).unwrap();
        let im = serve(&mut v100_sim(2), &mut intra, t);
        let (l, i) = (lm.avg_latency().as_secs_f64(), im.avg_latency().as_secs_f64());
        assert!(
            (l - i).abs() / i < 0.05,
            "solo Liger latency {l:.6}s should match intra-op {i:.6}s"
        );
    }

    #[test]
    fn saturated_throughput_beats_intra_op_with_no_worse_latency_headroom() {
        // The headline: under load Liger overlaps batches and lifts
        // throughput above intra-op (paper: x1.15 V100 avg, x1.34 4-device).
        let t = trace(40, 1e5, 64); // effectively simultaneous arrivals
        let mut lg = liger(2, LigerConfig::default().with_contention_factor(v100_factor()));
        let lm = serve(&mut v100_sim(2), &mut lg, t.clone());
        let mut intra = IntraOpEngine::new(chunky(), CostModel::v100_node(), 2).unwrap();
        let im = serve(&mut v100_sim(2), &mut intra, t);
        assert_eq!(lm.completed(), 40);
        let gain = lm.throughput() / im.throughput();
        assert!(gain > 1.05, "Liger throughput gain over Intra-Op only x{gain:.3}");
        assert!(gain < 1.6, "gain x{gain:.3} exceeds the physical comm-share bound");
    }

    #[test]
    fn latency_beats_inter_op_before_saturation() {
        // Moderate rate below Liger's capacity: Liger keeps intra-op-like
        // latency while the pipeline pays full-model latency per request.
        let t = trace(20, 150.0, 64);
        let mut lg = liger(2, LigerConfig::default().with_contention_factor(v100_factor()));
        let lm = serve(&mut v100_sim(2), &mut lg, t.clone());
        let mut inter =
            InterOpEngine::new(chunky(), CostModel::v100_node(), 2, PipelineFlavor::Measured)
                .unwrap();
        let im = serve(&mut v100_sim(2), &mut inter, t);
        assert!(
            lm.avg_latency() < im.avg_latency(),
            "Liger latency {} should beat Inter-Op {}",
            lm.avg_latency(),
            im.avg_latency()
        );
    }

    #[test]
    fn interleaving_manufactures_cross_class_overlap() {
        let t = trace(10, 1e5, 64);
        let mut lg = liger(2, LigerConfig::default().with_contention_factor(v100_factor()));
        let mut sim = v100_sim(2);
        serve(&mut sim, &mut lg, t);
        let trace = sim.take_trace().unwrap();
        let overlap = trace.overlap_time(DeviceId(0));
        assert!(
            overlap > SimDuration::from_micros(100),
            "expected substantial compute/comm overlap, got {overlap}"
        );
    }

    #[test]
    fn principle_one_primary_latency_is_protected() {
        // The first batch's latency under heavy load stays within the
        // cross-class contention factor of its solo latency.
        let solo = {
            let mut lg = liger(2, LigerConfig::default().with_contention_factor(v100_factor()));
            let m = serve(&mut v100_sim(2), &mut lg, trace(1, 1.0, 64));
            m.avg_latency().as_secs_f64()
        };
        let loaded = {
            let mut lg = liger(2, LigerConfig::default().with_contention_factor(v100_factor()));
            let m = serve(&mut v100_sim(2), &mut lg, trace(12, 1e5, 64));
            m.completions().iter().find(|c| c.id == 0).unwrap().latency().as_secs_f64()
        };
        let ratio = loaded / solo;
        assert!(ratio < 1.30, "first batch slowed x{ratio:.3} under load; Principle 1 violated");
        assert!(ratio >= 0.999, "the loaded run cannot be faster than solo");
    }

    #[test]
    fn hybrid_sync_beats_cpu_gpu_sync() {
        // Fig. 13: pre-launching hides the multi-GPU launch overhead.
        let t = trace(25, 1e5, 32);
        let mut hybrid = liger(4, LigerConfig::default().with_contention_factor(v100_factor()));
        let hm = serve(&mut v100_sim(4), &mut hybrid, t.clone());
        let mut cpu = liger(
            4,
            LigerConfig::default()
                .with_contention_factor(v100_factor())
                .with_sync_mode(SyncMode::CpuGpu),
        );
        let cm = serve(&mut v100_sim(4), &mut cpu, t);
        assert!(
            hm.throughput() > cm.throughput(),
            "hybrid throughput {:.1} should beat CPU-GPU {:.1}",
            hm.throughput(),
            cm.throughput()
        );
        assert!(
            hm.avg_latency() < cm.avg_latency(),
            "hybrid latency {} should beat CPU-GPU {}",
            hm.avg_latency(),
            cm.avg_latency()
        );
    }

    #[test]
    fn decomposition_improves_packing() {
        // Fig. 14 direction: a larger division factor packs windows more
        // precisely; disabling decomposition must not beat enabling it.
        let t = trace(30, 1e5, 64);
        let run = |cfg: LigerConfig| {
            let mut lg = liger(2, cfg.with_contention_factor(v100_factor()));
            serve(&mut v100_sim(2), &mut lg, t.clone()).throughput()
        };
        let off = run(LigerConfig { enable_decomposition: false, ..LigerConfig::default() });
        let on8 = run(LigerConfig::default().with_division_factor(8));
        assert!(
            on8 >= off * 0.999,
            "decomposition on ({on8:.1}/s) must not lose to off ({off:.1}/s)"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut lg = liger(2, LigerConfig::default());
            let m = serve(&mut v100_sim(2), &mut lg, trace(15, 500.0, 48));
            let mut v: Vec<(u64, SimTime)> =
                m.completions().iter().map(|c| (c.id, c.finished)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn decode_workload_is_served() {
        let reqs: Vec<Request> = (0..10)
            .map(|i| Request::new(i, BatchShape::decode(8, 16), SimTime::from_micros(100 * i)))
            .collect();
        let mut lg = liger(2, LigerConfig::default());
        let m = serve(&mut v100_sim(2), &mut lg, reqs);
        assert_eq!(m.completed(), 10);
    }

    #[test]
    fn a_mid_run_straggler_changes_the_emitted_plans() {
        // Regression for the params()/params_for() collapse: every planning
        // site reads the fault schedule, so a straggler window must shrink
        // the round budgets (different round count, different schedule) and
        // be counted in degraded_rounds.
        use liger_gpu_sim::FaultSpec;
        let t = trace(20, 1e5, 64);
        let run = |faults: Option<FaultSpec>| {
            let mut b = Simulation::builder().devices(DeviceSpec::v100_16gb(), 2);
            for r in 0..2 {
                b = b.host(HostSpec::mpi_rank(r));
            }
            if let Some(f) = faults {
                b = b.faults(f);
            }
            let mut sim = b.build().unwrap();
            let mut lg = liger(2, LigerConfig::default().with_contention_factor(v100_factor()));
            let m = serve(&mut sim, &mut lg, t.clone());
            let mut sched: Vec<(u64, SimTime)> =
                m.completions().iter().map(|c| (c.id, c.finished)).collect();
            sched.sort_unstable();
            (sched, lg.degraded_rounds(), lg.rounds_planned())
        };
        let (healthy_sched, healthy_degraded, healthy_rounds) = run(None);
        let straggler =
            FaultSpec::new(7).straggler(DeviceId(0), SimTime::from_micros(500), SimTime::MAX, 1.5);
        let (slow_sched, slow_degraded, slow_rounds) = run(Some(straggler));
        assert_eq!(healthy_degraded, 0, "healthy run plans no degraded rounds");
        assert!(slow_degraded > 0, "straggler-window rounds must be counted");
        assert!(slow_degraded <= slow_rounds);
        assert_ne!(
            (healthy_sched, healthy_rounds),
            (slow_sched, slow_rounds),
            "the straggler must change the emitted schedule"
        );
    }

    #[test]
    fn device_loss_replans_over_survivors_and_loses_nothing() {
        use liger_gpu_sim::{DeviceSpec, FaultSpec, HostSpec};
        use liger_serving::{serve_with_recovery, HealthConfig, RecoveryConfig};
        // 4-way Liger; device 3 dies mid-trace. The watchdog confirms the
        // loss, the engine abandons + replans 4 -> 3 (uneven head shards),
        // and every request still completes under the replicate policy.
        let t = trace(16, 400.0, 64);
        let mut b = Simulation::builder()
            .devices(DeviceSpec::v100_16gb(), 4)
            .faults(FaultSpec::new(1).device_down(DeviceId(3), SimTime::from_millis(8)));
        for r in 0..4 {
            b = b.host(HostSpec::mpi_rank(r));
        }
        let mut sim = b.build().unwrap();
        let mut lg = liger(4, LigerConfig::default());
        let config = RecoveryConfig {
            // The probe stream shares a hardware queue with the secondary
            // stream (connections = 2), so give queueing enough slack.
            health: HealthConfig {
                interval: SimDuration::from_millis(1),
                suspicion_threshold: 3,
                probe_stream: 3,
                ..HealthConfig::default()
            },
            ..RecoveryConfig::default()
        };
        let m =
            serve_with_recovery(&mut sim, &mut lg, t, &chunky(), &CostModel::v100_node(), config);
        assert_eq!(m.recovery().losses, 1, "exactly one confirmed loss");
        assert_eq!(m.completed(), 16, "replicate recovery loses no requests");
        assert!(m.recovery().shed.is_empty());
        assert_eq!(lg.world(), 3, "engine replanned over the survivors");
        assert!(
            m.recovery().detection_latency <= config.health.detection_bound(),
            "detection {} beyond bound {}",
            m.recovery().detection_latency,
            config.health.detection_bound()
        );
        let labels: Vec<&str> = m.recovery_timeline().iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, vec!["draining", "recovering", "degraded"]);
    }

    #[test]
    fn on_device_loss_abandons_everything_and_bumps_the_epoch() {
        let mut sim = v100_sim(4);
        let mut lg = liger(4, LigerConfig::default());
        for i in 0..6 {
            lg.submit(Request::new(i, BatchShape::prefill(2, 64), SimTime::ZERO), &mut sim);
        }
        let survivors: Vec<DeviceId> = (0..3).map(DeviceId).collect();
        let abandoned = lg.on_device_loss(DeviceId(3), &survivors, &mut sim);
        assert_eq!(abandoned, vec![0, 1, 2, 3, 4, 5], "every batch abandoned, in order");
        assert_eq!(lg.world(), 3);
        assert_eq!(lg.epoch, 1);
        for d in 0..4 {
            assert_eq!(sim.memory_in_use(DeviceId(d)), 0, "gpu{d} still holds allocations");
        }
        // A second loss stacks: 3 -> 2.
        let survivors: Vec<DeviceId> = (0..2).map(DeviceId).collect();
        assert!(lg.on_device_loss(DeviceId(2), &survivors, &mut sim).is_empty());
        assert_eq!(lg.epoch, 2);
        assert_eq!(lg.world(), 2);
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use liger_gpu_sim::{DeviceSpec, HostSpec};
    use liger_serving::{serve, ArrivalProcess, PrefillTraceConfig};

    fn chunky() -> ModelConfig {
        ModelConfig {
            name: "Chunky-Test".into(),
            layers: 4,
            heads: 8,
            hidden: 4096,
            vocab: 4096,
            dtype_bytes: 2,
        }
    }

    fn v100_sim(n: usize) -> Simulation {
        let mut b = Simulation::builder().devices(DeviceSpec::v100_16gb(), n);
        for r in 0..n {
            b = b.host(HostSpec::mpi_rank(r));
        }
        b.build().unwrap()
    }

    fn loaded_trace(n: usize) -> Vec<liger_serving::Request> {
        PrefillTraceConfig {
            count: n,
            batch: 2,
            seq_min: 64,
            seq_max: 64,
            arrivals: ArrivalProcess::Constant { rate: 1e5 },
            seed: 0,
        }
        .generate()
    }

    #[test]
    fn adaptation_policy_reacts_to_overruns_and_relaxes_when_clean() {
        // Logic-level check of the policy itself: an observed overrun must
        // raise the factor multiplicatively (clamped at 2.0); clean rounds
        // relax it slowly toward 1.0 and never below.
        let mut e = LigerEngine::new(
            chunky(),
            CostModel::v100_node(),
            2,
            LigerConfig::default().with_contention_factor(1.0).with_adaptive_factor(true),
        )
        .unwrap();
        // 20% overrun: secondary ends 200us past a 1ms window.
        e.adapt_factor(RoundObs {
            window_ns: 1_000_000,
            primary_end: Some(SimTime::from_micros(1000)),
            secondary_end: Some(SimTime::from_micros(1200)),
        });
        let grown = e.current_factor();
        assert!((1.15..=1.25).contains(&grown), "20% overrun grew factor to {grown}");
        // Repeated giant overruns saturate at the clamp.
        for _ in 0..20 {
            e.adapt_factor(RoundObs {
                window_ns: 1_000_000,
                primary_end: Some(SimTime::from_micros(1000)),
                secondary_end: Some(SimTime::from_micros(2000)),
            });
        }
        assert_eq!(e.current_factor(), 2.0);
        // Clean rounds relax slowly and never cross 1.0.
        for _ in 0..10_000 {
            e.adapt_factor(RoundObs {
                window_ns: 1_000_000,
                primary_end: Some(SimTime::from_micros(1000)),
                secondary_end: Some(SimTime::from_micros(900)),
            });
        }
        assert_eq!(e.current_factor(), 1.0);
        // Incomplete observations are ignored.
        e.adapt_factor(RoundObs {
            window_ns: 0,
            primary_end: Some(SimTime::ZERO),
            secondary_end: Some(SimTime::ZERO),
        });
        e.adapt_factor(RoundObs {
            window_ns: 10,
            primary_end: None,
            secondary_end: Some(SimTime::ZERO),
        });
        assert_eq!(e.current_factor(), 1.0);
    }

    #[test]
    fn adaptation_observes_rounds_end_to_end() {
        // Integration-level: observations flow through the event plumbing
        // (pairs complete, decisions are taken) and the live factor stays
        // within its clamps. Whether it moves depends on whether windows
        // actually overrun — on the paper's symmetric testbeds they rarely
        // do, which is §4.2's own observation.
        let cfg = LigerConfig::default().with_contention_factor(1.0).with_adaptive_factor(true);
        let mut e = LigerEngine::new(chunky(), CostModel::v100_node(), 2, cfg).unwrap();
        let m = serve(&mut v100_sim(2), &mut e, loaded_trace(25));
        assert_eq!(m.completed(), 25);
        assert!(e.adaptations > 0, "no observation pair ever completed");
        assert!((1.0..=2.0).contains(&e.current_factor()));
    }

    #[test]
    fn overestimated_factor_relaxes_on_a_frictionless_device() {
        let mut frictionless = DeviceSpec::test_device();
        frictionless.mem_capacity = 16 << 30; // hold the chunky model's weights
        let mut sim = Simulation::builder().devices(frictionless, 2).build().unwrap();
        let cfg = LigerConfig::default().with_contention_factor(1.4).with_adaptive_factor(true);
        let mut e = LigerEngine::new(chunky(), CostModel::v100_node(), 2, cfg).unwrap();
        let m = serve(&mut sim, &mut e, loaded_trace(25));
        assert_eq!(m.completed(), 25);
        assert!(
            e.current_factor() < 1.4,
            "factor should relax from 1.4, stayed at {}",
            e.current_factor()
        );
        assert!(e.current_factor() >= 1.0);
    }

    #[test]
    fn static_factor_never_drifts() {
        let cfg = LigerConfig::default().with_contention_factor(1.23);
        let mut e = LigerEngine::new(chunky(), CostModel::v100_node(), 2, cfg).unwrap();
        let m = serve(&mut v100_sim(2), &mut e, loaded_trace(20));
        assert_eq!(m.completed(), 20);
        assert_eq!(e.current_factor(), 1.23);
    }

    #[test]
    fn adaptation_does_not_leak_observations() {
        let cfg = LigerConfig::default().with_contention_factor(1.1).with_adaptive_factor(true);
        let mut e = LigerEngine::new(chunky(), CostModel::v100_node(), 2, cfg).unwrap();
        serve(&mut v100_sim(2), &mut e, loaded_trace(30));
        assert!(
            e.observations.len() < 16,
            "observation map leaked {} entries",
            e.observations.len()
        );
    }
}
