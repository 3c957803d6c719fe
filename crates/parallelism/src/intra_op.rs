//! The Intra-Op baseline: Megatron-LM tensor parallelism (§4.1).
//!
//! Every batch is partitioned across all devices; each transformer layer
//! performs two all-reduce synchronizations. Batches are processed strictly
//! one after another (all kernels of batch *i+1* queue behind batch *i* on
//! stream 0 of every device), so latency is minimized per batch but the
//! devices idle during every all-reduce — the throughput cost the paper's
//! dilemma describes.

use liger_collectives::NcclConfig;
use liger_gpu_sim::{DeviceId, SimTime, Simulation, Wake};
use liger_model::{assemble, CostModel, ModelConfig};
use liger_serving::{InferenceEngine, Request};

use crate::launch::{batch_working_set_bytes, launch_symmetric, notify_completion, EngineMemory};
use crate::partition::check_divisibility;

/// Megatron-style tensor-parallel serving engine.
///
/// Admission is bounded to a small in-flight window (4 batches): enough to
/// keep the stream fed across completion callbacks without materializing
/// working sets for the entire waiting queue — allocation happens at
/// admission, as on a real server.
pub struct IntraOpEngine {
    cfg: ModelConfig,
    cost: CostModel,
    devices: Vec<DeviceId>,
    nccl: NcclConfig,
    completed: Vec<(u64, SimTime)>,
    submitted: u64,
    memory: EngineMemory,
    waiting: std::collections::VecDeque<Request>,
    in_flight: usize,
}

const MAX_IN_FLIGHT: usize = 4;

impl IntraOpEngine {
    /// Creates the engine over devices `0..world`.
    pub fn new(cfg: ModelConfig, cost: CostModel, world: usize) -> Result<IntraOpEngine, String> {
        check_divisibility(&cfg, world as u32)?;
        let nccl = cost.nccl;
        Ok(IntraOpEngine {
            cfg,
            cost,
            devices: (0..world).map(DeviceId).collect(),
            nccl,
            completed: Vec::new(),
            submitted: 0,
            memory: EngineMemory::new(),
            waiting: std::collections::VecDeque::new(),
            in_flight: 0,
        })
    }

    /// Tensor-parallel degree.
    pub fn world(&self) -> usize {
        self.devices.len()
    }

    /// Admits waiting batches while the in-flight window has room.
    fn pump(&mut self, sim: &mut Simulation) {
        while self.in_flight < MAX_IN_FLIGHT {
            let Some(request) = self.waiting.pop_front() else { break };
            self.launch_batch(request, sim);
            self.in_flight += 1;
        }
    }

    fn launch_batch(&mut self, request: Request, sim: &mut Simulation) {
        let world = self.world() as u32;
        let devices = self.devices.clone();
        self.memory.ensure_weights(sim, &devices, self.cfg.weight_bytes() / world as u64);
        self.memory.batch_submitted(
            sim,
            &devices,
            request.id,
            batch_working_set_bytes(&self.cfg, request.shape, world),
        );
        let ops = assemble(&self.cost, &self.cfg, request.shape, world);
        launch_symmetric(sim, &ops, &self.devices, 0, &self.nccl, request.id);
        // Completion: the batch is done when rank 0's stream drains past it.
        // All ranks finish simultaneously (symmetric work + collectives).
        notify_completion(sim, self.devices[0], 0, request.id);
    }
}

impl InferenceEngine for IntraOpEngine {
    fn name(&self) -> &'static str {
        "Intra-Op"
    }

    fn submit(&mut self, request: Request, sim: &mut Simulation) {
        self.submitted += 1;
        self.waiting.push_back(request);
        self.pump(sim);
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        if let Wake::EventFired { token, fired_at, .. } = wake {
            self.memory.batch_completed(sim, token);
            self.completed.push((token, fired_at));
            self.in_flight = self.in_flight.saturating_sub(1);
            self.pump(sim);
        }
    }

    fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
        std::mem::take(&mut self.completed)
    }

    fn drain_completions_into(&mut self, out: &mut Vec<(u64, SimTime)>) {
        // `append` leaves `completed` empty with its capacity kept.
        out.append(&mut self.completed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::{DeviceSpec, HostSpec, KernelClass, SimDuration};
    use liger_model::{class_totals, BatchShape};
    use liger_serving::{serve, ArrivalProcess, PrefillTraceConfig, Request};

    fn v100_sim(n: usize) -> Simulation {
        let mut b = Simulation::builder().devices(DeviceSpec::v100_16gb(), n).capture_trace(true);
        for r in 0..n {
            b = b.host(HostSpec::mpi_rank(r));
        }
        b.build().unwrap()
    }

    /// Zero host overheads: kernel timings dominate, so analytic capacity
    /// estimates are exact. Used by the calibration-style tests; the tiny
    /// test model's kernels are so short that realistic 5us launch overheads
    /// would otherwise dominate (which is realistic, but not what these
    /// tests measure).
    fn instant_sim(n: usize) -> Simulation {
        let mut b = Simulation::builder().devices(DeviceSpec::v100_16gb(), n).capture_trace(true);
        for _ in 0..n {
            b = b.host(HostSpec::instant());
        }
        b.build().unwrap()
    }

    #[test]
    fn engine_rejects_bad_world_size() {
        assert!(IntraOpEngine::new(ModelConfig::opt_30b(), CostModel::v100_node(), 3).is_err());
        assert!(IntraOpEngine::new(ModelConfig::opt_30b(), CostModel::v100_node(), 4).is_ok());
    }

    #[test]
    fn single_batch_latency_matches_sequential_sum() {
        let cfg = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let shape = BatchShape::prefill(2, 32);
        let ops = assemble(&cost, &cfg, shape, 4);
        let (compute, comm) = class_totals(&ops);
        let expected = compute + comm;

        let mut engine = IntraOpEngine::new(cfg, cost, 4).unwrap();
        let mut sim = v100_sim(4);
        let reqs = vec![Request::new(0, shape, SimTime::ZERO)];
        let metrics = serve(&mut sim, &mut engine, reqs);
        assert_eq!(metrics.completed(), 1);
        let lat = metrics.avg_latency();
        // Everything serializes on stream 0; latency = sum of kernel works
        // plus launch/rendezvous overheads (small but positive).
        assert!(lat >= expected, "latency {lat} below kernel-sum floor {expected}");
        let overhead = lat - expected;
        assert!(
            overhead < SimDuration::from_millis(2),
            "overhead {overhead} implausibly large for a tiny model"
        );
    }

    #[test]
    fn batches_serialize_fifo() {
        let cfg = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let mut engine = IntraOpEngine::new(cfg, cost, 2).unwrap();
        let mut sim = v100_sim(2);
        let shape = BatchShape::prefill(2, 32);
        // Both arrive at t=0: the second waits for the first.
        let reqs =
            vec![Request::new(0, shape, SimTime::ZERO), Request::new(1, shape, SimTime::ZERO)];
        let metrics = serve(&mut sim, &mut engine, reqs);
        assert_eq!(metrics.completed(), 2);
        let mut lats: Vec<_> = metrics.completions().to_vec();
        lats.sort_by_key(|c| c.id);
        // Second batch latency ≈ 2x first (pending behind it).
        let l0 = lats[0].latency().as_secs_f64();
        let l1 = lats[1].latency().as_secs_f64();
        assert!(l1 > 1.8 * l0, "no serialization: {l0} vs {l1}");
    }

    #[test]
    fn no_cross_class_overlap_within_a_single_batch() {
        // Intra-op leaves compute idle during all-reduces: no overlap at all
        // when a single batch runs alone.
        let cfg = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let mut engine = IntraOpEngine::new(cfg, cost, 2).unwrap();
        let mut sim = v100_sim(2);
        let reqs = vec![Request::new(0, BatchShape::prefill(2, 32), SimTime::ZERO)];
        serve(&mut sim, &mut engine, reqs);
        let trace = sim.take_trace().unwrap();
        assert!(trace.of_class(KernelClass::Comm).count() > 0);
        assert_eq!(trace.overlap_time(DeviceId(0)), SimDuration::ZERO);
        assert_eq!(trace.overlap_time(DeviceId(1)), SimDuration::ZERO);
    }

    #[test]
    fn sweep_saturates_at_iteration_rate() {
        let cfg = ModelConfig::tiny_test();
        let cost = CostModel::v100_node();
        let shape = BatchShape::prefill(2, 32);
        let ops = assemble(&cost, &cfg, shape, 2);
        let (compute, comm) = class_totals(&ops);
        let iter_s = (compute + comm).as_secs_f64();
        let capacity = 1.0 / iter_s;

        // Overdrive at 3x capacity: throughput should cap near capacity.
        let mut engine = IntraOpEngine::new(cfg, cost, 2).unwrap();
        let mut sim = instant_sim(2);
        let cfg_trace = PrefillTraceConfig {
            count: 40,
            batch: 2,
            seq_min: 32,
            seq_max: 32,
            arrivals: ArrivalProcess::Constant { rate: capacity * 3.0 },
            seed: 0,
        };
        let metrics = serve(&mut sim, &mut engine, cfg_trace.generate());
        assert_eq!(metrics.completed(), 40);
        let thr = metrics.throughput();
        assert!(
            (thr - capacity).abs() / capacity < 0.1,
            "throughput {thr:.1} should saturate near capacity {capacity:.1}"
        );
    }
}
