//! Shared kernel-launch helpers for the engines.

use liger_collectives::NcclConfig;
use liger_gpu_sim::{
    CollectiveId, DeviceId, HostId, KernelClass, KernelSpec, SimDuration, Simulation, StreamId,
};
use liger_model::PricedOp;

/// Builds the [`KernelSpec`] for a priced compute op.
pub fn compute_spec(op: &PricedOp, tag: u64) -> KernelSpec {
    debug_assert_eq!(op.class(), KernelClass::Compute);
    KernelSpec::compute(op.placed.op.name(), op.duration).with_tag(tag)
}

/// Builds one rank's member [`KernelSpec`] of a priced communication op in
/// rendezvous group `group`.
pub fn comm_spec(op: &PricedOp, group: CollectiveId, nccl: &NcclConfig, tag: u64) -> KernelSpec {
    debug_assert_eq!(op.class(), KernelClass::Comm);
    KernelSpec::comm(op.placed.op.name(), op.duration)
        .with_blocks(nccl.channels)
        .with_collective(group)
        .with_tag(tag)
}

/// Launches a priced communication op as one collective across `ranks`:
/// allocates its rendezvous group and launches each rank's member kernel on
/// that rank's `stream` (host `d` launches for device `d`).
pub fn launch_collective(
    sim: &mut Simulation,
    op: &PricedOp,
    ranks: &[DeviceId],
    stream: usize,
    nccl: &NcclConfig,
    tag: u64,
) {
    let group = sim.new_collective(ranks.len());
    for &rank in ranks {
        sim.launch(HostId(rank.0), StreamId::new(rank, stream), comm_spec(op, group, nccl, tag));
    }
}

/// Launches a tensor-parallel-symmetric op list across `devices`: every
/// compute op runs on each device's `stream`, every communication op becomes
/// one rendezvous-bound kernel per device on the same stream (serialized
/// with the compute — the Intra-Op baseline's behavior). Host `d` launches
/// for device `d`.
pub fn launch_symmetric(
    sim: &mut Simulation,
    ops: &[PricedOp],
    devices: &[DeviceId],
    stream: usize,
    nccl: &NcclConfig,
    tag: u64,
) {
    for op in ops {
        match op.class() {
            KernelClass::Compute => {
                for &d in devices {
                    sim.launch(HostId(d.0), StreamId::new(d, stream), compute_spec(op, tag));
                }
            }
            KernelClass::Comm => {
                // Degenerate single-device groups skip communication.
                if devices.len() < 2 {
                    continue;
                }
                launch_collective(sim, op, devices, stream, nccl, tag);
            }
        }
    }
}

/// Launches a per-device op list (a pipeline stage) on one device's stream.
/// Communication ops are not allowed here — stage boundaries are handled by
/// the caller with explicit send/recv pairs.
pub fn launch_stage(
    sim: &mut Simulation,
    ops: &[PricedOp],
    device: DeviceId,
    stream: usize,
    tag: u64,
) {
    for op in ops {
        assert_eq!(
            op.class(),
            KernelClass::Compute,
            "stage op lists must be compute-only, got {:?}",
            op.placed.op
        );
        sim.launch(HostId(device.0), StreamId::new(device, stream), compute_spec(op, tag));
    }
}

/// Launches a point-to-point transfer of `duration` between two devices on
/// the given stream index of each: a rendezvous-paired send/recv.
pub fn launch_p2p(
    sim: &mut Simulation,
    duration: SimDuration,
    src: DeviceId,
    dst: DeviceId,
    stream: usize,
    nccl: &NcclConfig,
    tag: u64,
) {
    let group = sim.new_collective(2);
    for (d, name) in [(src, "p2p_send"), (dst, "p2p_recv")] {
        let spec = KernelSpec::comm(name, duration)
            .with_blocks(nccl.channels)
            .with_collective(group)
            .with_tag(tag);
        sim.launch(HostId(d.0), StreamId::new(d, stream), spec);
    }
}

/// The helper engines use to observe batch completion: records an event on
/// the stream and registers a driver callback carrying `token`.
pub fn notify_completion(sim: &mut Simulation, device: DeviceId, stream: usize, token: u64) {
    let ev = sim.record_event(HostId(device.0), StreamId::new(device, stream));
    sim.notify_on_event(ev, HostId(device.0), token);
}

/// Device-memory bookkeeping shared by the engines: weight shards are
/// allocated once (on first submit), per-batch working sets (activations +
/// KV cache) live from submission to completion. Running out of device
/// memory is a deployment error — the engine reports it loudly instead of
/// silently serving a model that could not exist on the node.
#[derive(Debug, Default)]
pub struct EngineMemory {
    weights: Option<Vec<liger_gpu_sim::AllocationId>>,
    per_batch: liger_gpu_sim::DetHashMap<u64, Vec<liger_gpu_sim::AllocationId>>,
    /// Id lists of completed batches, emptied and kept for the next
    /// submissions to refill instead of allocating.
    spare: Vec<Vec<liger_gpu_sim::AllocationId>>,
}

impl EngineMemory {
    /// Fresh bookkeeping.
    pub fn new() -> EngineMemory {
        EngineMemory::default()
    }

    /// Allocates the per-device weight shards once.
    ///
    /// # Panics
    /// When the shard does not fit — the model cannot be deployed this way.
    pub fn ensure_weights(
        &mut self,
        sim: &mut Simulation,
        devices: &[DeviceId],
        bytes_per_device: u64,
    ) {
        if self.weights.is_some() {
            return;
        }
        let ids = devices
            .iter()
            .map(|&d| {
                sim.alloc_memory(d, bytes_per_device, "weights").unwrap_or_else(|e| {
                    panic!("model weights do not fit the node (partition further or use bigger devices): {e}")
                })
            })
            .collect();
        self.weights = Some(ids);
    }

    /// Allocates one batch's working set on every device.
    ///
    /// # Panics
    /// When the working set does not fit — admission control (processing
    /// slots / in-flight window) is sized wrongly for the device.
    pub fn batch_submitted(
        &mut self,
        sim: &mut Simulation,
        devices: &[DeviceId],
        batch: u64,
        bytes_per_device: u64,
    ) {
        let mut ids = self.spare.pop().unwrap_or_default();
        ids.extend(devices.iter().map(|&d| {
            sim.alloc_memory(d, bytes_per_device, "batch working set").unwrap_or_else(|e| {
                panic!(
                    "batch working set does not fit (reduce batch size or in-flight window): {e}"
                )
            })
        }));
        let prev = self.per_batch.insert(batch, ids);
        debug_assert!(prev.is_none(), "batch {batch} submitted twice");
    }

    /// True when at least one batch's working set is allocated.
    pub fn has_batches(&self) -> bool {
        !self.per_batch.is_empty()
    }

    /// Frees a completed batch's working set.
    pub fn batch_completed(&mut self, sim: &mut Simulation, batch: u64) {
        if let Some(mut ids) = self.per_batch.remove(&batch) {
            for id in ids.drain(..) {
                sim.free_memory(id);
            }
            self.spare.push(ids);
        }
    }

    /// Frees everything — weight shards and every live working set — so the
    /// engine can re-allocate over a new placement after a device loss.
    /// Batches are released in id order for deterministic traces.
    pub fn release_all(&mut self, sim: &mut Simulation) {
        if let Some(ids) = self.weights.take() {
            for id in ids {
                sim.free_memory(id);
            }
        }
        let mut batches: Vec<u64> = self.per_batch.keys().copied().collect();
        batches.sort_unstable();
        for b in batches {
            self.batch_completed(sim, b);
        }
    }
}

/// Per-device working-set bytes of one batch at `ways`-way partitioning
/// (weights excluded — those are resident). Decode iterations hold the KV
/// cache for their whole context; a pure prefill forward pass only keeps
/// per-layer transient state, so it is charged the activation workspace
/// alone.
pub fn batch_working_set_bytes(
    cfg: &liger_model::ModelConfig,
    shape: liger_model::BatchShape,
    ways: u32,
) -> u64 {
    let f = liger_model::device_footprint(cfg, ways, shape, shape.phase.kv_len(), 1);
    match shape.phase {
        liger_model::Phase::Prefill { .. } => f.activations,
        liger_model::Phase::Decode { .. } => f.kv_cache + f.activations,
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use liger_gpu_sim::{DeviceSpec, SimTime};
    use liger_model::{BatchShape, CostModel, ModelConfig};
    use liger_serving::{serve, Request};

    fn sim(n: usize, spec: DeviceSpec) -> Simulation {
        Simulation::builder().devices(spec, n).build().unwrap()
    }

    #[test]
    fn intra_op_tracks_weights_and_working_sets() {
        let cfg = ModelConfig::opt_30b();
        let mut engine = crate::IntraOpEngine::new(cfg.clone(), CostModel::v100_node(), 4).unwrap();
        let mut s = sim(4, DeviceSpec::v100_16gb());
        let reqs = vec![Request::new(0, BatchShape::prefill(2, 64), SimTime::ZERO)];
        let m = serve(&mut s, &mut engine, reqs);
        assert_eq!(m.completed(), 1);
        let weights_share = cfg.weight_bytes() / 4;
        // After completion, only the resident weights remain allocated.
        assert_eq!(s.memory_in_use(DeviceId(0)), weights_share);
        // The peak included the batch working set on top of the weights.
        assert!(s.memory_peak(DeviceId(0)) > weights_share);
        assert!(s.memory_peak(DeviceId(0)) <= DeviceSpec::v100_16gb().mem_capacity);
    }

    #[test]
    #[should_panic(expected = "model weights do not fit")]
    fn oversized_model_panics_loudly() {
        // OPT-30B's 60 GB of weights cannot fit a single 16 GB V100: the
        // engine must refuse at first submission, not serve a fiction.
        let cfg = ModelConfig::opt_30b();
        let mut engine = crate::IntraOpEngine::new(cfg, CostModel::v100_node(), 1).unwrap();
        let mut s = sim(1, DeviceSpec::v100_16gb());
        let reqs = vec![Request::new(0, BatchShape::prefill(2, 64), SimTime::ZERO)];
        let _ = serve(&mut s, &mut engine, reqs);
    }

    #[test]
    fn release_all_clears_weights_and_working_sets() {
        let mut mem = EngineMemory::new();
        let mut s = sim(2, DeviceSpec::v100_16gb());
        let devices = [DeviceId(0), DeviceId(1)];
        mem.ensure_weights(&mut s, &devices, 1 << 30);
        mem.batch_submitted(&mut s, &devices, 7, 1 << 20);
        mem.batch_submitted(&mut s, &devices, 3, 1 << 20);
        mem.release_all(&mut s);
        assert_eq!(s.memory_in_use(DeviceId(0)), 0);
        assert_eq!(s.memory_in_use(DeviceId(1)), 0);
        // A replan re-allocates from scratch over the new placement.
        mem.ensure_weights(&mut s, &[DeviceId(0)], 1 << 30);
        assert_eq!(s.memory_in_use(DeviceId(0)), 1 << 30);
    }

    #[test]
    fn pipeline_frees_working_sets_as_batches_drain() {
        let cfg = ModelConfig::opt_30b();
        let mut engine = crate::InterOpEngine::new(
            cfg.clone(),
            CostModel::v100_node(),
            4,
            crate::PipelineFlavor::Measured,
        )
        .unwrap();
        let mut s = sim(4, DeviceSpec::v100_16gb());
        let reqs: Vec<Request> = (0..6)
            .map(|i| Request::new(i, BatchShape::prefill(2, 64), SimTime::from_micros(10 * i)))
            .collect();
        let m = serve(&mut s, &mut engine, reqs);
        assert_eq!(m.completed(), 6);
        for d in 0..4 {
            assert_eq!(
                s.memory_in_use(DeviceId(d)),
                cfg.weight_bytes() / 4,
                "gpu{d} leaked batch working sets"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_model::{GemmKind, LayerOp, PlacedOp};

    /// A driver with nothing to do on wakes.
    struct Idle;

    impl liger_gpu_sim::Driver for Idle {
        fn on_wake(&mut self, _: liger_gpu_sim::Wake, _: &mut Simulation) {}
    }

    fn priced(op: LayerOp, us: u64) -> PricedOp {
        PricedOp { placed: PlacedOp { layer: 0, op }, duration: SimDuration::from_micros(us) }
    }

    #[test]
    fn compute_spec_carries_duration_and_tag() {
        let op = priced(LayerOp::Gemm { m: 1, k: 1, n: 1, kind: GemmKind::Qkv }, 50);
        let spec = compute_spec(&op, 9);
        assert_eq!(spec.work, SimDuration::from_micros(50));
        assert_eq!(spec.tag, 9);
        assert_eq!(spec.class, KernelClass::Compute);
        assert_eq!(&*spec.name, "gemm_qkv");
        assert!(
            matches!(spec.name, std::borrow::Cow::Borrowed(_)),
            "a static op name is borrowed, not copied to the heap"
        );
    }

    #[test]
    fn comm_spec_carries_channels_group_and_tag() {
        let op = priced(LayerOp::AllReduce { bytes: 1024, ranks: 3 }, 20);
        let spec = comm_spec(&op, CollectiveId(5), &NcclConfig::liger_tuned(), 1);
        assert_eq!(spec.blocks, 3, "NCCL channel count becomes the block footprint");
        assert_eq!(spec.collective, Some(CollectiveId(5)));
        assert_eq!((spec.class, spec.tag, spec.work), (KernelClass::Comm, 1, op.duration));
        assert!(matches!(spec.name, std::borrow::Cow::Borrowed("nccl_allreduce")));
    }

    #[test]
    fn launch_collective_shares_one_rendezvous() {
        let mut sim = Simulation::builder()
            .devices(liger_gpu_sim::DeviceSpec::test_device(), 3)
            .capture_trace(true)
            .build()
            .unwrap();
        let op = priced(LayerOp::AllReduce { bytes: 1024, ranks: 3 }, 20);
        let devices: Vec<DeviceId> = (0..3).map(DeviceId).collect();
        launch_collective(&mut sim, &op, &devices, 2, &NcclConfig::liger_tuned(), 1);
        sim.run_to_completion(&mut Idle);
        let trace = sim.take_trace().unwrap();
        let events = trace.events();
        let mut ranks: Vec<DeviceId> = events.iter().map(|e| e.device).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, devices, "one member kernel per rank");
        let group = events[0].collective.expect("members carry their rendezvous group");
        for e in events {
            assert_eq!(e.collective, Some(group));
            assert_eq!(e.class, KernelClass::Comm);
            assert_eq!((e.tag, e.stream, &*e.name), (1, 2, "nccl_allreduce"));
            assert_eq!(
                (e.started_at, e.ended_at),
                (events[0].started_at, events[0].ended_at),
                "members of one collective start and end together"
            );
        }
    }

    #[test]
    #[should_panic(expected = "compute-only")]
    fn launch_stage_rejects_comm_ops() {
        let mut sim =
            Simulation::builder().device(liger_gpu_sim::DeviceSpec::test_device()).build().unwrap();
        let op = priced(LayerOp::AllReduce { bytes: 1, ranks: 2 }, 1);
        launch_stage(&mut sim, &[op], DeviceId(0), 0, 0);
    }
}
