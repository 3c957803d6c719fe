//! Static introspection of the engine's launch behavior.
//!
//! [`LaunchProgram::from_plans`] runs the engine's own round-launch sequence
//! over a list of [`RoundPlan`]s — comm-subset-first ordering, the hybrid
//! E1/E2 events of §3.4, the previous round's E2 gating the secondary
//! stream, per-round dependency events, the promoted-batch cross-stream
//! wait and the CPU–GPU mode's round-end records — against a recorder
//! instead of the simulator, so it yields the program as data. There is no
//! second copy of the launch logic to keep in step. The static plan
//! verifier in `liger-verify` proves properties (deadlock freedom,
//! wait-graph acyclicity, collective matching) over this program, and the
//! model checker explores its interleavings, *before* anything runs.
//!
//! Host-side notifications (`notify_on_event`, `host_sync`) are not
//! recorded: they never enqueue device work, so they cannot participate in
//! a device-side deadlock.

use std::collections::BTreeMap;

use liger_gpu_sim::{DeviceId, EventId, KernelClass};

use crate::config::SyncMode;
use crate::launch::{LaunchTarget, Launcher, Notify};
use crate::scheduler::{LaunchItem, RoundPlan};

/// One device-side operation of the launch program, in lane order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// A kernel launch. `collective` groups the rendezvous members of one
    /// communication op across devices; compute kernels carry `None`.
    Kernel {
        /// Owning batch id.
        batch: u64,
        /// Compute or communication.
        class: KernelClass,
        /// Rendezvous group, shared by every member lane.
        collective: Option<u64>,
    },
    /// `cudaEventRecord`: the event fires when the lane reaches this point.
    Record {
        /// Program-unique event id.
        event: u64,
    },
    /// `cudaStreamWaitEvent`: the lane stalls here until the event fires.
    Wait {
        /// Program-unique event id.
        event: u64,
    },
}

/// The statically predicted device-side launch program: per-lane op lists,
/// where a lane is one `(device, stream)` pair.
#[derive(Debug, Clone, Default)]
pub struct LaunchProgram {
    /// Ops per `(device, stream)`, each in enqueue order.
    pub lanes: BTreeMap<(usize, usize), Vec<PlanOp>>,
}

/// The launch target that records instead of launching, numbering events
/// and collectives in issue order.
#[derive(Default)]
struct Recorder {
    lanes: BTreeMap<(usize, usize), Vec<PlanOp>>,
    next_event: u64,
    next_collective: u64,
}

impl LaunchTarget for Recorder {
    fn record(&mut self, device: DeviceId, stream: usize) -> EventId {
        let event = self.next_event;
        self.next_event += 1;
        self.lanes.entry((device.0, stream)).or_default().push(PlanOp::Record { event });
        EventId(event)
    }

    fn wait(&mut self, device: DeviceId, stream: usize, event: EventId) {
        self.lanes.entry((device.0, stream)).or_default().push(PlanOp::Wait { event: event.0 });
    }

    fn launch(&mut self, devices: &[DeviceId], item: &LaunchItem, stream: usize) {
        let class = item.op.class();
        let collective = (class == KernelClass::Comm).then(|| {
            let c = self.next_collective;
            self.next_collective += 1;
            c
        });
        for &d in devices {
            let op = PlanOp::Kernel { batch: item.batch, class, collective };
            self.lanes.entry((d.0, stream)).or_default().push(op);
        }
    }

    fn notify(&mut self, _: DeviceId, _: EventId, _: Notify) {}
}

impl LaunchProgram {
    /// Records the program the engine launches for `plans` over devices
    /// `0..world` in synchronization mode `mode`.
    pub fn from_plans(plans: &[RoundPlan], world: usize, mode: SyncMode) -> LaunchProgram {
        assert!(world > 0, "launch program needs at least one device");
        let devices: Vec<DeviceId> = (0..world).map(DeviceId).collect();
        let mut recorder = Recorder::default();
        let mut launcher = Launcher::default();
        for plan in plans {
            launcher.launch_round(&mut recorder, &devices, plan, mode);
        }
        LaunchProgram { lanes: recorder.lanes }
    }

    /// Ops in one lane, empty when the lane was never touched.
    pub fn lane(&self, device: usize, stream: usize) -> &[PlanOp] {
        self.lanes.get(&(device, stream)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total ops across every lane.
    pub fn len(&self) -> usize {
        self.lanes.values().map(Vec::len).sum()
    }

    /// True when no lane holds any op.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use liger_gpu_sim::SimDuration;

    use super::*;
    use crate::launch::{PRIMARY_STREAM, SECONDARY_STREAM};

    fn item(batch: u64, comm: bool, completes: bool) -> LaunchItem {
        let op = if comm {
            liger_model::LayerOp::AllReduce { bytes: 1 << 20, ranks: 2 }
        } else {
            liger_model::LayerOp::Gelu { rows: 64, width: 64 }
        };
        let placed = liger_model::PlacedOp { layer: 0, op };
        LaunchItem {
            batch,
            op: liger_model::PricedOp { placed, duration: SimDuration::from_micros(10) },
            completes_batch: completes,
        }
    }

    fn plan(primary: Vec<LaunchItem>, secondary: Vec<LaunchItem>, comm_primary: bool) -> RoundPlan {
        let class = if comm_primary { KernelClass::Comm } else { KernelClass::Compute };
        RoundPlan { primary, secondary, primary_class: class, window: SimDuration::from_micros(10) }
    }

    #[test]
    fn secondary_waits_on_previous_rounds_e2() {
        let plans = vec![
            plan(vec![item(0, false, false)], vec![], false),
            plan(vec![item(0, false, false)], vec![item(1, true, false)], false),
        ];
        let prog = LaunchProgram::from_plans(&plans, 2, SyncMode::Hybrid);
        // Round 0 recorded E2 per device; round 1's secondary lane on each
        // device must begin with a wait on its own device's E2.
        for d in 0..2 {
            let lane = prog.lane(d, SECONDARY_STREAM);
            assert!(
                matches!(lane.first(), Some(PlanOp::Wait { .. })),
                "device {d} secondary lane must be gated: {lane:?}"
            );
        }
        // The two devices wait on *different* events (per-device E2).
        let ev = |d: usize| match prog.lane(d, SECONDARY_STREAM)[0] {
            PlanOp::Wait { event } => event,
            ref op => panic!("expected wait, got {op:?}"),
        };
        assert_ne!(ev(0), ev(1));
    }

    #[test]
    fn promoted_batch_waits_on_dependency_events() {
        // Batch 1 runs secondary in round 0, then primary in round 1: its
        // stream-0 run must wait on round 0's dependency events.
        let plans = vec![
            plan(vec![item(0, false, true)], vec![item(1, true, false)], false),
            plan(vec![item(1, false, false)], vec![], false),
        ];
        let prog = LaunchProgram::from_plans(&plans, 2, SyncMode::InterStream);
        for d in 0..2 {
            let lane = prog.lane(d, PRIMARY_STREAM);
            assert!(
                lane.iter().any(|op| matches!(op, PlanOp::Wait { .. })),
                "device {d} primary lane must wait for the promoted batch: {lane:?}"
            );
        }
    }

    #[test]
    fn collectives_fan_out_with_shared_ids() {
        let plans = vec![plan(vec![item(0, true, false)], vec![item(1, false, false)], true)];
        let prog = LaunchProgram::from_plans(&plans, 4, SyncMode::InterStream);
        let collective_of = |d: usize| {
            prog.lane(d, PRIMARY_STREAM)
                .iter()
                .find_map(|op| match op {
                    PlanOp::Kernel { collective, .. } => *collective,
                    _ => None,
                })
                .expect("comm kernel present")
        };
        let c0 = collective_of(0);
        for d in 1..4 {
            assert_eq!(collective_of(d), c0, "collective id must match across devices");
        }
        // Compute fan-out carries no collective.
        for d in 0..4 {
            for op in prog.lane(d, SECONDARY_STREAM) {
                if let PlanOp::Kernel { collective, .. } = op {
                    assert_eq!(*collective, None);
                }
            }
        }
    }

    #[test]
    fn hybrid_places_e1_before_last_primary_kernel() {
        let plans = vec![plan(vec![item(0, false, false), item(0, false, false)], vec![], false)];
        let prog = LaunchProgram::from_plans(&plans, 2, SyncMode::Hybrid);
        let lane = prog.lane(0, PRIMARY_STREAM);
        // kernel, E1 record, kernel, E2 record.
        assert!(matches!(lane[0], PlanOp::Kernel { .. }));
        assert!(matches!(lane[1], PlanOp::Record { .. }));
        assert!(matches!(lane[2], PlanOp::Kernel { .. }));
        assert!(matches!(lane[3], PlanOp::Record { .. }));
    }

    #[test]
    fn cpu_gpu_rounds_end_with_a_record_on_every_lane() {
        let plans = vec![
            plan(vec![item(0, false, false)], vec![item(1, true, false)], false),
            plan(vec![item(0, true, true)], vec![], true),
        ];
        let cpu_gpu = LaunchProgram::from_plans(&plans, 2, SyncMode::CpuGpu);
        let inter_stream = LaunchProgram::from_plans(&plans, 2, SyncMode::InterStream);
        let records = |prog: &LaunchProgram, d: usize, s: usize| {
            prog.lane(d, s).iter().filter(|op| matches!(op, PlanOp::Record { .. })).count()
        };
        for d in 0..2 {
            for s in [PRIMARY_STREAM, SECONDARY_STREAM] {
                // One round-end record per (device, stream) per round.
                assert_eq!(
                    records(&cpu_gpu, d, s),
                    records(&inter_stream, d, s) + plans.len(),
                    "lane ({d},{s})"
                );
                // The round-end record is the last op of each lane.
                assert!(matches!(cpu_gpu.lane(d, s).last(), Some(PlanOp::Record { .. })));
            }
        }
        assert_ne!(cpu_gpu.lanes, inter_stream.lanes);
    }
}
