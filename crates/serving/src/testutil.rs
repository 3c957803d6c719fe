//! Test fixtures shared by the serving drivers' unit tests.

use liger_gpu_sim::{
    DeviceId, DeviceSpec, FaultSpec, HostId, HostSpec, KernelSpec, SimDuration, SimTime,
    Simulation, StreamId, Wake,
};
use liger_model::Phase;

use crate::engine::InferenceEngine;
use crate::request::Request;

/// A `world`-device simulation of test devices with instant hosts.
pub(crate) fn sim(world: usize, faults: FaultSpec) -> Simulation {
    let mut b = Simulation::builder().devices(DeviceSpec::test_device(), world).faults(faults);
    for _ in 0..world {
        b = b.host(HostSpec::instant());
    }
    b.build().unwrap()
}

/// A one-kernel-per-request engine with honest device-loss support:
/// requests run round-robin across its devices (prefills for
/// `prefill_us`, decode steps for `decode_us`), a replan abandons all
/// in-flight work and bumps the completion epoch so stale records are
/// ignored.
pub(crate) struct StepToy {
    devices: Vec<DeviceId>,
    next: usize,
    epoch: u64,
    prefill_us: u64,
    decode_us: u64,
    inflight: Vec<u64>,
    done: Vec<(u64, SimTime)>,
    /// Batch rows of every decode step submitted.
    pub(crate) decode_batches: Vec<u32>,
    /// Sequence length of every prefill submitted.
    pub(crate) prefill_lens: Vec<u32>,
}

impl StepToy {
    /// Prefill 10us, decode 2us.
    pub(crate) fn new(world: usize) -> StepToy {
        StepToy::with_times(world, 10, 2)
    }

    pub(crate) fn with_times(world: usize, prefill_us: u64, decode_us: u64) -> StepToy {
        StepToy {
            devices: (0..world).map(DeviceId).collect(),
            next: 0,
            epoch: 0,
            prefill_us,
            decode_us,
            inflight: Vec::new(),
            done: Vec::new(),
            decode_batches: Vec::new(),
            prefill_lens: Vec::new(),
        }
    }

    fn replan(&mut self, devices: &[DeviceId]) -> Vec<u64> {
        self.epoch += 1;
        self.devices = devices.to_vec();
        self.next = 0;
        let mut ids = std::mem::take(&mut self.inflight);
        ids.sort_unstable();
        ids
    }
}

impl InferenceEngine for StepToy {
    fn name(&self) -> &'static str {
        "step-toy"
    }
    fn submit(&mut self, request: Request, sim: &mut Simulation) {
        let us = match request.shape.phase {
            Phase::Prefill { seq_len } => {
                self.prefill_lens.push(seq_len);
                self.prefill_us
            }
            Phase::Decode { .. } => {
                self.decode_batches.push(request.shape.batch);
                self.decode_us
            }
        };
        let d = self.devices[self.next % self.devices.len()];
        self.next += 1;
        let stream = StreamId::new(d, 0);
        sim.launch(
            HostId(d.0),
            stream,
            KernelSpec::compute("it", SimDuration::from_micros(us)).with_tag(request.id),
        );
        let ev = sim.record_event(HostId(d.0), stream);
        sim.notify_on_event(ev, HostId(d.0), (self.epoch << 48) | request.id);
        self.inflight.push(request.id);
    }
    fn on_wake(&mut self, wake: Wake, _: &mut Simulation) {
        if let Wake::EventFired { token, fired_at, .. } = wake {
            if token >> 48 != self.epoch {
                return; // stale completion from before a replan
            }
            let id = token & ((1 << 48) - 1);
            self.inflight.retain(|&x| x != id);
            self.done.push((id, fired_at));
        }
    }
    fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
        std::mem::take(&mut self.done)
    }
    fn on_device_loss(
        &mut self,
        _: DeviceId,
        survivors: &[DeviceId],
        _: &mut Simulation,
    ) -> Vec<u64> {
        self.replan(survivors)
    }
    fn on_device_rejoin(
        &mut self,
        _: DeviceId,
        devices: &[DeviceId],
        _: &mut Simulation,
    ) -> Vec<u64> {
        self.replan(devices)
    }
}
