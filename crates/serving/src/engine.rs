//! The engine abstraction every parallelism strategy implements.
//!
//! An [`InferenceEngine`] runs *inside* a simulation, driven by a serving
//! driver such as [`serve`](crate::runner::serve)'s: the driver delivers
//! arriving requests and routes simulator wakes; the engine launches kernels
//! and reports completed requests, which the driver drains into a buffer it
//! owns and reuses from step to step.

use liger_gpu_sim::{DeviceId, SimTime, Simulation, Wake};

use crate::request::Request;

/// Wake-token namespace split between the runner and engines: tokens with
/// the top bit set belong to the runner (arrival timers); everything below
/// is engine-private.
pub const RUNNER_TOKEN_BASE: u64 = 1 << 63;

/// A distributed inference engine (Intra-Op, Inter-Op, Inter-Th, or Liger).
pub trait InferenceEngine {
    /// Engine name for reports (e.g. `"Liger"`, `"Intra-Op"`).
    fn name(&self) -> &'static str;

    /// A new request arrived (called at its arrival instant, inside the
    /// simulation). The engine queues or launches it.
    fn submit(&mut self, request: Request, sim: &mut Simulation);

    /// A simulator wake addressed to the engine (token below
    /// [`RUNNER_TOKEN_BASE`]). The oracle [`Wake::DeviceDown`] is never
    /// delivered: an engine learns of a loss only through
    /// [`InferenceEngine::on_device_loss`], once a watchdog confirms it.
    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation);

    /// Requests that finished since the last drain: `(request id, GPU-side
    /// completion instant)`, in completion order.
    ///
    /// Drivers never call this; they drain through
    /// [`InferenceEngine::drain_completions_into`]. It remains the required
    /// method only because perfbench's `Traced` wrapper implements it: the
    /// benchmark change that moves `Traced` to `drain_completions_into`
    /// deletes this method and makes `drain_completions_into` the required
    /// one.
    fn drain_completions(&mut self) -> Vec<(u64, SimTime)>;

    /// Appends the requests that finished since the last drain to `out`, in
    /// completion order, as [`InferenceEngine::drain_completions`] returns
    /// them. Every driver drains through this method into one buffer it
    /// reuses, so an engine that appends from a list it keeps (instead of
    /// handing the list out) drains without allocating.
    fn drain_completions_into(&mut self, out: &mut Vec<(u64, SimTime)>) {
        out.append(&mut self.drain_completions());
    }

    /// A device was confirmed permanently lost (by the health watchdog, not
    /// an oracle). The engine must stop tracking every in-flight and queued
    /// request, rebuild its placement over `survivors`, and return the ids
    /// of the requests it abandoned — the caller resubmits them (subject to
    /// admission control). Engines without elastic-recovery support keep
    /// the default: change nothing, abandon nothing.
    fn on_device_loss(
        &mut self,
        dead: DeviceId,
        survivors: &[DeviceId],
        sim: &mut Simulation,
    ) -> Vec<u64> {
        let _ = (dead, survivors, sim);
        Vec::new()
    }

    /// A previously lost device was confirmed healthy again (it answered
    /// probes through the watchdog's quarantine period). The engine must
    /// replan over `devices` — the full post-rejoin set including
    /// `rejoined` — and, as with [`InferenceEngine::on_device_loss`],
    /// return the ids of the in-flight requests it abandoned for the
    /// caller to resubmit. Engines without elastic re-expansion keep the
    /// default: change nothing, abandon nothing.
    fn on_device_rejoin(
        &mut self,
        rejoined: DeviceId,
        devices: &[DeviceId],
        sim: &mut Simulation,
    ) -> Vec<u64> {
        let _ = (rejoined, devices, sim);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_namespace_leaves_room() {
        assert!(RUNNER_TOKEN_BASE > u32::MAX as u64);
        assert_eq!(RUNNER_TOKEN_BASE & (RUNNER_TOKEN_BASE - 1), 0, "base is a power of two");
    }
}
