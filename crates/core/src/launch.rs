//! The round-launch sequence (§3.4), written once.
//!
//! [`Launcher::launch_round`] issues one [`RoundPlan`] onto two streams of
//! every device — the communication subset first, the hybrid E1 event just
//! before the primary run's last kernel, one E2 per device after it gating
//! the next round's secondary stream, one dependency event per device after
//! the secondary subset, and the wait a promoted batch's first primary
//! kernel needs on those. It is generic over a [`LaunchTarget`]: the engine
//! drives the simulator through it, and
//! [`LaunchProgram::from_plans`](crate::introspect::LaunchProgram::from_plans)
//! records the same calls as data for the verifier.

use liger_gpu_sim::{DeviceId, EventId, KernelClass, SimDuration};

use crate::config::SyncMode;
use crate::scheduler::{LaunchItem, RoundPlan};

/// Stream carrying primary subsets (the earliest batch's runs).
pub(crate) const PRIMARY_STREAM: usize = 0;
/// Stream carrying secondary subsets (opposite-class kernels from later
/// batches).
pub(crate) const SECONDARY_STREAM: usize = 1;

/// The host-side notification points of the sequence. None of them
/// enqueues device work.
#[derive(Clone, Copy)]
pub(crate) enum Notify {
    /// Hybrid E1 of `round`: the primary run's last kernel is about to start.
    E1 { round: u64 },
    /// The batch's final kernel has finished.
    BatchDone { batch: u64 },
    /// End of `round`'s primary window (rounds with a secondary subset).
    PrimaryEnd { round: u64, window: SimDuration },
    /// End of `round`'s secondary subset.
    SecondaryEnd { round: u64 },
    /// CPU–GPU mode: one stream has drained `round`.
    RoundSync { round: u64 },
}

/// The device-side operations the launch sequence issues.
pub(crate) trait LaunchTarget {
    /// Records an event on `stream` of `device`.
    fn record(&mut self, device: DeviceId, stream: usize) -> EventId;
    /// Makes `stream` of `device` wait for `event`.
    fn wait(&mut self, device: DeviceId, stream: usize, event: EventId);
    /// Launches `item` on `stream` of every device: compute as one kernel
    /// per device, comm as one rendezvous collective.
    fn launch(&mut self, devices: &[DeviceId], item: &LaunchItem, stream: usize);
    /// Asks `device`'s host to be told when `event` fires.
    fn notify(&mut self, device: DeviceId, event: EventId, note: Notify);
}

/// The launch state carried from round to round.
#[derive(Default)]
pub(crate) struct Launcher {
    round: u64,
    /// The previous round's per-device E2 events, gating this round's
    /// secondary stream.
    prev_e2: Option<Vec<EventId>>,
    /// The E2 list of the round before that, kept to be refilled: rounds
    /// alternate between the two buffers instead of allocating a list each.
    spare_e2: Vec<EventId>,
    /// Batches whose latest kernels went to the secondary stream, each with
    /// its own copy of the per-device dependency events recorded after them.
    /// An entry goes when the batch is promoted to primary or its completing
    /// item launches.
    on_secondary: Vec<(u64, Vec<EventId>)>,
    /// Emptied dependency lists, refilled instead of allocating: an entry's
    /// list comes from here and returns here when the entry goes.
    spare_deps: Vec<Vec<EventId>>,
}

impl Launcher {
    /// Forgets the previous round's E2 gate and every batch's stream state
    /// (a replan abandons them all). The round counter keeps counting.
    pub(crate) fn reset(&mut self) {
        self.prev_e2 = None;
        let lists = self.on_secondary.drain(..).map(|(_, deps)| deps);
        self.spare_deps.extend(lists);
    }

    /// An empty dependency list, recycled when one is spare.
    fn take_deps(&mut self) -> Vec<EventId> {
        let mut deps = self.spare_deps.pop().unwrap_or_default();
        deps.clear();
        deps
    }

    /// Removes `batch`'s secondary-stream entry, if any, and returns its
    /// dependency list. The caller hands the list back through
    /// `spare_deps` once it has read it.
    fn untrack(&mut self, batch: u64) -> Option<Vec<EventId>> {
        let i = self.on_secondary.iter().position(|&(b, _)| b == batch)?;
        Some(self.on_secondary.remove(i).1)
    }

    /// Launches one round's subsets on `devices` and returns the number of
    /// batch completions it registered.
    pub(crate) fn launch_round<T: LaunchTarget>(
        &mut self,
        t: &mut T,
        devices: &[DeviceId],
        plan: &RoundPlan,
        mode: SyncMode,
    ) -> u32 {
        let round = self.round;
        self.round += 1;
        // The secondary stream is gated on the *previous* round's E2; take
        // it before the primary subset records this round's.
        let gate = self.prev_e2.take();
        // The communication subset is launched first: its rendezvous
        // benefits most from reaching the devices early.
        let mut completions = 0;
        if plan.primary_class == KernelClass::Comm {
            completions += self.launch_primary(t, devices, plan, round, mode);
            completions += self.launch_secondary(t, devices, plan, round, gate.as_deref());
        } else {
            completions += self.launch_secondary(t, devices, plan, round, gate.as_deref());
            completions += self.launch_primary(t, devices, plan, round, mode);
        }
        if let Some(gate) = gate {
            self.spare_e2 = gate;
        }
        if mode == SyncMode::CpuGpu {
            // Block every host on both of its streams having drained.
            for &d in devices {
                for stream in [PRIMARY_STREAM, SECONDARY_STREAM] {
                    let ev = t.record(d, stream);
                    t.notify(d, ev, Notify::RoundSync { round });
                }
            }
        }
        completions
    }

    fn launch_primary<T: LaunchTarget>(
        &mut self,
        t: &mut T,
        devices: &[DeviceId],
        plan: &RoundPlan,
        round: u64,
        mode: SyncMode,
    ) -> u32 {
        // Cross-stream dependency: a batch whose previous kernels ran on the
        // secondary stream must not start its stream-0 run before them.
        if let Some(deps) = self.untrack(plan.primary[0].batch) {
            for (&d, &ev) in devices.iter().zip(&deps) {
                t.wait(d, PRIMARY_STREAM, ev);
            }
            self.spare_deps.push(deps);
        }
        let mut completions = 0;
        let last = plan.primary.len() - 1;
        for (idx, item) in plan.primary.iter().enumerate() {
            // E1 sits immediately before the kernel whose successor switches
            // type (the run's last kernel).
            if mode == SyncMode::Hybrid && idx == last {
                let e1 = t.record(devices[0], PRIMARY_STREAM);
                t.notify(devices[0], e1, Notify::E1 { round });
            }
            completions += launch_item(t, devices, item, PRIMARY_STREAM);
        }
        // E2 after the run's last kernel, one per device: the next round's
        // secondary stream waits on it. Hybrid mode uses it as the CPU-free
        // inter-stream gate; the other modes still chain rounds on it so
        // they cannot slide over each other.
        let mut e2 = std::mem::take(&mut self.spare_e2);
        e2.clear();
        e2.extend(devices.iter().map(|&d| t.record(d, PRIMARY_STREAM)));
        if !plan.secondary.is_empty() {
            // Rounds without a secondary subset have no window to compare.
            t.notify(devices[0], e2[0], Notify::PrimaryEnd { round, window: plan.window });
        }
        self.prev_e2 = Some(e2);
        completions
    }

    fn launch_secondary<T: LaunchTarget>(
        &mut self,
        t: &mut T,
        devices: &[DeviceId],
        plan: &RoundPlan,
        round: u64,
        gate: Option<&[EventId]>,
    ) -> u32 {
        if plan.secondary.is_empty() {
            return 0;
        }
        for (&d, &ev) in devices.iter().zip(gate.unwrap_or_default()) {
            t.wait(d, SECONDARY_STREAM, ev);
        }
        let mut completions = 0;
        for item in &plan.secondary {
            completions += launch_item(t, devices, item, SECONDARY_STREAM);
        }
        // One dependency event per device covers every secondary batch of
        // this round; each batch's entry keeps its own copy of the list.
        let mut deps = self.take_deps();
        deps.extend(devices.iter().map(|&d| t.record(d, SECONDARY_STREAM)));
        t.notify(devices[0], deps[0], Notify::SecondaryEnd { round });
        for item in &plan.secondary {
            if let Some(stale) = self.untrack(item.batch) {
                self.spare_deps.push(stale);
            }
            if !item.completes_batch {
                let mut own = self.take_deps();
                own.extend_from_slice(&deps);
                self.on_secondary.push((item.batch, own));
            }
        }
        self.spare_deps.push(deps);
        completions
    }
}

/// Launches one item on `stream` of every device — a comm item is skipped
/// on a single device, which has nobody to rendezvous with — followed by the
/// batch-completion notification when the item is the batch's last.
fn launch_item<T: LaunchTarget>(
    t: &mut T,
    devices: &[DeviceId],
    item: &LaunchItem,
    stream: usize,
) -> u32 {
    if item.op.class() == KernelClass::Compute || devices.len() > 1 {
        t.launch(devices, item, stream);
    }
    if !item.completes_batch {
        return 0;
    }
    let ev = t.record(devices[0], stream);
    t.notify(devices[0], ev, Notify::BatchDone { batch: item.batch });
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_model::{LayerOp, PlacedOp, PricedOp};

    /// Counts events and drops everything else.
    struct Null(u64);

    impl LaunchTarget for Null {
        fn record(&mut self, _: DeviceId, _: usize) -> EventId {
            self.0 += 1;
            EventId(self.0)
        }
        fn wait(&mut self, _: DeviceId, _: usize, _: EventId) {}
        fn launch(&mut self, _: &[DeviceId], _: &LaunchItem, _: usize) {}
        fn notify(&mut self, _: DeviceId, _: EventId, _: Notify) {}
    }

    fn item(batch: u64, class: KernelClass, completes: bool) -> LaunchItem {
        let op = match class {
            KernelClass::Compute => LayerOp::Gelu { rows: 64, width: 64 },
            KernelClass::Comm => LayerOp::AllReduce { bytes: 1 << 20, ranks: 2 },
        };
        let placed = PlacedOp { layer: 0, op };
        let op = PricedOp { placed, duration: SimDuration::from_micros(10) };
        LaunchItem { batch, op, completes_batch: completes }
    }

    #[test]
    fn batch_state_ends_with_the_batch() {
        use KernelClass::*;
        let devices = [DeviceId(0), DeviceId(1)];
        let round = |primary, secondary, class| RoundPlan {
            primary,
            secondary,
            primary_class: class,
            window: SimDuration::from_micros(10),
        };
        let mut launcher = Launcher::default();
        let mut t = Null(0);
        // Batches 1 and 2 run on the secondary stream; batch 1 finishes
        // there, batch 2 is later promoted to primary.
        let plans = [
            round(
                vec![item(0, Compute, false)],
                vec![item(1, Comm, false), item(2, Comm, false)],
                Compute,
            ),
            round(
                vec![item(0, Comm, true)],
                vec![item(1, Compute, true), item(2, Compute, false)],
                Comm,
            ),
            round(vec![item(2, Compute, true)], vec![], Compute),
        ];
        launcher.launch_round(&mut t, &devices, &plans[0], SyncMode::Hybrid);
        let tracked = |l: &Launcher| l.on_secondary.iter().map(|&(b, _)| b).collect::<Vec<_>>();
        assert_eq!(tracked(&launcher), [1, 2]);
        launcher.launch_round(&mut t, &devices, &plans[1], SyncMode::Hybrid);
        assert_eq!(tracked(&launcher), [2], "a batch completing on the secondary is dropped");
        launcher.launch_round(&mut t, &devices, &plans[2], SyncMode::Hybrid);
        assert!(launcher.on_secondary.is_empty(), "a promoted batch is dropped");
        // Three lists were ever taken (round 0's shared record plus two
        // entries); every one is back in the pool for later rounds.
        assert_eq!(launcher.spare_deps.len(), 3);
        launcher.launch_round(&mut t, &devices, &plans[0], SyncMode::Hybrid);
        launcher.reset();
        assert!(launcher.on_secondary.is_empty());
        assert_eq!(launcher.spare_deps.len(), 3, "reset returns the entries' lists");
    }
}
