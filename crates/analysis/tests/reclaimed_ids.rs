//! The simulator reclaims an event's record once it has fired and nothing
//! reads it any more; its id stays valid and answers "fired". A stream
//! wait on such an id resolves at once and logs its `Wait` mark under the
//! original id, so the trace must still pair it with the event's `Record`
//! mark and sanitize clean.
//!
//! A freed device-memory allocation keeps only its device. A double free
//! long after the first must still be charged to that device and leave a
//! `Free` mark naming it, so the sanitizer reports TS-DOUBLE-FREE there.

use liger_gpu_sim::prelude::*;
use liger_verify::sanitize;

const ROUNDS: u64 = 2_000;

/// Records `first` behind a kernel on gpu0, then churns through `ROUNDS`
/// short-lived events, then makes gpu1 wait on `first` before a kernel.
struct StaleWait {
    first: Option<EventId>,
}

impl Driver for StaleWait {
    fn start(&mut self, sim: &mut Simulation) {
        let s0 = StreamId::new(DeviceId(0), 0);
        sim.launch(HostId(0), s0, KernelSpec::compute("a", SimDuration::from_micros(10)));
        self.first = Some(sim.record_event(HostId(0), s0));
        sim.set_timer(SimTime::from_micros(20), 1);
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        let Wake::Timer { token } = wake else { return };
        if token < ROUNDS {
            sim.record_event(HostId(0), StreamId::new(DeviceId(0), 1));
            sim.set_timer(sim.now() + SimDuration::from_micros(1), token + 1);
        } else {
            let s1 = StreamId::new(DeviceId(1), 0);
            sim.stream_wait(HostId(1), s1, self.first.expect("recorded at start"));
            sim.launch(HostId(1), s1, KernelSpec::compute("b", SimDuration::from_micros(5)));
        }
    }
}

#[test]
fn a_wait_on_a_reclaimed_event_sanitizes_clean() {
    let mut sim = Simulation::builder()
        .devices(DeviceSpec::test_device(), 2)
        .capture_trace(true)
        .build()
        .unwrap();
    let mut driver = StaleWait { first: None };
    sim.run_to_completion(&mut driver);
    assert_eq!(sim.live_events(), 0, "every event fired and was reclaimed");
    assert!(sim.event_has_fired(driver.first.unwrap()));
    let trace = sim.take_trace().unwrap();
    let waits = trace.marks().iter().filter(|m| matches!(m, TraceMark::Wait { event: 0, .. }));
    assert_eq!(waits.count(), 1);
    let diags = sanitize(&trace);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn a_double_free_long_after_reclaim_is_traced_on_its_device() {
    let mut sim = Simulation::builder()
        .devices(DeviceSpec::test_device(), 4)
        .capture_trace(true)
        .build()
        .unwrap();
    let victim = sim.alloc_memory(DeviceId(2), 4096, "act").unwrap();
    sim.free_memory(victim);
    for i in 0..5_000 {
        let churn = sim.alloc_memory(DeviceId(i % 4), 64, "kv").unwrap();
        sim.free_memory(churn);
    }
    // In debug builds the second free also fires the tracker's assertion;
    // silence the default hook so the expected panic doesn't spam stderr.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.free_memory(victim)));
    std::panic::set_hook(prev);
    assert_eq!(hit.is_err(), cfg!(debug_assertions));
    assert_eq!(sim.memory_double_frees_on(DeviceId(2)), 1);
    assert_eq!(sim.memory_double_frees(), 1);
    assert_eq!(sim.memory_in_use(DeviceId(2)), 0);

    let trace = sim.take_trace().unwrap();
    let frees: Vec<DeviceId> = trace
        .marks()
        .iter()
        .filter_map(|m| match m {
            TraceMark::Free { id, device, .. } if *id == victim.0 => Some(*device),
            _ => None,
        })
        .collect();
    assert_eq!(frees, vec![DeviceId(2), DeviceId(2)]);
    let diags = sanitize(&trace);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].rule, diags[0].device), ("TS-DOUBLE-FREE", Some(2)));
}
