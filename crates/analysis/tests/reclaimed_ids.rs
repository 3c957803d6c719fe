//! The simulator reclaims an event's record once it has fired and nothing
//! reads it any more; its id stays valid and answers "fired". A stream
//! wait on such an id resolves at once and logs its `Wait` mark under the
//! original id, so the trace must still pair it with the event's `Record`
//! mark and sanitize clean.

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
    sim.run_to_completion_with(CoreSelect::Seq, &mut driver);
    assert_eq!(sim.live_events(), 0, "every event fired and was reclaimed");
    assert!(sim.event_has_fired(driver.first.unwrap()));
    let trace = sim.take_trace().unwrap();
    let waits = trace.marks().iter().filter(|m| matches!(m, TraceMark::Wait { event: 0, .. }));
    assert_eq!(waits.count(), 1);
    let diags = sanitize(&trace);
    assert!(diags.is_empty(), "{diags:?}");
}
