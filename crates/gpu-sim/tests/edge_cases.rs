//! Edge-case behavior of the discrete-event engine: degenerate schedules,
//! stale events, blocked hosts, and interleaving of the lag model with
//! collectives.

use liger_gpu_sim::prelude::*;

struct Script<F: FnMut(&mut Simulation), G: FnMut(Wake, &mut Simulation)> {
    start: F,
    wake: G,
}

impl<F: FnMut(&mut Simulation), G: FnMut(Wake, &mut Simulation)> Driver for Script<F, G> {
    fn start(&mut self, sim: &mut Simulation) {
        (self.start)(sim);
    }
    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        (self.wake)(wake, sim);
    }
}

fn sim(devices: usize) -> Simulation {
    let mut b =
        Simulation::builder().devices(DeviceSpec::test_device(), devices).capture_trace(true);
    for _ in 0..devices {
        b = b.host(HostSpec::instant());
    }
    b.build().unwrap()
}

#[test]
fn empty_simulation_terminates_immediately() {
    let mut s = sim(1);
    let end = s.run_to_completion(&mut Script { start: |_: &mut Simulation| {}, wake: |_, _| {} });
    assert_eq!(end, SimTime::ZERO);
    assert_eq!(s.kernels_completed(), 0);
}

#[test]
fn wait_on_event_that_never_fires_parks_the_queue_forever() {
    // The stream behind the wait must never run; the simulation still
    // terminates because nothing else is pending.
    let mut s = sim(1);
    let mut drv = Script {
        start: |sim: &mut Simulation| {
            let ev = sim.new_event(); // never recorded anywhere
            sim.stream_wait(HostId(0), StreamId::new(DeviceId(0), 0), ev);
            sim.launch(
                HostId(0),
                StreamId::new(DeviceId(0), 0),
                KernelSpec::compute("never", SimDuration::from_micros(5)),
            );
        },
        wake: |_, _| {},
    };
    s.run_to_completion(&mut drv);
    assert_eq!(s.kernels_completed(), 0, "gated kernel must not run");
    assert_eq!(s.kernels_launched(), 1);
}

#[test]
fn record_on_idle_stream_fires_instantly() {
    let mut s = sim(1);
    struct D {
        fired: Option<SimTime>,
    }
    impl Driver for D {
        fn start(&mut self, sim: &mut Simulation) {
            let ev = sim.record_event(HostId(0), StreamId::new(DeviceId(0), 2));
            sim.notify_on_event(ev, HostId(0), 0);
        }
        fn on_wake(&mut self, wake: Wake, _: &mut Simulation) {
            if let Wake::EventFired { fired_at, .. } = wake {
                self.fired = Some(fired_at);
            }
        }
    }
    let mut d = D { fired: None };
    s.run_to_completion(&mut d);
    assert_eq!(d.fired, Some(SimTime::ZERO));
}

#[test]
fn many_streams_share_hardware_queues_round_robin() {
    // connections = 2, four streams: (0,2) -> queue 0, (1,3) -> queue 1.
    let mut s = sim(1);
    let mut drv = Script {
        start: |sim: &mut Simulation| {
            for stream in 0..4usize {
                sim.launch(
                    HostId(0),
                    StreamId::new(DeviceId(0), stream),
                    KernelSpec::compute(format!("k{stream}"), SimDuration::from_micros(10))
                        .with_tag(stream as u64),
                );
            }
        },
        wake: |_, _| {},
    };
    let end = s.run_to_completion(&mut drv);
    // Two queues of two serialized 10us kernels, with same-class sharing
    // slowing concurrent pairs 2x: 0-20us pair one, 20-40us pair two.
    assert_eq!(end, SimTime::from_micros(40));
    let trace = s.take_trace().unwrap();
    let starts: Vec<(u64, SimTime)> =
        trace.events().iter().map(|e| (e.tag, e.started_at)).collect();
    for (tag, start) in starts {
        match tag {
            0 | 1 => assert_eq!(start, SimTime::ZERO),
            2 | 3 => assert_eq!(start, SimTime::from_micros(20)),
            _ => unreachable!(),
        }
    }
}

#[test]
fn collective_after_lag_still_rendezvouses() {
    // Flood device 0's compute queue so its comm kernel pays dispatch lag,
    // while device 1's arrives instantly: the collective still starts
    // simultaneously at the laggard's time.
    let mut s = sim(2);
    let mut drv = Script {
        start: |sim: &mut Simulation| {
            for i in 0..40 {
                sim.launch(
                    HostId(0),
                    StreamId::new(DeviceId(0), 0),
                    KernelSpec::compute(format!("f{i}"), SimDuration::from_micros(1)),
                );
            }
            let c = sim.new_collective(2);
            for d in 0..2 {
                sim.launch(
                    HostId(d),
                    StreamId::new(DeviceId(d), 1),
                    KernelSpec::comm("ar", SimDuration::from_micros(30))
                        .with_collective(c)
                        .with_tag(9),
                );
            }
        },
        wake: |_, _| {},
    };
    s.run_to_completion(&mut drv);
    let trace = s.take_trace().unwrap();
    let ar: Vec<_> = trace.events().iter().filter(|e| e.tag == 9).collect();
    assert_eq!(ar.len(), 2);
    assert_eq!(ar[0].started_at, ar[1].started_at);
    assert!(
        ar[0].started_at >= SimTime::from_nanos((40 - 24) * 400),
        "lag must delay the rendezvous"
    );
    assert_eq!(ar[0].ended_at, ar[1].ended_at);
}

#[test]
fn deadline_mid_kernel_freezes_state_consistently() {
    let mut s = sim(1);
    let mut drv = Script {
        start: |sim: &mut Simulation| {
            sim.launch(
                HostId(0),
                StreamId::new(DeviceId(0), 0),
                KernelSpec::compute("long", SimDuration::from_millis(10)),
            );
        },
        wake: |_, _| {},
    };
    let end = s.run(&mut drv, SimTime::from_millis(3));
    assert_eq!(end, SimTime::from_millis(3));
    assert_eq!(s.kernels_launched(), 1);
    assert_eq!(s.kernels_completed(), 0);
}

#[test]
fn memory_api_is_visible_through_the_simulation() {
    let mut s = sim(1);
    let id = s.alloc_memory(DeviceId(0), 1024, "weights").unwrap();
    assert_eq!(s.memory_in_use(DeviceId(0)), 1024);
    s.free_memory(id);
    assert_eq!(s.memory_in_use(DeviceId(0)), 0);
    assert_eq!(s.memory_peak(DeviceId(0)), 1024);
    // OOM at device capacity (test device: 1 GiB).
    let cap = DeviceSpec::test_device().mem_capacity;
    assert!(s.alloc_memory(DeviceId(0), cap + 1, "too big").is_err());
}

#[test]
#[should_panic(expected = "unknown allocation 3")]
fn freeing_an_allocation_never_made_panics() {
    let mut s = sim(2);
    s.alloc_memory(DeviceId(1), 64, "kv").unwrap();
    s.free_memory(AllocationId(3));
}

#[test]
fn timers_fire_in_order_with_stable_tie_breaking() {
    let mut s = sim(1);
    struct D {
        seen: Vec<u64>,
    }
    impl Driver for D {
        fn start(&mut self, sim: &mut Simulation) {
            sim.set_timer(SimTime::from_micros(10), 1);
            sim.set_timer(SimTime::from_micros(5), 0);
            sim.set_timer(SimTime::from_micros(10), 2); // tie with token 1
        }
        fn on_wake(&mut self, wake: Wake, _: &mut Simulation) {
            if let Wake::Timer { token } = wake {
                self.seen.push(token);
            }
        }
    }
    let mut d = D { seen: vec![] };
    s.run_to_completion(&mut d);
    assert_eq!(d.seen, vec![0, 1, 2], "ties break by registration order");
}
