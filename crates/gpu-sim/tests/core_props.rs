//! Lane-order property tests: the explore core, following the canonical
//! schedule, must be observationally indistinguishable from the sequential
//! core.
//!
//! Every property drives one random, fault-injected workload — plain
//! kernels, collectives, reactive timers and cross-stream event chains —
//! through [`SequentialCore`] and through [`ExploreCore`] with an empty
//! schedule under both [`WindowRule`]s, then compares the *bytes* of the
//! exported Chrome traces and every public counter. The explore core finds
//! its choice points by reasoning about which lane heads commute; with no
//! schedule it must still take the canonical `(time, lane rank, lane seq)`
//! branch at each, so any divergence in dispatch order or fault
//! application shows up as a trace diff.
//!
//! Runs on the internal [`liger_gpu_sim::testkit`] harness; rerun a failing
//! case with the `LIGER_PROP_SEED` it prints. One seed (`0xfa0175`) is
//! additionally pinned as a plain regression test.

use liger_gpu_sim::prelude::*;
use liger_gpu_sim::testkit::{check, Gen};
use liger_gpu_sim::{KernelFaultParams, LaunchSpikeParams};

/// One step of a randomized launch plan.
#[derive(Debug, Clone)]
enum PlanOp {
    /// A plain kernel on one device.
    Single { device: usize, stream: usize, compute: bool, work_us: u64 },
    /// An all-device collective (rendezvous + simultaneous completion).
    Collective { stream: usize, work_us: u64 },
    /// A timer whose wake launches a follow-up kernel — exercises driver
    /// wakes (global lane) interleaving with device-local work.
    Timer { at_us: u64, device: usize, stream: usize, work_us: u64 },
    /// Producer kernel, recorded event, and a dependent kernel behind a
    /// `stream_wait` on another stream of the same device.
    Chain { device: usize, from: usize, to: usize, work_us: u64 },
}

fn gen_plan(g: &mut Gen, devices: usize) -> Vec<PlanOp> {
    g.vec_of(1, 32, |g| match g.usize_in(0, 8) {
        0..=3 => PlanOp::Single {
            device: g.usize_in(0, devices),
            stream: g.usize_in(0, 4),
            compute: g.bool(),
            work_us: g.u64_in(1, 400),
        },
        4 | 5 => PlanOp::Collective { stream: g.usize_in(0, 4), work_us: g.u64_in(1, 400) },
        6 => PlanOp::Timer {
            at_us: g.u64_in(0, 2_000),
            device: g.usize_in(0, devices),
            stream: g.usize_in(0, 4),
            work_us: g.u64_in(1, 200),
        },
        _ => {
            let from = g.usize_in(0, 4);
            PlanOp::Chain {
                device: g.usize_in(0, devices),
                from,
                to: (from + 1 + g.usize_in(0, 3)) % 4,
                work_us: g.u64_in(1, 300),
            }
        }
    })
}

/// A randomized fault schedule: stragglers, degraded links, kernel-failure
/// and launch-spike windows, and (occasionally) a permanent device death —
/// every hazard class the explore core's window rules must fence.
fn gen_faults(g: &mut Gen, devices: usize) -> FaultSpec {
    let mut spec = FaultSpec::new(g.any_u64());
    for _ in 0..g.usize_in(0, 3) {
        let from = g.u64_in(0, 2_000);
        let len = g.u64_in(1, 4_000);
        spec = spec.straggler(
            DeviceId(g.usize_in(0, devices)),
            SimTime::from_micros(from),
            SimTime::from_micros(from + len),
            g.f64_in(1.0, 8.0),
        );
    }
    if devices >= 2 && g.bool() {
        let a = g.usize_in(0, devices);
        let b = (a + 1 + g.usize_in(0, devices - 1)) % devices;
        let from = g.u64_in(0, 2_000);
        let len = g.u64_in(1, 4_000);
        spec = spec.degrade_link(
            DeviceId(a),
            DeviceId(b),
            SimTime::from_micros(from),
            SimTime::from_micros(from + len),
            g.f64_in(1.0, 6.0),
        );
    }
    if g.bool() {
        spec = spec.kernel_failures(KernelFaultParams {
            prob: g.f64_in(0.0, 0.6),
            fraction: g.f64_in(0.1, 1.0),
            from: SimTime::ZERO,
            until: SimTime::from_micros(g.u64_in(1, 6_000)),
        });
    }
    if g.bool() {
        spec = spec.launch_spikes(LaunchSpikeParams {
            prob: g.f64_in(0.0, 0.5),
            extra: SimDuration::from_micros(g.u64_in(1, 100)),
            from: SimTime::ZERO,
            until: SimTime::from_micros(g.u64_in(1, 6_000)),
        });
    }
    if g.usize_in(0, 4) == 0 {
        spec = spec.device_down(
            DeviceId(g.usize_in(0, devices)),
            SimTime::from_micros(g.u64_in(100, 4_000)),
        );
    }
    spec
}

struct PlanDriver {
    plan: Vec<PlanOp>,
    devices: usize,
}

impl Driver for PlanDriver {
    fn start(&mut self, sim: &mut Simulation) {
        for (i, op) in self.plan.iter().enumerate() {
            let tag = i as u64;
            match *op {
                PlanOp::Single { device, stream, compute, work_us } => {
                    let work = SimDuration::from_micros(work_us);
                    let spec = if compute {
                        KernelSpec::compute(format!("c{i}"), work)
                    } else {
                        KernelSpec::comm(format!("m{i}"), work)
                    };
                    sim.launch(
                        HostId(device),
                        StreamId::new(DeviceId(device), stream),
                        spec.with_tag(tag),
                    );
                }
                PlanOp::Collective { stream, work_us } => {
                    let c = sim.new_collective(self.devices);
                    for d in 0..self.devices {
                        let spec =
                            KernelSpec::comm(format!("ar{i}"), SimDuration::from_micros(work_us))
                                .with_collective(c)
                                .with_tag(tag);
                        sim.launch(HostId(d), StreamId::new(DeviceId(d), stream), spec);
                    }
                }
                PlanOp::Timer { at_us, .. } => {
                    sim.set_timer(SimTime::from_micros(at_us), tag);
                }
                PlanOp::Chain { device, from, to, work_us } => {
                    let host = HostId(device);
                    let producer = StreamId::new(DeviceId(device), from);
                    let consumer = StreamId::new(DeviceId(device), to);
                    let work = SimDuration::from_micros(work_us);
                    sim.launch(
                        host,
                        producer,
                        KernelSpec::compute(format!("p{i}"), work).with_tag(tag),
                    );
                    let ev = sim.record_event(host, producer);
                    sim.stream_wait(host, consumer, ev);
                    sim.launch(
                        host,
                        consumer,
                        KernelSpec::comm(format!("d{i}"), work).with_tag(tag),
                    );
                }
            }
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        if let Wake::Timer { token } = wake {
            let PlanOp::Timer { device, stream, work_us, .. } = self.plan[token as usize] else {
                panic!("timer token {token} does not name a Timer op");
            };
            sim.launch(
                HostId(device),
                StreamId::new(DeviceId(device), stream),
                KernelSpec::compute(format!("t{token}"), SimDuration::from_micros(work_us))
                    .with_tag(token),
            );
        }
    }
}

/// Observable outcome of one run: trace bytes plus every public counter.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    trace: String,
    end: SimTime,
    launched: u64,
    completed: u64,
    failed: u64,
    dispatched: u64,
}

fn run_on(
    core: &mut dyn EventCore,
    plan: &[PlanOp],
    devices: usize,
    faults: FaultSpec,
    deadline: SimTime,
) -> Outcome {
    let mut sim = Simulation::builder()
        .devices(DeviceSpec::v100_16gb(), devices)
        .capture_trace(true)
        .faults(faults)
        .build()
        .unwrap();
    let mut drv = PlanDriver { plan: plan.to_vec(), devices };
    let end = core.run(&mut sim, &mut drv, deadline);
    Outcome {
        trace: sim.take_trace().unwrap().to_chrome_json(),
        end,
        launched: sim.kernels_launched(),
        completed: sim.kernels_completed(),
        failed: sim.kernels_failed(),
        dispatched: sim.events_dispatched(),
    }
}

fn assert_cores_agree(g: &mut Gen, deadline: SimTime) {
    let devices = g.usize_in(2, 5);
    let plan = gen_plan(g, devices);
    let faults = gen_faults(g, devices);
    let oracle = run_on(&mut SequentialCore, &plan, devices, faults.clone(), deadline);
    for rule in [WindowRule::Conservative, WindowRule::Unguarded] {
        let got = run_on(&mut ExploreCore::new(rule), &plan, devices, faults.clone(), deadline);
        assert_eq!(
            got, oracle,
            "explore core ({rule}) diverged from the sequential core \
             (devices={devices}, plan={plan:?})"
        );
    }
}

/// Seed-for-seed, the explore core on the canonical schedule reproduces
/// the sequential core's trace bytes and counters on arbitrary
/// fault-injected workloads run to completion.
#[test]
fn canonical_explore_matches_sequential_to_completion() {
    check("canonical_explore_matches_sequential", 40, |g| {
        assert_cores_agree(g, SimTime::MAX);
    });
}

/// The same equivalence holds for bounded runs: a deadline that cuts the
/// workload mid-flight must leave every core at the identical instant with
/// identical partial traces.
#[test]
fn canonical_explore_matches_sequential_under_deadlines() {
    check("canonical_explore_matches_sequential_deadline", 24, |g| {
        let deadline = SimTime::from_micros(g.u64_in(1, 5_000));
        assert_cores_agree(g, deadline);
    });
}

/// One case pinned forever. `check` honours `LIGER_PROP_SEED` for ad-hoc
/// replay; this test hard-codes the seed so the case cannot rot out of the
/// suite.
#[test]
fn pinned_seed_replays_identically() {
    let mut g = Gen::from_seed(0xfa0175);
    assert_cores_agree(&mut g, SimTime::MAX);
    let mut g = Gen::from_seed(0xfa0175);
    assert_cores_agree(&mut g, SimTime::from_micros(1_500));
}
