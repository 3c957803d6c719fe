//! Chaos tier: seeded random fault storms over continuous serving with
//! drain-and-replan recovery and elastic re-expansion.
//!
//! Each storm throws overlapping windowed outages, a possible permanent
//! loss, stragglers, kernel failures, launch spikes and a link flap at the
//! real Liger engine, and asserts the full robustness contract for every
//! seed:
//!
//! * the run terminates (a livelock here hangs the test);
//! * every admitted job finishes or is shed with a typed reason;
//! * the trace is clean under the happens-before sanitizer — no TS-UAF,
//!   TS-DOUBLE-FREE or TS-LEAK through any loss, rejoin or re-expansion;
//! * every surviving job's output stream is identical to the fault-free
//!   oracle's — faults may slow or shed work, never corrupt it.
//!
//! Device 0 is kept outage-free so the scheduler always has a surviving
//! device to shrink onto. Rerun a failing storm with the `LIGER_PROP_SEED`
//! the harness prints.

use std::collections::BTreeMap;

use liger::prelude::*;
use liger::serving::{serve_continuous, ContinuousReport, GenerationJob, PrefixTag};
use liger_gpu_sim::testkit::{check, Gen};

fn model() -> ModelConfig {
    ModelConfig::opt_30b().with_layers(4)
}

fn engine(world: usize) -> LigerEngine {
    let factor = profile_contention(&DeviceSpec::v100_16gb(), &NcclConfig::liger_tuned()).factor();
    LigerEngine::new(
        model(),
        CostModel::v100_node(),
        world,
        LigerConfig::default().with_contention_factor(factor),
    )
    .unwrap()
}

fn config(world: u32) -> SchedulerConfig {
    let mut c = SchedulerConfig::sized_for(&model(), world, DeviceSpec::v100_16gb().mem_capacity);
    // The probe stream shares a hardware queue with the engine's secondary
    // stream, so the watchdog needs slack for normal kernel queueing (the
    // recovery tier's sizing).
    c.health = Some(HealthConfig {
        interval: SimDuration::from_millis(1),
        suspicion_threshold: 3,
        probe_stream: 3,
        ..HealthConfig::default()
    });
    c
}

#[derive(Debug, Clone)]
struct Storm {
    world: usize,
    jobs: Vec<GenerationJob>,
    faults: FaultSpec,
}

fn gen_storm(g: &mut Gen) -> Storm {
    // The initial tensor-parallel degree must divide the model's 56 heads;
    // degraded worlds after a loss handle the remainder internally.
    let world = if g.usize_in(0, 4) == 0 { 2 } else { 4 };
    let n = g.u64_in(6, 12);
    let rate = g.f64_in(100.0, 400.0);
    let jobs = (0..n)
        .map(|i| GenerationJob {
            id: i,
            batch: 2,
            prompt_len: 48 + 16 * (i % 3) as u32,
            output_tokens: if i % 4 == 0 { 12 } else { 3 + (i % 3) as u32 },
            arrival: SimTime::from_secs_f64(i as f64 / rate),
            prefix: PrefixTag::NONE,
        })
        .collect();

    let mut faults = FaultSpec::new(g.any_u64());
    // Windowed outages and at most one permanent loss, never on device 0:
    // the storm may shrink the world, not empty it. One window per device —
    // the builder rejects overlapping downs for the same device.
    let mut hit_permanent = false;
    for dev in 1..world {
        match g.usize_in(0, 4) {
            0 => {
                let from = g.u64_in(1, 20);
                faults = faults.device_outage(
                    DeviceId(dev),
                    SimTime::from_millis(from),
                    SimTime::from_millis(from + g.u64_in(2, 30)),
                );
            }
            1 if !hit_permanent => {
                hit_permanent = true;
                faults = faults.device_down(DeviceId(dev), SimTime::from_millis(g.u64_in(1, 30)));
            }
            _ => {}
        }
    }
    for _ in 0..g.usize_in(0, 3) {
        let from = g.u64_in(0, 20);
        faults = faults.straggler(
            DeviceId(g.usize_in(0, world)),
            SimTime::from_millis(from),
            SimTime::from_millis(from + g.u64_in(1, 30)),
            g.f64_in(1.5, 4.0),
        );
    }
    if g.bool() {
        faults = faults.kernel_failures(KernelFaultParams {
            prob: g.f64_in(0.02, 0.2),
            fraction: g.f64_in(0.1, 0.9),
            from: SimTime::from_millis(g.u64_in(0, 5)),
            until: SimTime::from_millis(g.u64_in(10, 60)),
        });
    }
    if g.bool() {
        faults = faults.launch_spikes(LaunchSpikeParams {
            prob: g.f64_in(0.05, 0.3),
            extra: SimDuration::from_micros(g.u64_in(5, 100)),
            from: SimTime::ZERO,
            until: SimTime::from_millis(g.u64_in(10, 60)),
        });
    }
    if g.bool() {
        let a = g.usize_in(0, world);
        let b = (a + 1 + g.usize_in(0, world - 1)) % world;
        let from = g.u64_in(0, 10);
        let len = g.u64_in(4, 20);
        faults = faults.link_flap(
            DeviceId(a),
            DeviceId(b),
            SimTime::from_millis(from),
            SimTime::from_millis(from + len),
            SimDuration::from_millis(g.u64_in(1, 4)),
        );
    }
    Storm { world, jobs, faults }
}

fn run(storm: &Storm, faults: FaultSpec) -> (ContinuousReport, Trace) {
    let mut sim = Simulation::builder()
        .devices(DeviceSpec::v100_16gb(), storm.world)
        .faults(faults)
        .capture_trace(true)
        .build()
        .unwrap();
    let mut e = engine(storm.world);
    let cfg = model();
    let cost = CostModel::v100_node();
    let report = serve_continuous(
        &mut sim,
        &mut e,
        storm.jobs.clone(),
        &cfg,
        &cost,
        config(storm.world as u32),
    );
    (report, sim.take_trace().expect("trace capture was enabled"))
}

/// The full per-seed contract, asserted for at least 32 storms.
#[test]
fn seeded_storms_hold_the_robustness_contract() {
    check("chaos_storms", 32, |g| {
        let storm = gen_storm(g);
        let n = storm.jobs.len();

        // Fault-free oracle: the output streams faults must never corrupt.
        let (oracle, _) = run(&storm, FaultSpec::none());
        assert_eq!(oracle.generation.completed(), n, "the oracle serves everything");

        // The storm.
        let (stormy, trace) = run(&storm, storm.faults.clone());

        // Accounting: every admitted job finishes or is shed with a reason.
        let rec = stormy.serving.recovery();
        assert_eq!(
            stormy.generation.completed() + rec.shed_requests() as usize,
            n,
            "jobs lost without a shed record under {}",
            storm.faults
        );

        // Sanitizer: clean through every loss, rejoin and re-expansion.
        let diags = liger_verify::sanitize(&trace);
        assert_eq!(diags.len(), 0, "sanitizer diagnostics under {}: {diags:?}", storm.faults);

        // Outputs: identical to the fault-free oracle for every survivor.
        let oracle_outputs: &BTreeMap<u64, Vec<u64>> = &oracle.outputs;
        for (id, stream) in &stormy.outputs {
            assert_eq!(
                stream, &oracle_outputs[id],
                "job {id} diverged from the fault-free oracle under {}",
                storm.faults
            );
        }
    });
}
