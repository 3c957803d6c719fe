//! Golden metrics for every serving path that runs under the membership
//! controller: pinned-seed runs whose complete serving record — metrics
//! summary, recovery timeline, shed records, completions and, for
//! continuous serving, per-job generation results and output streams — is
//! compared byte-for-byte against `tests/golden/metrics/*.json`.
//!
//! * `serve` on a healthy 4-way Liger engine, and `serve_with_policy` under
//!   kernel failures plus a straggler window, so the retry and timeout arms
//!   of the request driver are pinned too.
//! * `serve_with_recovery` on a 4-way Liger engine: a mid-trace loss under
//!   a tight watermark, a windowed outage that rejoins and re-expands, and
//!   a second loss confirmed while the first is still draining.
//! * `serve_continuous` with the prefix cache and speculative decoding on:
//!   a windowed outage plus a link flap.
//!
//! Any change to when the drain/recover/expand state machine fires, what it
//! prices or what it sheds shows up here as a named diff. To regenerate
//! after an *intentional* behaviour change:
//!
//! ```text
//! LIGER_GOLDEN_REGEN=1 cargo test --test recovery_golden
//! ```
//!
//! then review the diff and commit the new files.

use liger::prelude::*;
use liger::serving::{
    serve_continuous, serve_with_recovery, ContinuousReport, GenerationJob, PrefixTag,
    SpecDecodeConfig,
};
use liger_gpu_sim::json::{JsonArray, JsonObject};
use liger_gpu_sim::{FaultSpec, KernelFaultParams, ToJson};

const WORLD: usize = 4;

fn watchdog() -> HealthConfig {
    // The probe stream shares a hardware queue with the engine's secondary
    // stream, so the watchdog needs slack for normal kernel queueing.
    HealthConfig {
        interval: SimDuration::from_millis(1),
        suspicion_threshold: 3,
        probe_stream: 3,
        ..HealthConfig::default()
    }
}

fn sim(faults: FaultSpec) -> Simulation {
    let mut b = Simulation::builder().devices(DeviceSpec::v100_16gb(), WORLD).faults(faults);
    for r in 0..WORLD {
        b = b.host(HostSpec::mpi_rank(r));
    }
    b.build().unwrap()
}

fn engine(model: &ModelConfig) -> LigerEngine {
    let factor = profile_contention(&DeviceSpec::v100_16gb(), &NcclConfig::liger_tuned()).factor();
    LigerEngine::new(
        model.clone(),
        CostModel::v100_node(),
        WORLD,
        LigerConfig::default().with_contention_factor(factor),
    )
    .unwrap()
}

/// Renders the serving record one section per line, arrays one item per
/// line, so a drift diffs to the records that moved.
fn render(metrics: &ServingMetrics, continuous: Option<&ContinuousReport>) -> String {
    fn array<T>(out: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
        out.push('[');
        for (i, x) in items.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            item(out, x);
        }
        out.push_str(if items.is_empty() { "]" } else { "\n  ]" });
    }
    let rec = metrics.recovery();
    let mut out = String::from("{\n  \"metrics\": ");
    out.push_str(&metrics.to_json());
    out.push_str(",\n  \"timeline\": ");
    array(&mut out, rec.timeline.as_slice(), |out, &(phase, at)| {
        let mut obj = JsonObject::begin(out);
        obj.field("phase", &phase).field("at", &at);
        obj.end();
    });
    out.push_str(",\n  \"shed\": ");
    array(&mut out, &rec.shed, |out, s| s.write_json(out));
    out.push_str(",\n  \"completions\": ");
    array(&mut out, metrics.completions(), |out, c| c.write_json(out));
    if let Some(report) = continuous {
        out.push_str(",\n  \"generation\": ");
        array(&mut out, report.generation.results(), |out, r| r.write_json(out));
        out.push_str(",\n  \"outputs\": ");
        let streams: Vec<(&u64, &Vec<u64>)> = report.outputs.iter().collect();
        array(&mut out, &streams, |out, &(id, tokens)| {
            let mut arr = JsonArray::begin(out);
            arr.item(id).item(tokens);
            arr.end();
        });
    }
    out.push_str("\n}\n");
    out
}

/// Compares `rendered` with `tests/golden/metrics/<name>.json`, or rewrites
/// the file under `LIGER_GOLDEN_REGEN`.
fn check_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/metrics/{name}.json", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("LIGER_GOLDEN_REGEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden file");
        eprintln!("regenerated {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert!(
        rendered == golden,
        "{name} drifted from {path}; if the behaviour change is intentional, \
         regenerate with LIGER_GOLDEN_REGEN=1 and commit the diff\n--- rendered ---\n{rendered}"
    );
}

fn labels(metrics: &ServingMetrics) -> Vec<&'static str> {
    metrics.recovery_timeline().iter().map(|&(l, _)| l).collect()
}

// -- serve_with_recovery ---------------------------------------------------

fn recovery_model() -> ModelConfig {
    ModelConfig::opt_30b().with_layers(4)
}

fn requests(count: usize, rate: f64) -> Vec<Request> {
    PrefillTraceConfig {
        count,
        batch: 2,
        seq_min: 32,
        seq_max: 96,
        arrivals: ArrivalProcess::Poisson { rate },
        seed: 0x90_1d,
    }
    .generate()
}

fn serve_recovery(
    faults: FaultSpec,
    requests: Vec<Request>,
    policy: RecoveryPolicy,
    watermark: usize,
) -> ServingMetrics {
    let model = recovery_model();
    let cost = CostModel::v100_node();
    let config = RecoveryConfig {
        health: watchdog(),
        policy,
        admission: AdmissionConfig { queue_watermark: watermark },
    };
    let mut engine = engine(&model);
    serve_with_recovery(&mut sim(faults), &mut engine, requests, &model, &cost, config)
}

#[test]
fn recovery_mid_trace_loss_matches_golden() {
    let faults = FaultSpec::new(0x10).device_down(DeviceId(3), SimTime::from_millis(4));
    let m = serve_recovery(faults, requests(48, 3000.0), RecoveryPolicy::Recompute, 4);
    assert_eq!(labels(&m), ["draining", "recovering", "degraded"]);
    assert!(m.recovery().shed_requests() > 0, "the tight watermark sheds");
    check_golden("recovery_mid_trace_loss", &render(&m, None));
}

#[test]
fn recovery_outage_rejoin_matches_golden() {
    let faults = FaultSpec::new(0x11).device_outage(
        DeviceId(2),
        SimTime::from_millis(3),
        SimTime::from_millis(12),
    );
    let m = serve_recovery(faults, requests(60, 1500.0), RecoveryPolicy::Replicate, 2);
    assert!(labels(&m).contains(&"expanding"), "timeline {:?}", labels(&m));
    assert_eq!(m.recovery().re_expansions, 1);
    check_golden("recovery_outage_rejoin", &render(&m, None));
}

#[test]
fn recovery_loss_during_drain_matches_golden() {
    let faults = FaultSpec::new(0x12)
        .device_down(DeviceId(3), SimTime::from_millis(4))
        .device_down(DeviceId(1), SimTime::from_millis(4));
    let m = serve_recovery(faults, requests(40, 2000.0), RecoveryPolicy::Replicate, 64);
    assert_eq!(m.recovery().losses, 2);
    let drains = labels(&m).iter().filter(|&&l| l == "draining").count();
    assert_eq!(drains, 2, "each loss drains: {:?}", labels(&m));
    check_golden("recovery_loss_during_drain", &render(&m, None));
}

// -- serve and serve_with_policy -------------------------------------------

#[test]
fn plain_serve_matches_golden() {
    let model = recovery_model();
    let mut engine = engine(&model);
    let m = serve(&mut sim(FaultSpec::none()), &mut engine, requests(48, 3000.0));
    assert_eq!(m.completed(), 48);
    assert!(m.recovery_timeline().is_empty());
    check_golden("serve_healthy", &render(&m, None));
}

#[test]
fn retry_policy_matches_golden() {
    // Device 1 runs 50x slow for 445 ms, so most queued requests overrun
    // the default 500 ms timeout; kernels starting early fail and retry.
    let faults = FaultSpec::new(0x13)
        .kernel_failures(KernelFaultParams {
            prob: 0.2,
            fraction: 0.5,
            from: SimTime::ZERO,
            until: SimTime::from_millis(20),
        })
        .straggler(DeviceId(1), SimTime::from_millis(5), SimTime::from_millis(450), 50.0);
    let mut engine = engine(&recovery_model());
    let m = serve_with_policy(
        &mut sim(faults),
        &mut engine,
        requests(48, 3000.0),
        RetryPolicy::default(),
    );
    assert_eq!(m.completed(), 48);
    let f = m.faults();
    assert!(f.retries > 0 && f.timeouts > 0 && f.kernel_failures > 0, "{f:?}");
    check_golden("serve_retry_policy", &render(&m, None));
}

// -- serve_continuous --------------------------------------------------------

#[test]
fn continuous_outage_and_flap_match_golden() {
    let model = ModelConfig::opt_30b().with_layers(4);
    let cost = CostModel::v100_node();
    let jobs: Vec<GenerationJob> = (0..24)
        .map(|i| GenerationJob {
            id: i,
            batch: 1,
            prompt_len: 48 + 16 * (i % 3) as u32,
            output_tokens: if i % 4 == 0 { 14 } else { 4 + (i % 3) as u32 },
            arrival: SimTime::from_secs_f64(i as f64 / 2000.0),
            prefix: PrefixTag::shared(i % 3, 32),
        })
        .collect();
    // A windowed outage of device 2 plus a `flap:` link flap between
    // devices 0 and 1, in the fault grammar.
    let faults = FaultSpec::parse("seed=19;down:2:3..14;flap:0:1:1:9:2").expect("valid storm");
    let mut config = SchedulerConfig::sized_for_shared(
        &model,
        WORLD as u32,
        DeviceSpec::v100_16gb().mem_capacity,
        256,
    );
    config.spec = Some(SpecDecodeConfig::for_target(&model, 3, 0.7));
    config.health = Some(watchdog());
    config.max_running = 4;
    config.admission = AdmissionConfig { queue_watermark: 2 };
    let mut engine = engine(&model);
    let report = serve_continuous(&mut sim(faults), &mut engine, jobs, &model, &cost, config);
    assert!(labels(&report.serving).contains(&"expanding"), "{:?}", labels(&report.serving));
    assert!(report.serving.spec().rounds > 0, "speculation ran");
    assert!(report.serving.prefix().hits > 0, "the prefix cache served hits");
    check_golden("continuous_outage_flap", &render(&report.serving, Some(&report)));
}
