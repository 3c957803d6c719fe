//! Differential test for cross-request prefix caching and speculative
//! decoding: the same seeded shared-prefix trace served through the real
//! Liger engine with caching/speculation off, caching on, and caching plus
//! speculation must emit **identical per-job token streams** (the
//! deterministic oracle makes outputs a pure function of job identity), all
//! traces must pass the happens-before sanitizer with zero diagnostics and
//! zero double frees — healthy and under a mid-serve permanent device loss
//! — and two fresh runs of the cached configuration must replay byte for
//! byte.

use liger::prelude::*;
use liger::serving::{
    output_token, serve_continuous, ContinuousReport, GenerationJob, PrefixTag, SchedulerConfig,
    SpecDecodeConfig,
};

const WORLD: usize = 4;

fn model() -> ModelConfig {
    ModelConfig::opt_30b().with_layers(8)
}

fn engine() -> LigerEngine {
    let factor = profile_contention(&DeviceSpec::v100_16gb(), &NcclConfig::liger_tuned()).factor();
    LigerEngine::new(
        model(),
        CostModel::v100_node(),
        WORLD,
        LigerConfig::default().with_contention_factor(factor),
    )
    .unwrap()
}

/// A shared-prefix workload: three prompt classes, each with a 48-token
/// common prefix and a 16/32-token unique tail, single-row (only single-row
/// sequences may adopt a cached chain), arrivals spaced so earlier prompts
/// publish before later ones admit.
fn jobs(n: u64) -> Vec<GenerationJob> {
    (0..n)
        .map(|i| GenerationJob {
            id: i,
            batch: 1,
            prompt_len: 48 + 16 * (1 + (i % 2) as u32),
            output_tokens: if i % 3 == 0 { 8 } else { 3 },
            arrival: SimTime::from_secs_f64(i as f64 / 400.0),
            prefix: PrefixTag::shared(i % 3, 48),
        })
        .collect()
}

/// The three configurations under test.
#[derive(Clone, Copy)]
enum Mode {
    Baseline,
    Cached,
    CachedSpeculative,
}

fn config(mode: Mode, health: bool) -> SchedulerConfig {
    let m = model();
    let cap = DeviceSpec::v100_16gb().mem_capacity;
    let mut c = match mode {
        Mode::Baseline => SchedulerConfig::sized_for(&m, WORLD as u32, cap),
        Mode::Cached | Mode::CachedSpeculative => {
            SchedulerConfig::sized_for_shared(&m, WORLD as u32, cap, 256)
        }
    };
    if matches!(mode, Mode::CachedSpeculative) {
        c.spec = Some(SpecDecodeConfig::for_target(&m, 3, 0.8));
    }
    if health {
        c.health = Some(HealthConfig {
            interval: SimDuration::from_millis(1),
            suspicion_threshold: 3,
            probe_stream: 3,
            ..HealthConfig::default()
        });
    }
    c
}

fn serve(mode: Mode, faults: FaultSpec, n: u64, health: bool) -> (ContinuousReport, Trace, u64) {
    let mut sim = Simulation::builder()
        .devices(DeviceSpec::v100_16gb(), WORLD)
        .faults(faults)
        .capture_trace(true)
        .build()
        .unwrap();
    let mut e = engine();
    let m = model();
    let cost = CostModel::v100_node();
    let report = serve_continuous(&mut sim, &mut e, jobs(n), &m, &cost, config(mode, health));
    let double_frees = sim.memory_double_frees();
    (report, sim.take_trace().expect("trace capture was enabled"), double_frees)
}

/// Every recorded stream must be the oracle's: `output_tokens` values, each
/// a pure function of the job and the step index.
fn assert_oracle_streams(report: &ContinuousReport, all: &[GenerationJob]) {
    for r in report.generation.results() {
        let job = all[r.id as usize];
        let stream = &report.outputs[&job.id];
        assert_eq!(stream.len(), job.output_tokens.max(1) as usize, "job {}", job.id);
        for (t, &tok) in stream.iter().enumerate() {
            assert_eq!(tok, output_token(&job, t as u32), "job {} token {t}", job.id);
        }
    }
}

#[test]
fn caching_and_speculation_never_change_the_tokens_healthy() {
    let n = 9;
    let (base, base_trace, base_df) = serve(Mode::Baseline, FaultSpec::new(7), n, false);
    let (cached, cached_trace, cached_df) = serve(Mode::Cached, FaultSpec::new(7), n, false);
    let (spec, spec_trace, spec_df) = serve(Mode::CachedSpeculative, FaultSpec::new(7), n, false);

    for (label, r) in [("baseline", &base), ("cached", &cached), ("cached+spec", &spec)] {
        assert_eq!(r.generation.completed(), n as usize, "{label}: all jobs complete");
        assert_oracle_streams(r, &jobs(n));
    }
    assert_eq!(base.outputs, cached.outputs, "caching changed an output stream");
    assert_eq!(base.outputs, spec.outputs, "speculation changed an output stream");

    // The cache actually did something: warm admissions adopted blocks.
    assert!(cached.serving.prefix().hits > 0, "shared prompts must hit the cache");
    assert!(cached.serving.prefix().cached_tokens > 0);
    assert!(spec.serving.spec().rounds > 0, "speculative rounds must run");

    for (label, trace, df) in [
        ("baseline", &base_trace, base_df),
        ("cached", &cached_trace, cached_df),
        ("cached+spec", &spec_trace, spec_df),
    ] {
        assert_eq!(df, 0, "{label}: double frees");
        let diags = liger_verify::sanitize(trace);
        assert_eq!(diags.len(), 0, "{label}: sanitizer diagnostics: {diags:?}");
    }
}

#[test]
fn caching_and_speculation_survive_a_device_loss_sanitizer_clean() {
    let n = 10;
    let faults = || FaultSpec::new(7).device_down(DeviceId(2), SimTime::from_millis(2));
    for (label, mode) in [("cached", Mode::Cached), ("cached+spec", Mode::CachedSpeculative)] {
        let (report, trace, df) = serve(mode, faults(), n, true);
        let rec = report.serving.recovery();
        assert_eq!(rec.losses, 1, "{label}: the watchdog must confirm the loss");
        assert_eq!(
            report.generation.completed() + rec.shed_requests() as usize,
            n as usize,
            "{label}: every job completes or is shed with a reason"
        );
        assert!(report.generation.completed() > 0, "{label}: survivors keep serving");
        // Whatever completed still carries the oracle's exact stream: the
        // flush-on-loss rebuilt state without corrupting any output.
        assert_oracle_streams(&report, &jobs(n));
        assert_eq!(df, 0, "{label}: double frees");
        let diags = liger_verify::sanitize(&trace);
        assert_eq!(diags.len(), 0, "{label}: sanitizer diagnostics: {diags:?}");
    }
}

#[test]
fn cached_speculative_serving_replays_byte_identically() {
    let n = 8;
    let run = || {
        let mut sim = Simulation::builder()
            .devices(DeviceSpec::v100_16gb(), WORLD)
            .faults(FaultSpec::new(7))
            .capture_trace(true)
            .build()
            .unwrap();
        let mut e = engine();
        let m = model();
        let cost = CostModel::v100_node();
        let report = serve_continuous(
            &mut sim,
            &mut e,
            jobs(n),
            &m,
            &cost,
            config(Mode::CachedSpeculative, false),
        );
        (report, sim.take_trace().expect("trace capture was enabled"))
    };
    let (first_report, first_trace) = run();
    let (second_report, second_trace) = run();
    assert_eq!(second_report.outputs, first_report.outputs, "output streams diverged");
    assert_eq!(second_trace.to_chrome_json(), first_trace.to_chrome_json(), "trace bytes diverged");
    let diags = liger_verify::sanitize(&first_trace);
    assert_eq!(diags.len(), 0, "sanitizer diagnostics: {diags:?}");
}
