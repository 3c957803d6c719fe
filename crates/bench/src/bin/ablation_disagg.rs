//! **Ablation** — colocated continuous batching vs disaggregated
//! prefill/decode.
//!
//! Serves the same mixed-prompt-length generation workload (most prompts
//! short, a tail of long ones — the shape that makes prompt phases stall
//! decode steps) two ways, with the SAME 2-way decode engine in both arms
//! so the delta isolates prompt interference rather than tensor-parallel
//! degree:
//!
//! * **colocated** — one 2-GPU node runs continuous batching: prompt
//!   prefills and fused decode steps interleave on the same streams, so a
//!   long arriving prompt delays every running decode;
//! * **disaggregated** — a dedicated 2-GPU prefill node runs only prompt
//!   phases and streams each finished block table over the inter-node NIC
//!   (priced by the cluster's [`NicLink`]) to an identical 2-GPU decode
//!   node that admits the shipped table and fused-decodes it — decode
//!   steps never queue behind a prefill.
//!
//! Gates, asserted and not just printed:
//!
//! * **decode p99** — disaggregation must cut the p99 time-per-output-token
//!   (the decode-tail metric prompt interference inflates) vs the
//!   colocated arm;
//! * **accounting** — both arms complete every job they did not shed, and
//!   every KV block the prefill node streams is admitted and later freed
//!   on the decode node;
//! * **trace hygiene** — the colocated trace and both disaggregated node
//!   traces pass the happens-before sanitizer with zero diagnostics
//!   (streamed blocks: no leak, no use-after-free, no double free).
//!
//! Flags: `--requests N` (default 300), `--seed S` (default 42),
//! `--smoke` (small fixed workload — used by CI).

use liger_bench::{arg_flag, arg_value, default_requests, Node, Table};
use liger_collectives::{ClusterTopology, NicLink};
use liger_core::{LigerConfig, LigerEngine};
use liger_gpu_sim::rng::Rng;
use liger_gpu_sim::{SimTime, Trace};
use liger_model::{ModelConfig, RecoveryPolicy};
use liger_serving::{
    serve_continuous, serve_disaggregated, DisaggConfig, GenerationJob, GenerationResult,
    PrefixTag, SchedulerConfig,
};

/// Mixed prompt lengths: three quarters short (32–64), a quarter long
/// (256–512) — the long tail is what stalls colocated decode steps.
/// Replies are moderate (8–24 tokens) so the decode tail is measurable.
fn workload(n: usize, rate: f64, seed: u64) -> Vec<GenerationJob> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..n as u64)
        .map(|id| {
            at += -(1.0 - rng.next_f64()).ln() / rate;
            GenerationJob {
                id,
                batch: 1,
                prompt_len: if rng.u64_below(4) < 3 {
                    rng.u32_inclusive(2, 4) * 16
                } else {
                    rng.u32_inclusive(16, 32) * 16
                },
                output_tokens: rng.u32_inclusive(8, 24),
                arrival: SimTime::from_secs_f64(at),
                prefix: PrefixTag::NONE,
            }
        })
        .collect()
}

fn model() -> ModelConfig {
    ModelConfig::gpt_8b().with_layers(8)
}

fn engine(world: usize) -> LigerEngine {
    LigerEngine::new(
        model(),
        Node::V100.cost_model(),
        world,
        LigerConfig::default().with_contention_factor(Node::V100.contention_factor()),
    )
    .expect("valid Liger setup")
}

fn scheduler_config(world: u32) -> SchedulerConfig {
    let mut c = SchedulerConfig::sized_for(&model(), world, Node::V100.device().mem_capacity);
    c.policy = RecoveryPolicy::Replicate;
    c
}

/// Decode-tail outcome of one arm: p99 time-per-output-token across every
/// multi-token generation, plus completion accounting.
struct Outcome {
    p99_tpot_ms: f64,
    avg_ttft_ms: f64,
    completed: usize,
    shed: u64,
}

fn outcome(results: &[GenerationResult], shed: u64) -> Outcome {
    let mut tpot: Vec<f64> =
        results.iter().filter(|r| r.tokens >= 2).map(|r| r.tpot().as_millis_f64()).collect();
    assert!(!tpot.is_empty(), "no multi-token generations to score");
    tpot.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((tpot.len() as f64 * 0.99).ceil() as usize).clamp(1, tpot.len()) - 1;
    let ttft: f64 =
        results.iter().map(|r| r.ttft().as_millis_f64()).sum::<f64>() / results.len() as f64;
    Outcome { p99_tpot_ms: tpot[idx], avg_ttft_ms: ttft, completed: results.len(), shed }
}

/// Colocated arm: one engine serving both phases, continuous batching,
/// traced.
fn run_colocated(jobs: &[GenerationJob], world: usize) -> (Outcome, Trace) {
    let mut sim = Node::V100.simulation(world, true);
    let mut e = engine(world);
    let cost = Node::V100.cost_model();
    let report = serve_continuous(
        &mut sim,
        &mut e,
        jobs.to_vec(),
        &model(),
        &cost,
        scheduler_config(world as u32),
    );
    let shed = report.serving.recovery().shed_requests();
    (outcome(report.generation.results(), shed), sim.take_trace().expect("traced run"))
}

/// Disaggregated arm: 2-GPU prefill node + 2-GPU decode node joined by an
/// HDR NIC, both traced.
fn run_disagg(jobs: &[GenerationJob], per_node: usize) -> (Outcome, u64, Vec<Trace>) {
    let cluster = ClusterTopology::new(2, per_node, Node::V100.topology(), NicLink::hdr_200g());
    let config = DisaggConfig::new(cluster, scheduler_config(per_node as u32));
    let report = serve_disaggregated(jobs.to_vec(), &model(), config, |_role, devices| {
        (Node::V100.simulation(devices.len(), true), engine(devices.len()))
    });
    let shed = report.serving.recovery().shed_requests();
    let streamed = report.streamed_blocks;
    (outcome(report.generation.results(), shed), streamed, report.traces)
}

fn sanitize_or_fail(label: &str, trace: &Trace, failed: &mut bool) {
    let diags = liger_verify::sanitize(trace);
    if diags.is_empty() {
        println!("  sanitizer clean: {label}");
    } else {
        eprintln!("FAIL: {label}: {} sanitizer diagnostic(s):", diags.len());
        for d in &diags {
            eprintln!("    {d}");
        }
        *failed = true;
    }
}

fn main() {
    let smoke = arg_flag("smoke");
    let requests = if smoke { 40 } else { default_requests() };
    let seed: u64 = arg_value("seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    // Enough pressure that prompts keep arriving while decodes run — the
    // interference regime disaggregation removes.
    let rate = if smoke { 30.0 } else { 50.0 };
    let jobs = workload(requests, rate, seed);

    println!(
        "Ablation: colocated vs disaggregated serving — GPT-8B(8L), 2+2 V100, {requests} seqs, \
         seed {seed}"
    );
    println!("(mixed prompts: 75% of 32-64 tokens, 25% of 256-512; replies 8-24)");

    let mut failed = false;

    let (colo, colo_trace) = run_colocated(&jobs, 2);
    let (disagg, streamed_blocks, disagg_traces) = run_disagg(&jobs, 2);

    let mut t = Table::new(&["serving", "completed", "shed", "p99 tpot (ms)", "avg ttft (ms)"]);
    for (label, o) in [("colocated", &colo), ("disaggregated", &disagg)] {
        t.row(&[
            label.into(),
            format!("{}", o.completed),
            format!("{}", o.shed),
            format!("{:.2}", o.p99_tpot_ms),
            format!("{:.1}", o.avg_ttft_ms),
        ]);
    }
    println!("{}", t.render());
    println!(
        "decode p99 delta: {:+.1}%  ({} KV blocks streamed prefill -> decode)",
        (disagg.p99_tpot_ms / colo.p99_tpot_ms - 1.0) * 100.0,
        streamed_blocks
    );

    // Accounting: every job completes or is shed with a typed reason.
    for (label, o) in [("colocated", &colo), ("disaggregated", &disagg)] {
        if o.completed + o.shed as usize != jobs.len() {
            eprintln!(
                "FAIL: {label} accounted {} completed + {} shed of {} jobs",
                o.completed,
                o.shed,
                jobs.len()
            );
            failed = true;
        }
    }
    if streamed_blocks == 0 {
        eprintln!("FAIL: disaggregated arm streamed no KV blocks");
        failed = true;
    }
    // The gate: removing prompt interference must cut the decode tail.
    if disagg.p99_tpot_ms >= colo.p99_tpot_ms {
        eprintln!(
            "FAIL: disaggregated p99 tpot {:.2}ms does not beat colocated {:.2}ms",
            disagg.p99_tpot_ms, colo.p99_tpot_ms
        );
        failed = true;
    }

    sanitize_or_fail("colocated", &colo_trace, &mut failed);
    assert_eq!(disagg_traces.len(), 2, "disaggregated arm produces one trace per node");
    for (trace, label) in disagg_traces.iter().zip(["disagg prefill node", "disagg decode node"]) {
        sanitize_or_fail(label, trace, &mut failed);
    }

    if failed {
        std::process::exit(1);
    }
    println!("ok: disaggregation cuts the decode tail with clean traces");
}
