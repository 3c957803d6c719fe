//! The serving ablations that gate CI: each asserts its claims as gate
//! failures instead of only printing them, and `--smoke` runs a small
//! fixed workload.

use liger_collectives::{ClusterTopology, NicLink};
use liger_core::LigerEngine;
use liger_gpu_sim::rng::Rng;
use liger_gpu_sim::{DeviceId, FaultSpec, SimDuration, SimTime, Trace};
use liger_model::{BatchShape, ModelConfig, RecoveryPolicy};
use liger_serving::{
    serve_continuous, serve_disaggregated, serve_generations, AdmissionConfig, ArrivalProcess,
    ContinuousReport, DisaggConfig, GenerationJob, GenerationResult, HealthConfig,
    PrefillTraceConfig, PrefixTag, RecoveryConfig, SchedulerConfig,
};

use super::{ExpConfig, ExpResult};
use crate::harness::{intra_capacity, p99, run_liger_recovery, Node, Table};

/// GPT-8B cut to 8 layers: the generation ablations' model.
fn gpt8b_8l() -> ModelConfig {
    ModelConfig::gpt_8b().with_layers(8)
}

/// V100-tuned Liger over `world` devices.
fn v100_liger(model: &ModelConfig, world: usize) -> LigerEngine {
    LigerEngine::new(model.clone(), Node::V100.cost_model(), world, Node::V100.liger_config())
        .expect("valid Liger setup")
}

/// Watchdog sized for the Liger engine: probes share a hardware queue with
/// the secondary stream (connections = 2), so the bound must absorb normal
/// kernel queueing without false positives — 1 ms probes, three strikes.
fn watchdog() -> HealthConfig {
    HealthConfig {
        interval: SimDuration::from_millis(1),
        suspicion_threshold: 3,
        probe_stream: 3,
        ..HealthConfig::default()
    }
}

/// Continuous batching on `world` V100s with replicate recovery. `pinned`
/// turns the prefix cache on with pin budget for that many shared tokens;
/// `health` turns the watchdog on.
fn scheduler_config(
    model: &ModelConfig,
    world: usize,
    pinned: Option<u32>,
    health: bool,
) -> SchedulerConfig {
    let capacity = Node::V100.device().mem_capacity;
    let mut c = match pinned {
        Some(tokens) => SchedulerConfig::sized_for_shared(model, world as u32, capacity, tokens),
        None => SchedulerConfig::sized_for(model, world as u32, capacity),
    };
    c.health = health.then(watchdog);
    c
}

/// Serves `jobs` with continuous batching on a fresh V100 simulation.
fn run_continuous(
    model: &ModelConfig,
    world: usize,
    jobs: &[GenerationJob],
    faults: Option<FaultSpec>,
    trace: bool,
    pinned: Option<u32>,
) -> (ContinuousReport, liger_gpu_sim::Simulation) {
    let health = faults.is_some();
    let mut sim = Node::V100.simulation_with_faults(world, trace, faults);
    let report = serve_continuous(
        &mut sim,
        &mut v100_liger(model, world),
        jobs.to_vec(),
        model,
        &Node::V100.cost_model(),
        scheduler_config(model, world, pinned, health),
    );
    (report, sim)
}

/// Gates a trace on the happens-before sanitizer and the memory tracker's
/// double-free count.
fn sanitize(r: &mut ExpResult, label: &str, trace: &Trace, double_frees: u64) {
    if double_frees != 0 {
        r.fail(format!("{label}: {double_frees} double free(s) in the memory tracker"));
    }
    let diags = liger_verify::sanitize(trace);
    if diags.is_empty() {
        r.line(format!("  sanitizer clean: {label}"));
    } else {
        let mut msg = format!("{label}: {} sanitizer diagnostic(s):", diags.len());
        for d in &diags {
            msg.push_str(&format!("\n    {d}"));
        }
        r.fail(msg);
    }
}

/// Poisson-ish arrivals at `rate` jobs/s (exponential gaps), single-row
/// jobs whose prompt and reply lengths `lengths` draws.
fn poisson_jobs(
    n: usize,
    rate: f64,
    seed: u64,
    mut lengths: impl FnMut(&mut Rng) -> (u32, u32),
) -> Vec<GenerationJob> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut at = 0.0f64;
    (0..n as u64)
        .map(|id| {
            at += -(1.0 - rng.next_f64()).ln() / rate;
            let (prompt_len, output_tokens) = lengths(&mut rng);
            GenerationJob {
                id,
                batch: 1,
                prompt_len,
                output_tokens,
                arrival: SimTime::from_secs_f64(at),
                prefix: PrefixTag::NONE,
            }
        })
        .collect()
}

/// Sequences per fixed batch in the static-batching baseline.
const GROUP: usize = 8;

/// True-token throughput and p99 latency over `(job, finish)` pairs: tokens
/// are each sequence's *own* reply length (padded decode steps produce no
/// useful tokens), latency runs from arrival to the instant the text was
/// available.
fn token_outcome(per_seq: &[(GenerationJob, SimTime)]) -> (f64, f64) {
    assert!(!per_seq.is_empty(), "no completions to score");
    let first = per_seq.iter().map(|(j, _)| j.arrival).min().unwrap();
    let last = per_seq.iter().map(|&(_, f)| f).max().unwrap();
    let tokens: u64 = per_seq.iter().map(|(j, _)| j.output_tokens as u64).sum();
    let mut lat: Vec<f64> =
        per_seq.iter().map(|(j, f)| f.saturating_since(j.arrival).as_millis_f64()).collect();
    (tokens as f64 / last.saturating_since(first).as_secs_f64(), p99(&mut lat))
}

/// Static baseline: consecutive arrivals folded into groups of [`GROUP`],
/// each one padded job (longest prompt, longest reply, admitted when its
/// last member has arrived) through the fixed-batch driver. Every member
/// finishes when its group does.
fn run_static(model: &ModelConfig, jobs: &[GenerationJob]) -> Vec<(GenerationJob, SimTime)> {
    let grouped: Vec<GenerationJob> = jobs
        .chunks(GROUP)
        .enumerate()
        .map(|(gid, chunk)| GenerationJob {
            id: gid as u64,
            batch: chunk.len() as u32,
            prompt_len: chunk.iter().map(|j| j.prompt_len).max().unwrap(),
            output_tokens: chunk.iter().map(|j| j.output_tokens).max().unwrap(),
            arrival: chunk.iter().map(|j| j.arrival).max().unwrap(),
            prefix: PrefixTag::NONE,
        })
        .collect();
    let mut sim = Node::V100.simulation(4, false);
    let metrics = serve_generations(&mut sim, &mut v100_liger(model, 4), grouped);
    let mut out = Vec::new();
    for r in metrics.results() {
        out.extend(jobs.chunks(GROUP).nth(r.id as usize).unwrap().iter().map(|j| (*j, r.finished)));
    }
    out
}

/// **Ablation** — static batching vs continuous batching.
///
/// Serves the same skewed-output-length generation workload (most replies
/// short, a tail of long ones — the shape real chat traffic has) two ways
/// on 4-way Liger: **static** groups arrivals into fixed padded batches that
/// admit nothing until the whole group retires; **continuous** schedules at
/// iteration level over the paged KV pool, retiring finished sequences and
/// backfilling their slots at every step.
///
/// Gates: continuous beats static on *both* true-token throughput and p99
/// latency; every sequence is accounted for; a traced healthy run and a
/// device-loss run (`--faults`, or device 3 lost mid-trace) sanitize clean.
/// The deltas are the ratios `tok_s_delta` and `p99_delta`.
///
/// Flags: `--requests N` (default 300), `--faults <spec>`, `--smoke`.
pub fn ablation_batching(cfg: &ExpConfig) -> ExpResult {
    let requests = if cfg.smoke { 48 } else { cfg.requests_or(300) };
    // Above the static baseline's decode capacity (its padded groups
    // saturate and queue) but within what iteration-level scheduling
    // sustains — the regime the ablation is about.
    let rate = if cfg.smoke { 40.0 } else { 70.0 };
    // Prompts 32–128; three quarters of the replies 4–12 tokens, a quarter
    // 48–96.
    let jobs = poisson_jobs(requests, rate, 42, |rng| {
        let prompt = rng.u32_inclusive(2, 8) * 16;
        let reply =
            if rng.u64_below(4) < 3 { rng.u32_inclusive(4, 12) } else { rng.u32_inclusive(48, 96) };
        (prompt, reply)
    });
    let model = gpt8b_8l();
    let continuous = |faults| {
        let (report, mut sim) = run_continuous(&model, 4, &jobs, faults, true, None);
        let per_seq: Vec<(GenerationJob, SimTime)> =
            report.generation.results().iter().map(|r| (jobs[r.id as usize], r.finished)).collect();
        (per_seq, sim.take_trace().expect("traced run"), report.serving.recovery().shed_requests())
    };

    let mut r = ExpResult::default();
    r.line(format!(
        "Ablation: static vs continuous batching — GPT-8B(8L), V100 node, {requests} seqs"
    ));
    r.line(format!(
        "(skewed replies: 75% of 4-12 tokens, 25% of 48-96; group {GROUP} static batches)"
    ));

    let stat_seq = run_static(&model, &jobs);
    let (cont_seq, trace, _) = continuous(None);
    let (stat, cont) = (token_outcome(&stat_seq), token_outcome(&cont_seq));
    let mut t = Table::new(&["batching", "completed", "tok/s", "p99 (ms)"]);
    for (label, n, (tok_s, p99_ms)) in
        [("static", stat_seq.len(), stat), ("continuous", cont_seq.len(), cont)]
    {
        t.row(&[label.into(), format!("{n}"), format!("{tok_s:.0}"), format!("{p99_ms:.1}")]);
    }
    r.table(t);
    r.summary(
        &[("tok_s_delta", cont.0 / stat.0 - 1.0), ("p99_delta", cont.1 / stat.1 - 1.0)],
        |v| format!("delta: {:+.1}% tokens/s, {:+.1}% p99", v[0] * 100.0, v[1] * 100.0),
    );

    if cont_seq.len() != jobs.len() {
        r.fail(format!("continuous completed {} of {}", cont_seq.len(), jobs.len()));
    }
    // The strict-win gate: iteration-level scheduling must beat fixed
    // batching on BOTH axes on a skewed workload.
    if cont.0 <= stat.0 {
        r.fail(format!("continuous tok/s {:.1} does not beat static {:.1}", cont.0, stat.0));
    }
    if cont.1 >= stat.1 {
        r.fail(format!("continuous p99 {:.2}ms does not beat static {:.2}ms", cont.1, stat.1));
    }
    sanitize(&mut r, "continuous healthy", &trace, 0);

    // Under a device loss, accounting closes (completed + shed = submitted)
    // and the trace stays sanitizer-clean through drain, block drop and
    // recovery.
    let faults = cfg.faults.clone().unwrap_or_else(|| {
        FaultSpec::new(42).device_down(DeviceId(3), jobs[jobs.len() / 2].arrival)
    });
    let (loss_seq, loss_trace, shed) = continuous(Some(faults));
    r.line(format!("loss run: {} completed, {shed} shed", loss_seq.len()));
    if loss_seq.len() + shed as usize != jobs.len() {
        r.fail(format!(
            "loss run accounting: {} completed + {shed} shed != {} submitted",
            loss_seq.len(),
            jobs.len()
        ));
    }
    sanitize(&mut r, "continuous with device loss", &loss_trace, 0);
    if r.failures().is_empty() {
        r.line(
            "ok: continuous batching beat static on both tokens/s and p99; traces sanitized clean",
        );
    }
    r
}

/// **Ablation** — elastic re-expansion after a transient device outage.
///
/// Serves one generation workload with 4-way Liger under three scenarios:
/// **healthy**; **degraded**, device 3 lost permanently early on (the
/// engine drains and replans 4 → 3); **outage + rejoin**, the same device
/// down for a bounded window, after which the watchdog confirms the rejoin
/// through quarantine and the engine re-expands 3 → 4.
///
/// Gates: every job completes or is shed with a recorded reason; each job
/// completed under faults emits the healthy run's exact token stream; the
/// rejoin is confirmed and re-expanded; and (outside `--smoke`, whose trace
/// is too short for throughput to mean anything) the rejoin run keeps at
/// least 80% of the healthy token throughput and at least the degraded
/// run's.
///
/// Flags: `--jobs N` (default 96), `--smoke` (16 jobs).
pub fn ablation_chaos(cfg: &ExpConfig) -> ExpResult {
    let n = if cfg.smoke { 16 } else { cfg.jobs.unwrap_or(96) };
    let (world, rate) = (4, 250.0);
    // The outage is anchored early so the re-expanded world serves most of
    // the trace; the permanent loss lands at the same instant.
    let t_loss = SimTime::from_millis(20);
    let t_back = SimTime::from_millis(50);
    let model = ModelConfig::opt_30b().with_layers(4);
    let jobs: Vec<GenerationJob> = (0..n)
        .map(|i| GenerationJob {
            id: i,
            batch: 2,
            prompt_len: 48 + 16 * (i % 3) as u32,
            output_tokens: if i % 4 == 0 { 12 } else { 3 + (i % 3) as u32 },
            arrival: SimTime::from_secs_f64(i as f64 / rate),
            prefix: PrefixTag::NONE,
        })
        .collect();

    let mut r = ExpResult::default();
    r.line("Ablation: transient outage and re-expansion — OPT-30B@4L, V100 node, 4-way");
    r.line(format!("(device 3 down at {t_loss}; rejoin at {t_back}; {n} jobs at {rate:.0} req/s)"));
    let mut t = Table::new(&[
        "scenario",
        "completed",
        "shed",
        "rejoins",
        "re-expansions",
        "tok/s",
        "vs healthy",
    ]);

    let mut healthy: Option<ContinuousReport> = None;
    let mut degraded_thr = None;
    for (label, faults) in [
        ("healthy (4)", None),
        ("degraded (4 -> 3)", Some(FaultSpec::new(42).device_down(DeviceId(3), t_loss))),
        ("outage + rejoin", Some(FaultSpec::new(42).device_outage(DeviceId(3), t_loss, t_back))),
    ] {
        let mut sim = Node::V100.simulation_with_faults(world, false, faults);
        let report = serve_continuous(
            &mut sim,
            &mut v100_liger(&model, world),
            jobs.clone(),
            &model,
            &Node::V100.cost_model(),
            scheduler_config(&model, world, None, true),
        );
        let rec = report.serving.recovery();
        let thr = report.generation.token_throughput();
        let healthy_thr = healthy.as_ref().map(|h| h.generation.token_throughput());
        t.row(&[
            label.into(),
            format!("{}", report.generation.completed()),
            format!("{}", rec.shed_requests()),
            format!("{}", rec.rejoins),
            format!("{}", rec.re_expansions),
            format!("{thr:.0}"),
            healthy_thr.map_or_else(|| "-".into(), |h| format!("{:.0}%", 100.0 * thr / h)),
        ]);

        if report.generation.completed() + rec.shed_requests() as usize != n as usize {
            r.fail(format!(
                "{label}: {} completed + {} shed != {n} submitted",
                report.generation.completed(),
                rec.shed_requests()
            ));
        }
        if let Some(h) = &healthy {
            for (id, stream) in &report.outputs {
                if stream != &h.outputs[id] {
                    r.fail(format!("{label}: job {id} diverged from the healthy output stream"));
                }
            }
        }
        if label == "outage + rejoin" {
            // A silently-permanent loss would pass the gates above.
            if rec.rejoins < 1 || rec.re_expansions < 1 {
                r.fail(format!(
                    "{label}: expected a confirmed rejoin and a re-expansion, saw {} / {}",
                    rec.rejoins, rec.re_expansions
                ));
            }
            if !cfg.smoke {
                let h = healthy_thr.expect("healthy runs first");
                if thr < 0.8 * h {
                    r.fail(format!(
                        "{label}: {thr:.0} tok/s is under 80% of the healthy {h:.0} tok/s"
                    ));
                }
                if let Some(d) = degraded_thr.filter(|&d| thr < d) {
                    r.fail(format!(
                        "{label}: {thr:.0} tok/s below the permanently-degraded {d:.0}"
                    ));
                }
            }
        }
        if label == "degraded (4 -> 3)" {
            degraded_thr = Some(thr);
        }
        healthy.get_or_insert(report);
    }
    r.table(t);
    r
}

/// **Ablation** — colocated continuous batching vs disaggregated
/// prefill/decode.
///
/// Serves one mixed-prompt-length workload (three quarters of the prompts
/// 32–64 tokens, a quarter 256–512 — the tail that stalls colocated decode
/// steps) two ways with the SAME 2-way decode engine, so the delta isolates
/// prompt interference rather than tensor-parallel degree: **colocated**,
/// one 2-GPU node interleaving prefills and fused decode steps; and
/// **disaggregated**, a 2-GPU prefill node streaming each finished block
/// table over the inter-node NIC to an identical 2-GPU decode node.
///
/// Gates: disaggregation cuts the p99 time per output token (the ratio
/// `decode_p99_tpot_delta`); both arms account for every job; KV blocks were
/// streamed; the colocated trace and both node traces sanitize clean.
///
/// Flags: `--requests N` (default 300), `--seed S` (default 42), `--smoke`.
pub fn ablation_disagg(cfg: &ExpConfig) -> ExpResult {
    let requests = if cfg.smoke { 40 } else { cfg.requests_or(300) };
    let seed = cfg.seed.unwrap_or(42);
    // Enough pressure that prompts keep arriving while decodes run — the
    // interference regime disaggregation removes.
    let rate = if cfg.smoke { 30.0 } else { 50.0 };
    let jobs = poisson_jobs(requests, rate, seed, |rng| {
        let prompt =
            if rng.u64_below(4) < 3 { rng.u32_inclusive(2, 4) } else { rng.u32_inclusive(16, 32) };
        (prompt * 16, rng.u32_inclusive(8, 24))
    });
    let model = gpt8b_8l();

    let mut r = ExpResult::default();
    r.line(format!(
        "Ablation: colocated vs disaggregated serving — GPT-8B(8L), 2+2 V100, {requests} seqs, \
         seed {seed}"
    ));
    r.line("(mixed prompts: 75% of 32-64 tokens, 25% of 256-512; replies 8-24)");

    let (colo_report, mut colo_sim) = run_continuous(&model, 2, &jobs, None, true, None);
    let cluster = ClusterTopology::new(2, 2, Node::V100.topology(), NicLink::hdr_200g());
    let config = DisaggConfig::new(cluster, scheduler_config(&model, 2, None, false));
    let disagg = serve_disaggregated(jobs.clone(), &model, config, |_role, devices| {
        (Node::V100.simulation(devices.len(), true), v100_liger(&model, devices.len()))
    });
    let arms = [
        (
            "colocated",
            colo_report.generation.results(),
            colo_report.serving.recovery().shed_requests(),
        ),
        ("disaggregated", disagg.generation.results(), disagg.serving.recovery().shed_requests()),
    ];

    // p99 time per output token over the multi-token generations, and mean
    // time to first token.
    let decode_tail = |results: &[GenerationResult]| -> (f64, f64) {
        let mut tpot: Vec<f64> =
            results.iter().filter(|r| r.tokens >= 2).map(|r| r.tpot().as_millis_f64()).collect();
        assert!(!tpot.is_empty(), "no multi-token generations to score");
        let ttft =
            results.iter().map(|r| r.ttft().as_millis_f64()).sum::<f64>() / results.len() as f64;
        (p99(&mut tpot), ttft)
    };
    let mut t = Table::new(&["serving", "completed", "shed", "p99 tpot (ms)", "avg ttft (ms)"]);
    let mut tails = Vec::new();
    for (label, results, shed) in arms {
        let (tpot, ttft) = decode_tail(results);
        tails.push(tpot);
        t.row(&[
            label.into(),
            format!("{}", results.len()),
            format!("{shed}"),
            format!("{tpot:.2}"),
            format!("{ttft:.1}"),
        ]);
        if results.len() + shed as usize != jobs.len() {
            r.fail(format!(
                "{label} accounted {} completed + {shed} shed of {} jobs",
                results.len(),
                jobs.len()
            ));
        }
    }
    r.table(t);
    let streamed = disagg.streamed_blocks;
    r.summary(&[("decode_p99_tpot_delta", tails[1] / tails[0] - 1.0)], |v| {
        format!(
            "decode p99 delta: {:+.1}%  ({streamed} KV blocks streamed prefill -> decode)",
            v[0] * 100.0
        )
    });

    if streamed == 0 {
        r.fail("disaggregated arm streamed no KV blocks".into());
    }
    // The gate: removing prompt interference must cut the decode tail.
    if tails[1] >= tails[0] {
        r.fail(format!(
            "disaggregated p99 tpot {:.2}ms does not beat colocated {:.2}ms",
            tails[1], tails[0]
        ));
    }
    sanitize(&mut r, "colocated", &colo_sim.take_trace().expect("traced run"), 0);
    assert_eq!(disagg.traces.len(), 2, "disaggregated arm produces one trace per node");
    for (trace, label) in disagg.traces.iter().zip(["disagg prefill node", "disagg decode node"]) {
        sanitize(&mut r, label, trace, 0);
    }
    if r.failures().is_empty() {
        r.line("ok: disaggregation cuts the decode tail with clean traces");
    }
    r
}

/// Prompt classes (distinct shared prefixes) of the prefix workload.
const CLASSES: u64 = 4;
/// Tokens of prompt shared within a class (28 blocks of 16).
const SHARED: u32 = 448;
/// When the flood arrives: far enough after the per-class warm-ups that
/// every class's chain is published by then.
const FLOOD_MS: u64 = 40;

/// Prefill throughput of the *flood* (the warm traffic after the per-class
/// warm-ups) — logical prompt tokens, cached or not, per second from the
/// first flood arrival to the last flood first token — and its mean TTFT.
fn flood_prefill(report: &ContinuousReport, jobs: &[GenerationJob]) -> (f64, f64) {
    let flood: Vec<_> = report.generation.results().iter().filter(|r| r.id >= CLASSES).collect();
    assert!(!flood.is_empty(), "no flood completions to score");
    let first = flood.iter().map(|r| r.arrival).min().unwrap();
    let last_ft = flood.iter().map(|r| r.first_token).max().unwrap();
    let tokens: u64 = flood.iter().map(|r| jobs[r.id as usize].prompt_len as u64).sum();
    let ttft: f64 = flood
        .iter()
        .map(|r| r.first_token.saturating_since(r.arrival).as_millis_f64())
        .sum::<f64>()
        / flood.len() as f64;
    (tokens as f64 / last_ft.saturating_since(first).as_secs_f64(), ttft)
}

/// **Ablation** — cross-request prefix caching on the paged KV pool.
///
/// A skewed shared-prefix workload: a few prompt classes, each a long
/// common prefix plus a short unique tail (system-prompt and few-shot
/// traffic). One warm-up request per class arrives first, then a
/// near-simultaneous flood. Served on 4-way Liger with **no cache** and
/// with the **prefix cache**, where finished prefills publish their prompt
/// blocks and later admissions adopt the longest cached chain.
///
/// Gates: the cached flood's prefill throughput is at least **2x** the
/// uncached one (the ratio `prefill_speedup`); outputs are identical; the
/// cache is hit; both healthy runs and a device-loss run (`--faults`, or
/// device 3 lost mid-trace) sanitize clean with zero double frees; every
/// request completes or is shed with a typed reason.
///
/// Flags: `--requests N` (default 96), `--faults <spec>`, `--smoke`.
pub fn ablation_prefix(cfg: &ExpConfig) -> ExpResult {
    let requests = if cfg.smoke { 24 } else { cfg.requests_or(96) };
    let jobs: Vec<GenerationJob> = (0..requests as u64)
        .map(|id| GenerationJob {
            id,
            batch: 1,
            prompt_len: SHARED + 16 + 16 * (id % 3) as u32,
            output_tokens: 2 + (id % 3) as u32,
            arrival: if id < CLASSES {
                SimTime::from_millis(2 * id)
            } else {
                SimTime::from_millis(FLOOD_MS) + SimDuration::from_micros(100 * id)
            },
            prefix: PrefixTag::shared(id % CLASSES, SHARED),
        })
        .collect();
    let model = gpt8b_8l();
    // Pin budget for every class's shared chain.
    let pinned = |cached: bool| cached.then_some(CLASSES as u32 * SHARED);
    let run = |cached: bool, faults| {
        let (report, mut sim) = run_continuous(&model, 4, &jobs, faults, true, pinned(cached));
        let double_frees = sim.memory_double_frees();
        (report, sim.take_trace().expect("traced run"), double_frees)
    };

    let mut r = ExpResult::default();
    r.line(format!(
        "Ablation: prefix caching on the paged KV pool — GPT-8B(8L), V100 node, {requests} seqs"
    ));
    r.line(format!(
        "({CLASSES} prompt classes, {SHARED}-token shared prefixes, 16-48-token unique tails)"
    ));

    let (cold_report, cold_trace, cold_df) = run(false, None);
    let (warm_report, warm_trace, warm_df) = run(true, None);
    let (cold, warm) = (flood_prefill(&cold_report, &jobs), flood_prefill(&warm_report, &jobs));
    let p = warm_report.serving.prefix();
    let mut t = Table::new(&["config", "completed", "prefill tok/s", "mean TTFT (ms)"]);
    for (label, report, (tok_s, ttft)) in
        [("no cache", &cold_report, cold), ("prefix cache", &warm_report, warm)]
    {
        let completed = report.generation.results().len();
        t.row(&[label.into(), format!("{completed}"), format!("{tok_s:.0}"), format!("{ttft:.2}")]);
        if completed != jobs.len() {
            r.fail(format!("{label} completed {completed} of {}", jobs.len()));
        }
    }
    r.table(t);
    r.line(format!(
        "cache: {}/{} lookups hit, {} tokens served from cache ({:.0}% of prompt work), \
         {} blocks published, {} evicted",
        p.hits,
        p.lookups,
        p.cached_tokens,
        p.cached_fraction() * 100.0,
        p.published_blocks,
        p.evicted_blocks
    ));
    r.summary(
        &[("prefill_speedup", warm.0 / cold.0), ("mean_ttft_delta", warm.1 / cold.1 - 1.0)],
        |v| format!("speedup: {:.2}x prefill tok/s, {:+.1}% mean TTFT", v[0], v[1] * 100.0),
    );

    // Caching must never change what is emitted.
    if cold_report.outputs != warm_report.outputs {
        r.fail("prefix caching changed an output token stream".into());
    }
    if warm.0 < 2.0 * cold.0 {
        r.fail(format!(
            "cached prefill {:.1} tok/s is under 2x uncached {:.1} tok/s",
            warm.0, cold.0
        ));
    }
    if p.hits == 0 {
        r.fail("the shared-prefix workload never hit the cache".into());
    }
    sanitize(&mut r, "no cache", &cold_trace, cold_df);
    sanitize(&mut r, "prefix cache", &warm_trace, warm_df);

    // With the cache on, a device loss flushes the index mid-serve;
    // accounting still closes and the trace stays sanitizer-clean.
    let faults = cfg.faults.clone().unwrap_or_else(|| {
        FaultSpec::new(7).device_down(DeviceId(3), jobs[jobs.len() / 2].arrival)
    });
    let (loss_report, loss_trace, loss_df) = run(true, Some(faults));
    let completed = loss_report.generation.completed();
    let shed = loss_report.serving.recovery().shed_requests();
    r.line(format!("loss run: {completed} completed, {shed} shed"));
    if completed + shed as usize != jobs.len() {
        r.fail(format!(
            "loss run accounting: {completed} completed + {shed} shed != {} submitted",
            jobs.len()
        ));
    }
    sanitize(&mut r, "prefix cache with device loss", &loss_trace, loss_df);
    if r.failures().is_empty() {
        r.line(
            "ok: prefix caching >=2x prefill tok/s with identical outputs; traces sanitized clean",
        );
    }
    r
}

/// **Ablation** — elastic recovery from permanent device loss.
///
/// Serves one prefill trace with 4-way Liger under three loss scenarios —
/// healthy, one device lost a third of the way in (4 → 3), a second lost at
/// two thirds (4 → 2) — crossed with both KV recovery policies. The
/// watchdog detects each loss, the engine drains and replans over the
/// survivors, the lost KV shards are rebuilt, and serving resumes on
/// degraded capacity.
///
/// Gates: every request completes or is shed with a recorded reason;
/// detection stays within the watchdog bound; and (outside `--smoke`)
/// throughput falls weakly as survivors shrink 4 → 3 → 2.
///
/// Flags: `--requests N` (default 300), `--smoke` (60 requests).
pub fn ablation_recovery(cfg: &ExpConfig) -> ExpResult {
    let requests = if cfg.smoke { 60 } else { cfg.requests_or(300) };
    let (model, node, world, batch) = (ModelConfig::gpt_8b(), Node::V100, 4, 8);
    let cap = intra_capacity(&model, node, world, BatchShape::prefill(batch, 128));
    let rate = cap * 0.9; // near healthy saturation so lost capacity binds
    let trace = PrefillTraceConfig {
        count: requests,
        batch,
        seq_min: 128,
        seq_max: 128,
        arrivals: ArrivalProcess::Constant { rate },
        seed: 42,
    }
    .generate();
    let t1 = trace[trace.len() / 3].arrival;
    let t2 = trace[2 * trace.len() / 3].arrival;
    let scenarios = [
        ("healthy (4)", None),
        ("4 -> 3", Some(FaultSpec::new(42).device_down(DeviceId(3), t1))),
        (
            "4 -> 2",
            Some(FaultSpec::new(42).device_down(DeviceId(3), t1).device_down(DeviceId(2), t2)),
        ),
    ];

    let mut r = ExpResult::default();
    r.line(format!("Ablation: permanent device loss — GPT-8B, V100 node, batch {batch}"));
    r.line(format!("(loss at 1/3 and 2/3 of the trace; rate {rate:.1} req/s; watermark 64)"));
    let mut t = Table::new(&[
        "policy",
        "scenario",
        "completed",
        "shed",
        "detect (ms)",
        "drain (ms)",
        "replan (ms)",
        "replayed tok",
        "throughput (req/s)",
    ]);
    for policy in [RecoveryPolicy::Replicate, RecoveryPolicy::Recompute] {
        let config = RecoveryConfig {
            health: watchdog(),
            policy,
            admission: AdmissionConfig { queue_watermark: 64 },
        };
        let mut last_thr: Option<f64> = None;
        for (label, faults) in scenarios.iter().cloned() {
            let m = run_liger_recovery(&model, node, world, trace.clone(), faults, config);
            let rec = m.recovery();
            let shed = rec.shed_requests() as usize;
            let case = format!("{} / {label}", policy.name());
            t.row(&[
                policy.name().into(),
                label.into(),
                format!("{}", m.completed()),
                format!("{shed}"),
                format!("{:.2}", rec.detection_latency.as_millis_f64()),
                format!("{:.2}", rec.drain_time.as_millis_f64()),
                format!("{:.2}", rec.replan_time.as_millis_f64()),
                format!("{}", rec.recompute_tokens),
                format!("{:.1}", m.throughput()),
            ]);
            if m.completed() + shed != trace.len() {
                r.fail(format!(
                    "{case}: {} completed + {shed} shed != {} submitted",
                    m.completed(),
                    trace.len()
                ));
            }
            if rec.shed.iter().any(|s| s.reason.name().is_empty()) {
                r.fail(format!("{case}: shed without a reason"));
            }
            let bound = config.health.detection_bound();
            if rec.losses > 0 && rec.detection_latency > bound {
                r.fail(format!("{case}: detection {} beyond bound {bound}", rec.detection_latency));
            }
            if !cfg.smoke {
                if let Some(prev) = last_thr.filter(|&prev| m.throughput() > prev * 1.001) {
                    r.fail(format!(
                        "{case}: throughput {:.2} exceeds the larger node's {prev:.2}",
                        m.throughput()
                    ));
                }
                last_thr = Some(m.throughput());
            }
        }
    }
    r.table(t);
    if r.failures().is_empty() {
        r.line("ok: every request completed or was shed with a reason; throughput fell monotonically 4 -> 3 -> 2");
    }
    r
}
