//! Compare Liger against the Intra-Op / Inter-Op / Inter-Th baselines on
//! the same workload — a miniature of the paper's Fig. 10 — then run one
//! skewed generation workload through static batching and through the
//! continuous-batching scheduler and print the throughput/tail-latency
//! delta.
//!
//! ```sh
//! cargo run --release --example serving_comparison
//! ```

use liger::prelude::*;
use liger::serving::{serve, serve_continuous, serve_generations, GenerationJob, PrefixTag};

fn run(label: &str, engine: &mut dyn InferenceEngine, rate: f64) {
    let mut sim = Simulation::builder().devices(DeviceSpec::v100_16gb(), 4).build().unwrap();
    let trace = PrefillTraceConfig::paper(150, 2, rate, 42).generate();
    let m = serve(&mut sim, engine, trace);
    println!(
        "  {label:<10} avg latency {:>9}  p99 {:>9}  throughput {:>6.1} req/s",
        m.avg_latency().to_string(),
        m.latency_percentile(99.0).to_string(),
        m.throughput()
    );
}

/// A skewed generation workload: most replies short, a quarter long — the
/// shape where iteration-level scheduling pays off.
fn skewed_jobs(n: u64, rate: f64) -> Vec<GenerationJob> {
    let mut rng = liger::sim::rng::Rng::seed_from_u64(7);
    let mut at = 0.0f64;
    (0..n)
        .map(|id| {
            at += -(1.0 - rng.next_f64()).ln() / rate;
            GenerationJob {
                id,
                batch: 1,
                prompt_len: rng.u32_inclusive(2, 8) * 16,
                output_tokens: if rng.u64_below(4) < 3 {
                    rng.u32_inclusive(4, 12)
                } else {
                    rng.u32_inclusive(48, 96)
                },
                prefix: PrefixTag::NONE,
                arrival: SimTime::from_secs_f64(at),
            }
        })
        .collect()
}

/// True-token throughput (each sequence's own reply length) and p99 of the
/// per-sequence arrival→finish latency.
fn score(per_seq: &[(GenerationJob, SimTime)]) -> (f64, f64) {
    let first = per_seq.iter().map(|(j, _)| j.arrival).min().unwrap();
    let last = per_seq.iter().map(|&(_, f)| f).max().unwrap();
    let tokens: u64 = per_seq.iter().map(|(j, _)| j.output_tokens as u64).sum();
    let mut lat: Vec<f64> =
        per_seq.iter().map(|(j, f)| f.saturating_since(j.arrival).as_millis_f64()).collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((lat.len() as f64 * 0.99).ceil() as usize).clamp(1, lat.len()) - 1;
    (tokens as f64 / last.saturating_since(first).as_secs_f64(), lat[idx])
}

fn gen_engine(cfg: &ModelConfig, cost: &CostModel, factor: f64) -> LigerEngine {
    LigerEngine::new(
        cfg.clone(),
        cost.clone(),
        4,
        LigerConfig::default().with_contention_factor(factor),
    )
    .unwrap()
}

fn batching_comparison(cost: &CostModel, factor: f64) {
    let cfg = ModelConfig::gpt_8b().with_layers(8);
    let jobs = skewed_jobs(64, 40.0);
    let sim = || Simulation::builder().devices(DeviceSpec::v100_16gb(), 4).build().unwrap();

    // Static: groups of 8 consecutive arrivals, padded to the longest
    // member, admitted when the last member has arrived.
    let mut grouped = Vec::new();
    let mut members: Vec<Vec<GenerationJob>> = Vec::new();
    for (gid, chunk) in jobs.chunks(8).enumerate() {
        grouped.push(GenerationJob {
            id: gid as u64,
            batch: chunk.len() as u32,
            prompt_len: chunk.iter().map(|j| j.prompt_len).max().unwrap(),
            output_tokens: chunk.iter().map(|j| j.output_tokens).max().unwrap(),
            arrival: chunk.iter().map(|j| j.arrival).max().unwrap(),
            prefix: PrefixTag::NONE,
        });
        members.push(chunk.to_vec());
    }
    let mut e = gen_engine(&cfg, cost, factor);
    let m = serve_generations(&mut sim(), &mut e, grouped);
    let static_seq: Vec<(GenerationJob, SimTime)> = m
        .results()
        .iter()
        .flat_map(|r| members[r.id as usize].iter().map(|j| (*j, r.finished)))
        .collect();
    let (static_tps, static_p99) = score(&static_seq);

    // Continuous: iteration-level scheduling over the paged KV pool.
    let config = SchedulerConfig::sized_for(&cfg, 4, DeviceSpec::v100_16gb().mem_capacity);
    let mut e = gen_engine(&cfg, cost, factor);
    let report = serve_continuous(&mut sim(), &mut e, jobs.clone(), &cfg, cost, config);
    let cont_seq: Vec<(GenerationJob, SimTime)> =
        report.generation.results().iter().map(|r| (jobs[r.id as usize], r.finished)).collect();
    let (cont_tps, cont_p99) = score(&cont_seq);
    let b = report.serving.batching();

    println!("static vs continuous batching (GPT-8B 8L, 64 skewed generations at 40/s):");
    println!("  static      {static_tps:>6.0} tok/s  p99 {static_p99:>7.1} ms");
    println!(
        "  continuous  {cont_tps:>6.0} tok/s  p99 {cont_p99:>7.1} ms  \
         (padding waste {:.1}%, avg occupancy {:.0}%)",
        b.padding_waste() * 100.0,
        b.avg_occupancy() * 100.0
    );
    println!(
        "  delta       {:+.1}% tok/s, {:+.1}% p99",
        (cont_tps / static_tps - 1.0) * 100.0,
        (cont_p99 / static_p99 - 1.0) * 100.0
    );
}

fn main() {
    let cfg = ModelConfig::opt_30b();
    let cost = CostModel::v100_node();
    let factor = profile_contention(&DeviceSpec::v100_16gb(), &NcclConfig::liger_tuned()).factor();

    for rate in [10.0, 20.0, 26.0] {
        println!("arrival rate {rate:.0} req/s:");
        let mut liger = LigerEngine::new(
            cfg.clone(),
            cost.clone(),
            4,
            LigerConfig::default().with_contention_factor(factor),
        )
        .unwrap();
        run("Liger", &mut liger, rate);
        let mut intra = IntraOpEngine::new(cfg.clone(), cost.clone(), 4).unwrap();
        run("Intra-Op", &mut intra, rate);
        let mut inter =
            InterOpEngine::new(cfg.clone(), cost.clone(), 4, PipelineFlavor::Measured).unwrap();
        run("Inter-Op", &mut inter, rate);
        let mut inter_th =
            InterOpEngine::new(cfg.clone(), cost.clone(), 4, PipelineFlavor::Theoretical).unwrap();
        run("Inter-Th", &mut inter_th, rate);
        println!();
    }
    println!("Liger keeps Intra-Op's latency while pushing throughput past it; the pipelines pay full-model latency.");
    println!();
    batching_comparison(&cost, factor);
}
