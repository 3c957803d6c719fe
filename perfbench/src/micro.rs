//! Micro-timings of single layer entry points on inputs drawn from the
//! workload being run: `assemble` (model), `plan_round` (core), `BlockPool`
//! grow/share/release (kvcache) and `route_jobs` (cluster router).

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use liger_core::{plan_round, FuncVec, LigerConfig, PlanParams};
use liger_gpu_sim::{DeviceId, SimTime};
use liger_model::{assemble, BatchShape, ModelConfig};
use liger_serving::{route_jobs, BlockPool, RouterPolicy};

use crate::stats::median;
use crate::workloads::{Prepared, WORLD};

/// Shapes each micro-timing cycles through.
const SHAPES: usize = 64;
/// Timed calls per micro-timing.
const CALLS: usize = 400;

/// Median ns of `CALLS` timed calls of `f(i)`.
fn median_ns(mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..CALLS)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// The prefill shapes of the workload's first [`SHAPES`] requests.
fn shapes(p: &Prepared) -> Vec<BatchShape> {
    let jobs = p.jobs().as_generation();
    jobs.iter().take(SHAPES).map(|j| BatchShape::prefill(j.batch, j.prompt_len)).collect()
}

/// µs per `assemble` call for `model`, 4-way tensor parallel.
pub fn assemble_us(p: &Prepared, model: &ModelConfig) -> f64 {
    let shapes = shapes(p);
    let cost = p.node().cost();
    median_ns(|i| {
        black_box(assemble(cost, model, black_box(shapes[i % shapes.len()]), WORLD as u32));
    }) / 1e3
}

/// µs to plan `batches` freshly assembled batches of the workload's model
/// to the end: `plan_round` called until the processing list is empty,
/// dropping exhausted batches from its front as the engine does.
pub fn plan_round_us(p: &Prepared, batches: usize) -> f64 {
    let shapes = shapes(p);
    let cost = p.node().cost();
    let liger = LigerConfig::default();
    let params = PlanParams {
        contention_factor: p.node().factor(),
        division_factor: liger.division_factor,
        enable_decomposition: liger.enable_decomposition,
        straggler_factor: 1.0,
    };
    let lists: Vec<VecDeque<FuncVec>> = (0..shapes.len())
        .map(|start| {
            (0..batches)
                .map(|b| {
                    let shape = shapes[(start + b) % shapes.len()];
                    FuncVec::assemble(b as u64, shape, SimTime::ZERO, cost, p.model(), WORLD as u32)
                })
                .collect()
        })
        .collect();
    let times: Vec<f64> = (0..CALLS)
        .map(|i| {
            let mut list = lists[i % lists.len()].clone();
            let start = Instant::now();
            loop {
                while list.front().is_some_and(FuncVec::is_empty) {
                    list.pop_front();
                }
                if black_box(plan_round(&mut list, &params, cost)).is_none() {
                    break;
                }
            }
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times) / 1e3
}

/// ns per public `BlockPool` operation: each sample grows a sequence to one
/// of the workload's prompt lengths, shares its table, and releases both.
pub fn kv_op_ns(p: &Prepared) -> f64 {
    let mut sim = p.node().simulation(None);
    let mut kv = BlockPool::new(p.pool(), (0..WORLD).map(DeviceId).collect());
    let prompts: Vec<u32> = p.jobs().as_generation().iter().map(|j| j.prompt_len).collect();
    median_ns(|i| {
        let tokens = prompts[i % prompts.len()];
        kv.grow(&mut sim, 0, tokens, 1).expect("an empty pool holds one prompt");
        kv.share(0, 1);
        black_box(kv.release(&mut sim, 0));
        black_box(kv.release(&mut sim, 1));
    }) / 4.0
}

/// µs per job of `route_jobs` over the workload's jobs, two replicas,
/// prefix affinity.
pub fn route_us_per_job(p: &Prepared) -> f64 {
    let jobs = p.jobs().as_generation();
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            black_box(route_jobs(black_box(&jobs), 2, RouterPolicy::PrefixAffinity));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times) / 1e3 / jobs.len() as f64
}
