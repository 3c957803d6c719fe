//! Property tests for Algorithm 1 (`plan_round`): the scheduling invariants
//! the paper's Principles 1–3 demand, over randomized processing lists.
//!
//! Runs on the internal [`liger_gpu_sim::testkit`] harness; rerun a failing
//! case with the `LIGER_PROP_SEED` it prints.

use std::collections::VecDeque;

use liger_core::{plan_round, plan_round_into, FuncVec, PlanParams, RoundPlan};
use liger_gpu_sim::testkit::{check, Gen};
use liger_gpu_sim::{KernelClass, SimDuration, SimTime};
use liger_model::{BatchShape, CostModel, GemmKind, LayerOp, PlacedOp, PricedOp};

/// A randomized op: class + duration in microseconds.
fn gen_op(g: &mut Gen) -> PricedOp {
    let compute = g.bool();
    let us = g.u64_in(1, 2000);
    let (op, dur) = if compute {
        (
            LayerOp::Gemm { m: 128, k: 4096, n: 8192, kind: GemmKind::Fc1 },
            SimDuration::from_micros(us),
        )
    } else {
        (LayerOp::AllReduce { bytes: 4 << 20, ranks: 4 }, SimDuration::from_micros(us))
    };
    PricedOp { placed: PlacedOp { layer: 0, op }, duration: dur }
}

/// 1–5 batches of 1–29 ops each.
fn gen_batches(g: &mut Gen) -> Vec<Vec<PricedOp>> {
    g.vec_of(1, 6, |g| g.vec_of(1, 30, gen_op))
}

fn build_list(batches: &[Vec<PricedOp>]) -> VecDeque<FuncVec> {
    batches
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            FuncVec::from_ops(i as u64, BatchShape::prefill(1, 16), SimTime::ZERO, ops.clone())
        })
        .collect()
}

fn params(factor: f64, df: u32) -> PlanParams {
    PlanParams {
        contention_factor: factor,
        division_factor: df,
        enable_decomposition: df > 1,
        straggler_factor: 1.0,
    }
}

/// The primary subset is one maximal same-class run from batch 0 and its
/// window equals the run's duration sum.
#[test]
fn primary_is_a_single_class_run() {
    check("primary_is_a_single_class_run", 128, |g| {
        let batches = gen_batches(g);
        let factor = g.f64_in(1.0, 1.5);
        let mut q = build_list(&batches);
        let cm = CostModel::v100_node();
        let plan = plan_round(&mut q, &params(factor, 8), &cm).unwrap();
        assert!(!plan.primary.is_empty());
        let class = plan.primary_class;
        let mut window = SimDuration::ZERO;
        for item in &plan.primary {
            assert_eq!(item.batch, 0, "primary kernels come from the earliest batch");
            assert_eq!(item.op.class(), class);
            window += item.op.duration;
        }
        assert_eq!(window, plan.window);
    });
}

/// Principle 1: the secondary subset's durations, scaled by the
/// contention factor, never exceed the primary window; all secondary
/// kernels are of the opposite class and from subsequent batches.
#[test]
fn secondary_fits_scaled_window() {
    check("secondary_fits_scaled_window", 128, |g| {
        let batches = gen_batches(g);
        let factor = g.f64_in(1.0, 1.5);
        let mut q = build_list(&batches);
        let cm = CostModel::v100_node();
        let plan = plan_round(&mut q, &params(factor, 8), &cm).unwrap();
        let mut scaled = 0u64;
        for item in &plan.secondary {
            assert!(item.batch > 0, "secondary never draws from the primary batch");
            assert_eq!(item.op.class(), plan.primary_class.opposite());
            scaled += item.op.duration.scale(factor).as_nanos();
        }
        // Allow one nanosecond of rounding per secondary item.
        assert!(
            scaled <= plan.window.as_nanos() + plan.secondary.len() as u64,
            "scaled secondary {}ns exceeds window {}ns",
            scaled,
            plan.window.as_nanos()
        );
    });
}

/// Work conservation: planning rounds to exhaustion emits every kernel
/// exactly once, with decomposition conserving split payloads.
#[test]
fn rounds_conserve_work() {
    check("rounds_conserve_work", 128, |g| {
        let batches = gen_batches(g);
        let factor = g.f64_in(1.0, 1.3);
        let df = g.u32_in(1, 12);
        let cm = CostModel::v100_node();
        let mut q = build_list(&batches);
        // Total nominal "payload": GEMM column count + all-reduce bytes per batch.
        let payload = |ops: &[PricedOp]| -> u64 {
            ops.iter()
                .map(|o| match o.placed.op {
                    LayerOp::Gemm { n, .. } => n,
                    LayerOp::AllReduce { bytes, .. } => bytes,
                    _ => 0,
                })
                .sum()
        };
        let total_before: u64 = batches.iter().map(|b| payload(b)).sum();
        let mut emitted = 0u64;
        let mut rounds = 0usize;
        while let Some(plan) = plan_round(&mut q, &params(factor, df), &cm) {
            for item in plan.primary.iter().chain(&plan.secondary) {
                emitted += payload(std::slice::from_ref(&item.op));
            }
            q.retain(|v| !v.is_empty());
            rounds += 1;
            assert!(rounds < 10_000, "planner failed to terminate");
        }
        assert_eq!(emitted, total_before, "split payloads must be conserved");
    });
}

/// Per-batch FIFO: concatenating a batch's kernels across rounds yields
/// its original op order (modulo decomposition splitting a head into
/// pieces that still appear in order).
#[test]
fn per_batch_order_is_preserved() {
    check("per_batch_order_is_preserved", 128, |g| {
        let batches = gen_batches(g);
        let factor = g.f64_in(1.0, 1.3);
        let cm = CostModel::v100_node();
        let mut q = build_list(&batches);
        let mut seen: Vec<Vec<KernelClass>> = vec![Vec::new(); batches.len()];
        while let Some(plan) = plan_round(&mut q, &params(factor, 1), &cm) {
            for item in plan.primary.iter().chain(&plan.secondary) {
                seen[item.batch as usize].push(item.op.class());
            }
            q.retain(|v| !v.is_empty());
        }
        for (i, ops) in batches.iter().enumerate() {
            let expect: Vec<KernelClass> = ops.iter().map(|o| o.class()).collect();
            assert_eq!(&seen[i], &expect, "batch {} reordered", i);
        }
    });
}

/// A higher contention factor never packs more secondary work into the
/// same round (monotonicity of the anticipation).
#[test]
fn factor_monotonically_shrinks_secondary() {
    check("factor_monotonically_shrinks_secondary", 128, |g| {
        let batches = gen_batches(g);
        let cm = CostModel::v100_node();
        let mut q1 = build_list(&batches);
        let mut q2 = build_list(&batches);
        let p1 = plan_round(&mut q1, &params(1.0, 1), &cm).unwrap();
        let p2 = plan_round(&mut q2, &params(1.4, 1), &cm).unwrap();
        let sum = |plan: &liger_core::RoundPlan| -> u64 {
            plan.secondary.iter().map(|i| i.op.duration.as_nanos()).sum()
        };
        assert!(sum(&p2) <= sum(&p1));
    });
}

/// Stale-item guard for the reused plan: planning to exhaustion through one
/// `RoundPlan` that already holds an earlier list's kernels yields, round by
/// round, exactly what a fresh `plan_round` plans on a clone of the list.
#[test]
fn reused_plan_matches_a_fresh_plan_every_round() {
    check("reused_plan_matches_a_fresh_plan_every_round", 128, |g| {
        let cm = CostModel::v100_node();
        let factor = g.f64_in(1.0, 1.5);
        for df in [1, 8] {
            let params = params(factor, df);
            // Dirty the plan with another list's round first.
            let mut plan = RoundPlan::default();
            assert!(plan_round_into(&mut build_list(&gen_batches(g)), &params, &cm, &mut plan));
            let mut q = build_list(&gen_batches(g));
            let mut rounds = 0usize;
            loop {
                let mut fresh_q = q.clone();
                let fresh = plan_round(&mut fresh_q, &params, &cm);
                let planned = plan_round_into(&mut q, &params, &cm, &mut plan);
                let Some(fresh) = fresh else {
                    assert!(!planned, "fresh plan ended first");
                    assert!(plan.is_empty(), "an exhausted list leaves the plan empty");
                    break;
                };
                assert!(planned, "reused plan ended first");
                assert_eq!(plan, fresh, "df={df} round {rounds}");
                q.retain(|v| !v.is_empty());
                rounds += 1;
                assert!(rounds < 10_000, "planner failed to terminate");
            }
        }
    });
}
