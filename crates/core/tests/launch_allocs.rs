//! Heap-allocation budget of the Liger engine's launch path.
//!
//! Serving launches thousands of kernels per OPT-30B request, and launching
//! one allocates nothing: specs move inline into the simulator's queues,
//! kernel names are borrowed, collectives are launched straight from the
//! priced op, and a round's event lists are reused or recycled. Planning
//! allocates nothing either once the engine's one reused `RoundPlan` has
//! grown to the largest round. What remains per request is function
//! assembly (one buffer holding one priced block and the head ops) and the
//! serving loop's bookkeeping: a handful of allocations per request, not
//! one per kernel or per round.
//!
//! The test binary installs its own counting allocator with thread-local
//! counters, so tests running in parallel do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::collections::VecDeque;

use liger_collectives::Topology;
use liger_core::{plan_round_into, FuncVec, LigerConfig, LigerEngine, PlanParams, RoundPlan};
use liger_gpu_sim::{DeviceSpec, SimTime, Simulation};
use liger_model::{BatchShape, CostModel, ModelConfig};
use liger_serving::{serve, PrefillTraceConfig};

struct Counting;

thread_local! {
    // Const-initialised without a destructor: touching them never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Adds to the live allocation count and byte total.
fn track(blocks: i64, bytes: i64) {
    let _ = LIVE.try_with(|c| {
        let (b, n) = c.get();
        c.set((b + blocks, n + bytes));
    });
}

// SAFETY: every method forwards to `System` unchanged and only updates
// thread-local integers, so `System`'s contract carries over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        track(1, layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        track(1, layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-1, -(layout.size() as i64));
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        track(0, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Live allocations and their bytes on this thread.
fn live() -> (i64, i64) {
    LIVE.with(Cell::get)
}

const WORLD: usize = 4;
const REQUESTS: u64 = 40;

fn v100_cost() -> CostModel {
    CostModel::new(DeviceSpec::v100_16gb(), Topology::v100_nvlink())
}

/// Serves the paper's prefill trace (40 OPT-30B requests at 12 req/s) on a
/// 4-GPU V100 node and returns the allocations serving made and the
/// kernels it launched.
fn serve_paper_prefill() -> (u64, u64) {
    let device = DeviceSpec::v100_16gb();
    let mut engine =
        LigerEngine::new(ModelConfig::opt_30b(), v100_cost(), WORLD, LigerConfig::default())
            .unwrap();
    let mut sim = Simulation::builder().devices(device, WORLD).build().unwrap();
    let requests = PrefillTraceConfig::paper(REQUESTS as usize, 2, 12.0, 7).generate();

    let before = allocs();
    let metrics = serve(&mut sim, &mut engine, requests);
    let spent = allocs() - before;

    assert_eq!(metrics.completed(), REQUESTS as usize);
    (spent, sim.kernels_launched())
}

#[test]
fn serving_allocates_under_half_an_allocation_per_launched_kernel() {
    let (spent, kernels) = serve_paper_prefill();
    assert!(kernels > REQUESTS * 1000, "an OPT-30B prefill launches thousands of kernels");
    let per_kernel = spent as f64 / kernels as f64;
    assert!(
        per_kernel < 0.5,
        "serving allocated {spent} times for {kernels} launched kernels ({per_kernel:.3} each)"
    );
}

/// About 180 scheduling rounds serve one request; none of them may cost an
/// allocation of its own.
#[test]
fn serving_allocates_at_most_eight_times_per_request() {
    let (spent, _) = serve_paper_prefill();
    let per_request = spent as f64 / REQUESTS as f64;
    assert!(
        per_request <= 8.0,
        "serving allocated {spent} times for {REQUESTS} requests ({per_request:.2} each)"
    );
}

/// Function assembly keeps one priced block and the two head ops, not the
/// 48-layer stack: one allocation of at most 1 KiB for OPT-30B (578 ops
/// took 37 KiB as a full list).
#[test]
fn assembling_opt30b_keeps_one_allocation_of_at_most_a_kibibyte() {
    let cost = v100_cost();
    let cfg = ModelConfig::opt_30b();
    let shape = BatchShape::prefill(2, 64);
    let (allocs_before, (blocks_before, bytes_before)) = (allocs(), live());
    let v = FuncVec::assemble(0, shape, SimTime::ZERO, &cost, &cfg, WORLD as u32);
    let spent = allocs() - allocs_before;
    let (blocks, bytes) = live();
    assert_eq!(v.len(), 48 * 12 + 2);
    assert_eq!(blocks - blocks_before, 1, "assembly keeps exactly one allocation");
    assert!(bytes - bytes_before <= 1024, "assembly keeps {} bytes", bytes - bytes_before);
    // Debug builds also run the structural oracle over the handed-out
    // sequence; its two scratch buffers are freed before `assemble` returns.
    let oracle = if cfg!(debug_assertions) { 2 } else { 0 };
    assert_eq!(spent, 1 + oracle, "assembly allocated {spent} times");
}

/// Once a reused plan's buffers have grown to the largest round, planning
/// allocates nothing, runtime decomposition included.
#[test]
fn steady_state_planning_allocates_nothing() {
    let cost = v100_cost();
    let cfg = ModelConfig::opt_30b();
    let batches = |first: u64| -> VecDeque<FuncVec> {
        (first..first + 4)
            .map(|id| {
                let shape = BatchShape::prefill(2, 64);
                FuncVec::assemble(id, shape, SimTime::ZERO, &cost, &cfg, WORLD as u32)
            })
            .collect()
    };
    let params = PlanParams {
        contention_factor: 1.1,
        division_factor: 8,
        enable_decomposition: true,
        straggler_factor: 1.0,
    };
    let mut plan = RoundPlan::default();
    // Warm-up: one pass over the same batches sizes the plan's buffers.
    let mut warm_up = batches(0);
    while plan_round_into(&mut warm_up, &params, &cost, &mut plan) {
        warm_up.retain(|v| !v.is_empty());
    }
    let mut list = batches(4);

    let before = allocs();
    let mut rounds = 0;
    while plan_round_into(&mut list, &params, &cost, &mut plan) {
        list.retain(|v| !v.is_empty());
        rounds += 1;
    }
    let spent = allocs() - before;

    assert!(rounds > 100, "four OPT-30B batches take hundreds of rounds, got {rounds}");
    assert_eq!(spent, 0, "{rounds} steady-state rounds allocated {spent} times");
}
