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
//! Continuous batching keeps to a fixed handful per request too: KV page
//! lists and block tables, decode member lists and function-assembly op
//! buffers are recycled from step to step, and each output stream is sized
//! once. Its live heap follows the requests in flight: beyond the report
//! it returns and the jobs it was handed, a trace twice as long costs
//! almost nothing more.
//!
//! The test binary installs its own counting allocator with thread-local
//! counters, so tests running in parallel do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::collections::VecDeque;

use liger_collectives::Topology;
use liger_core::{plan_round_into, FuncVec, LigerConfig, LigerEngine, PlanParams, RoundPlan};
use liger_gpu_sim::{DeviceSpec, Driver, Rng, SimTime, Simulation, Wake};
use liger_model::{BatchShape, CostModel, ModelConfig};
use liger_serving::{
    serve, serve_continuous, ArrivalProcess, GenerationJob, InferenceEngine, PrefillTraceConfig,
    PrefixTag, Request, SchedulerConfig,
};

struct Counting;

thread_local! {
    // Const-initialised without a destructor: touching them never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Adds to the live allocation count and byte total.
fn track(blocks: i64, bytes: i64) {
    let _ = LIVE.try_with(|c| {
        let (b, n) = c.get();
        c.set((b + blocks, n + bytes));
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(n + bytes)));
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

/// Restarts the live-byte high-water mark at the current level and returns
/// that level.
fn reset_peak() -> i64 {
    let (_, bytes) = live();
    PEAK.with(|p| p.set(bytes));
    bytes
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
/// allocation of its own, function assembly reuses the op buffer of a
/// retired batch, and completions drain into the driver's reused buffer.
/// Serving measures 2.5 allocations per request (3.5 while every drain
/// handed out the engine's completion list, 4.5 while every batch also
/// assembled into a new buffer).
#[test]
fn serving_allocates_at_most_three_and_a_quarter_times_per_request() {
    let (spent, _) = serve_paper_prefill();
    let per_request = spent as f64 / REQUESTS as f64;
    // Debug builds also run the structural oracle over every assembled
    // batch, one per request: two scratch allocations each.
    let bound = if cfg!(debug_assertions) { 5.25 } else { 3.25 };
    assert!(
        per_request <= bound,
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

/// Counts the batches a healthy serve hands the engine (each is assembled
/// once).
struct CountingSubmits {
    inner: LigerEngine,
    submitted: u64,
}

impl InferenceEngine for CountingSubmits {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn submit(&mut self, request: Request, sim: &mut Simulation) {
        self.submitted += 1;
        self.inner.submit(request, sim);
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        self.inner.on_wake(wake, sim);
    }

    fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
        self.inner.drain_completions()
    }

    fn drain_completions_into(&mut self, out: &mut Vec<(u64, SimTime)>) {
        self.inner.drain_completions_into(out);
    }
}

/// The Liger engine with completions drained through the trait's default
/// `drain_completions_into`, which appends the list `drain_completions`
/// hands out.
struct DefaultDrain(LigerEngine);

impl InferenceEngine for DefaultDrain {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn submit(&mut self, request: Request, sim: &mut Simulation) {
        self.0.submit(request, sim);
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        self.0.on_wake(wake, sim);
    }

    fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
        self.0.drain_completions()
    }
}

/// Submits a batch of requests at start, then drains the engine after
/// every wake into one buffer the caller reuses, counting what the wakes
/// and drains allocate.
struct DrainEveryWake<'a, E: InferenceEngine> {
    engine: &'a mut E,
    requests: Vec<Request>,
    drained: &'a mut Vec<(u64, SimTime)>,
    /// Allocations inside `on_wake` and `drain_completions_into`.
    allocs: u64,
    /// Drains that returned at least one completion.
    completions: u64,
}

impl<E: InferenceEngine> Driver for DrainEveryWake<'_, E> {
    fn start(&mut self, sim: &mut Simulation) {
        for request in self.requests.drain(..) {
            self.engine.submit(request, sim);
        }
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        let (before, had) = (allocs(), self.drained.len());
        self.engine.on_wake(wake, sim);
        self.engine.drain_completions_into(self.drained);
        self.allocs += allocs() - before;
        self.completions += (self.drained.len() > had) as u64;
    }
}

/// Serves rounds of four two-layer OPT-30B prefills on one engine and
/// simulation and returns each round's wake-and-drain allocations,
/// non-empty drains and drained completions.
fn drain_rounds<E: InferenceEngine>(engine: &mut E, rounds: u64) -> Vec<(u64, u64, Vec<u64>)> {
    let mut sim = Simulation::builder().devices(DeviceSpec::v100_16gb(), WORLD).build().unwrap();
    let mut drained = Vec::new();
    (0..rounds)
        .map(|round| {
            drained.clear();
            let requests = (0..4)
                .map(|i| Request::new(4 * round + i, BatchShape::prefill(1, 32), sim.now()))
                .collect();
            let mut driver = DrainEveryWake {
                engine: &mut *engine,
                requests,
                drained: &mut drained,
                allocs: 0,
                completions: 0,
            };
            sim.run_to_completion(&mut driver);
            let (spent, completions) = (driver.allocs, driver.completions);
            (spent, completions, drained.iter().map(|&(id, _)| id).collect())
        })
        .collect()
}

fn two_layer_engine() -> LigerEngine {
    let model = ModelConfig::opt_30b().with_layers(2);
    LigerEngine::new(model, v100_cost(), WORLD, LigerConfig::default()).unwrap()
}

/// Once two rounds have sized its buffers, the engine completes batches
/// and drains them into the caller's buffer without allocating: `append`
/// leaves its completion list empty with its capacity kept. Through the
/// trait's default every non-empty drain hands that list out, so the next
/// completion allocates a new one.
#[test]
fn a_warmed_up_engine_completes_and_drains_without_allocating() {
    let (spent, completions, ids) = drain_rounds(&mut two_layer_engine(), 3).pop().unwrap();
    let (spent_default, _, ids_default) =
        drain_rounds(&mut DefaultDrain(two_layer_engine()), 3).pop().unwrap();
    assert_eq!(ids, [8, 9, 10, 11], "the third round completes its four batches");
    assert_eq!(ids_default, ids, "the default drains in the same order");
    assert_eq!(spent, 0, "the third round allocated {spent} times");
    assert_eq!(completions, 4, "each batch completes on a wake of its own");
    assert!(
        spent_default >= completions,
        "{completions} default drains allocated only {spent_default} times"
    );
}

/// Completions to hand out, oldest first.
struct Scripted(Vec<(u64, SimTime)>);

impl InferenceEngine for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn submit(&mut self, _: Request, _: &mut Simulation) {}

    fn on_wake(&mut self, _: Wake, _: &mut Simulation) {}

    fn drain_completions(&mut self) -> Vec<(u64, SimTime)> {
        std::mem::take(&mut self.0)
    }
}

/// The trait's default appends after what the buffer already holds, in the
/// order `drain_completions` returns, and leaves nothing behind.
#[test]
fn the_default_drain_appends_in_completion_order() {
    let at = SimTime::from_micros;
    let mut engine = Scripted(vec![(9, at(5)), (2, at(5)), (4, at(7))]);
    let mut out = vec![(1, at(1))];
    engine.drain_completions_into(&mut out);
    assert_eq!(out, [(1, at(1)), (9, at(5)), (2, at(5)), (4, at(7))]);
    engine.drain_completions_into(&mut out);
    assert_eq!(out.len(), 4, "a second drain appends nothing");
}

const CHAT_JOBS: usize = 300;

/// `count` skewed chat jobs at 30 req/s: prompts of 32–128 tokens; three
/// replies in four are 4–12 tokens, the rest 48–96.
fn chat_jobs(count: usize, seed: u64) -> Vec<GenerationJob> {
    let arrivals = ArrivalProcess::Poisson { rate: 30.0 }.arrival_times(count, seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0xc4a7);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| {
            let prompt_len = rng.u32_inclusive(32, 128);
            let output_tokens = if rng.u64_below(4) == 0 {
                rng.u32_inclusive(48, 96)
            } else {
                rng.u32_inclusive(4, 12)
            };
            GenerationJob {
                id: i as u64,
                batch: 1,
                prompt_len,
                output_tokens,
                arrival,
                prefix: PrefixTag::NONE,
            }
        })
        .collect()
}

/// Every decode step grows KV tables, forms a member list, assembles a
/// batch and drains its completion; each prefill assembles one too. With
/// those buffers recycled and KV blocks in a slab, a chat request costs
/// 2.6 allocations (8.6 while every drain handed out the engine's
/// completion list and blocks sat in a B-tree, about 28 when each buffer
/// was new).
#[test]
fn continuous_serving_allocates_at_most_three_and_a_quarter_times_per_request() {
    let device = DeviceSpec::v100_16gb();
    let model = ModelConfig::opt_30b().with_layers(12);
    let cost = v100_cost();
    let engine = LigerEngine::new(model.clone(), cost.clone(), WORLD, LigerConfig::default())
        .expect("OPT-30B divides 4 ways");
    let mut engine = CountingSubmits { inner: engine, submitted: 0 };
    let mut sim = Simulation::builder().devices(device.clone(), WORLD).build().unwrap();
    let config = SchedulerConfig::sized_for(&model, WORLD as u32, device.mem_capacity);
    let jobs = chat_jobs(CHAT_JOBS, 7);

    let before = allocs();
    let report = serve_continuous(&mut sim, &mut engine, jobs, &model, &cost, config);
    let spent = allocs() - before;

    assert_eq!(report.generation.completed(), CHAT_JOBS);
    let per_request = spent as f64 / CHAT_JOBS as f64;
    // Debug builds also run the structural oracle over every assembled
    // batch: two scratch allocations each.
    let oracle = if cfg!(debug_assertions) { 2 * engine.submitted } else { 0 };
    let bound = 3.25 + oracle as f64 / CHAT_JOBS as f64;
    assert!(
        per_request <= bound,
        "continuous serving allocated {spent} times for {CHAT_JOBS} requests \
         ({per_request:.2} each, bound {bound:.2})"
    );
}

/// Peak live heap of continuously serving `count` chat jobs on a 12-layer
/// OPT-30B over 4 V100s, less the heap of the jobs handed in and of the
/// report handed back: the serve's own bookkeeping at its high-water mark.
fn continuous_bookkeeping_peak(count: usize) -> i64 {
    let base = reset_peak();
    let device = DeviceSpec::v100_16gb();
    let jobs = chat_jobs(count, 7);
    let jobs_heap = live().1 - base;
    let model = ModelConfig::opt_30b().with_layers(12);
    let cost = v100_cost();
    let mut engine = LigerEngine::new(model.clone(), cost.clone(), WORLD, LigerConfig::default())
        .expect("OPT-30B divides 4 ways");
    let mut sim = Simulation::builder().devices(device.clone(), WORLD).build().unwrap();
    let config = SchedulerConfig::sized_for(&model, WORLD as u32, device.mem_capacity);
    let report = serve_continuous(&mut sim, &mut engine, jobs, &model, &cost, config);
    let peak = PEAK.with(Cell::get);
    drop((sim, engine, model, cost));
    let report_heap = live().1 - base;
    assert_eq!(report.generation.completed(), count);
    peak - base - jobs_heap - report_heap
}

/// Arrival timers are chained, and a freed device-memory allocation keeps
/// two bits, so doubling the trace leaves the serve's bookkeeping nearly
/// flat: 7,460 B more at 600 jobs than at 300, against 63,604 B while
/// every arrival timer was armed up front and every id kept a two-byte
/// device index.
#[test]
fn continuous_serving_heap_follows_the_requests_in_flight() {
    let once = continuous_bookkeeping_peak(CHAT_JOBS);
    let twice = continuous_bookkeeping_peak(2 * CHAT_JOBS);
    assert!(
        twice - once <= 16 * 1024,
        "bookkeeping peaked at {once} B over {CHAT_JOBS} jobs and {twice} B over {}",
        2 * CHAT_JOBS
    );
}
