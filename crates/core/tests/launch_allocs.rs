//! Heap-allocation budget of the Liger engine's launch path.
//!
//! Serving launches thousands of kernels per OPT-30B request, and launching
//! one allocates nothing: specs move inline into the simulator's queues,
//! kernel names are borrowed, collectives are launched straight from the
//! priced op, and a round's event lists are reused or shared. What remains
//! per request is function assembly, per-round planning and the serving
//! loop's bookkeeping, so the count per launched kernel stays well below
//! one.
//!
//! The test binary installs its own counting allocator with thread-local
//! counters, so tests running in parallel do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use liger_collectives::Topology;
use liger_core::{LigerConfig, LigerEngine};
use liger_gpu_sim::{CoreSelect, DeviceSpec, Simulation};
use liger_model::{CostModel, ModelConfig};
use liger_serving::{serve_on, PrefillTraceConfig};

struct Counting;

thread_local! {
    // Const-initialised without a destructor: touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged and only bumps a
// thread-local integer, so `System`'s contract carries over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn serving_allocates_under_half_an_allocation_per_launched_kernel() {
    const WORLD: usize = 4;
    let device = DeviceSpec::v100_16gb();
    let cost = CostModel::new(device.clone(), Topology::v100_nvlink());
    let mut engine =
        LigerEngine::new(ModelConfig::opt_30b(), cost, WORLD, LigerConfig::default()).unwrap();
    let mut sim = Simulation::builder().devices(device, WORLD).build().unwrap();
    let requests = PrefillTraceConfig::paper(40, 2, 12.0, 7).generate();

    // The sequential core: the parallel core's shard workers allocate on
    // threads this counter cannot see.
    let before = allocs();
    let metrics = serve_on(CoreSelect::Seq, &mut sim, &mut engine, requests);
    let spent = allocs() - before;

    assert_eq!(metrics.completed(), 40);
    let kernels = sim.kernels_launched();
    assert!(kernels > 40 * 1000, "an OPT-30B prefill launches thousands of kernels");
    let per_kernel = spent as f64 / kernels as f64;
    assert!(
        per_kernel < 0.5,
        "serving allocated {spent} times for {kernels} launched kernels ({per_kernel:.3} each)"
    );
}
