//! Heap-allocation budget of the kernel launch path.
//!
//! Launching, starting, repricing and completing a kernel allocates
//! nothing: specs travel inline through the host and device queues, static
//! kernel names are borrowed, and collectives are repriced in place. The
//! only per-kernel heap traffic left is the amortised growth of the
//! simulator's containers (queues, event lanes, the trace), plus one
//! `members` list per collective rendezvous group.
//!
//! The test binary installs its own counting allocator. Counters are
//! thread-local, so tests running in parallel do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use liger_gpu_sim::prelude::*;

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

const DEVICES: usize = 4;

/// Allocations the doubling of a workload may add through container growth
/// alone: each of the simulator's few dozen growable containers reallocates
/// about once when its high-water mark doubles.
const GROWTH_SLACK: u64 = 64;

/// Launches `plain` compute kernels on stream 0 of every device and
/// `collectives` 4-rank all-reduces on stream 1, all up front.
struct Workload {
    plain: usize,
    collectives: usize,
}

impl Driver for Workload {
    fn start(&mut self, sim: &mut Simulation) {
        for i in 0..self.plain as u64 {
            for d in 0..DEVICES {
                let spec = KernelSpec::compute("gemm", SimDuration::from_micros(20)).with_tag(i);
                sim.launch(HostId(d), StreamId::new(DeviceId(d), 0), spec);
            }
        }
        for i in 0..self.collectives as u64 {
            let group = sim.new_collective(DEVICES);
            for d in 0..DEVICES {
                let spec = KernelSpec::comm("allreduce", SimDuration::from_micros(15))
                    .with_collective(group)
                    .with_tag(i);
                sim.launch(HostId(d), StreamId::new(DeviceId(d), 1), spec);
            }
        }
    }

    fn on_wake(&mut self, _: Wake, _: &mut Simulation) {}
}

/// Allocations of building and running one simulation of `work`, on the
/// sequential core (the parallel core's shard workers allocate on threads
/// this counter cannot see).
fn run(mut work: Workload, trace: bool) -> u64 {
    let kernels = (work.plain + work.collectives) * DEVICES;
    let before = allocs();
    let mut b = Simulation::builder()
        .devices(DeviceSpec::test_device(), DEVICES)
        .streams_per_device(2)
        .capture_trace(trace);
    for _ in 0..DEVICES {
        b = b.host(HostSpec::instant());
    }
    let mut sim = b.build().unwrap();
    sim.run_to_completion_with(CoreSelect::Seq, &mut work);
    let spent = allocs() - before;
    assert_eq!(sim.kernels_completed(), kernels as u64);
    spent
}

const N: usize = 256;

#[test]
fn plain_kernels_allocate_nothing_beyond_container_growth() {
    for trace in [false, true] {
        let once = run(Workload { plain: N, collectives: 0 }, trace);
        let twice = run(Workload { plain: 2 * N, collectives: 0 }, trace);
        assert!(
            twice.saturating_sub(once) <= GROWTH_SLACK,
            "{} more plain kernels cost {} more allocations (trace: {trace})",
            N * DEVICES,
            twice.saturating_sub(once)
        );
    }
}

#[test]
fn collectives_allocate_only_their_member_list() {
    for trace in [false, true] {
        let once = run(Workload { plain: N, collectives: N }, trace);
        let twice = run(Workload { plain: N, collectives: 2 * N }, trace);
        assert!(
            twice.saturating_sub(once) <= N as u64 + GROWTH_SLACK,
            "{N} more {DEVICES}-rank collectives cost {} more allocations (trace: {trace})",
            twice.saturating_sub(once)
        );
    }
}
