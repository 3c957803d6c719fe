//! Heap budget of the kernel launch path and of the simulator's tables.
//!
//! Launching, starting, repricing and completing a kernel allocates
//! nothing: specs travel inline through the host and device queues, static
//! kernel names are borrowed, and collectives are repriced in place. The
//! only per-kernel heap traffic left is the amortised growth of the
//! simulator's containers (queues, event lanes, the trace). Collective
//! rendezvous groups reuse the member lists of finished ones.
//!
//! Fired events and finished collectives give their records back, so the
//! simulator's live heap follows the synchronisation in flight, not the
//! length of the run. Freed device-memory allocations give theirs back too,
//! keeping only a bit-packed device index per id (two bits on four
//! devices). A heartbeat probe whose
//! record a dead device dropped can never fire on its own; it gives its
//! record back as well, keeping a 16-byte entry.
//!
//! The test binary installs its own counting allocator. Counters are
//! thread-local, so tests running in parallel do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use liger_gpu_sim::prelude::*;

struct Counting;

thread_local! {
    // Const-initialised without a destructor: touching them never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + size as u64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn on_free(size: usize) {
    // A block allocated on another thread and freed here would underflow.
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(size as u64)));
}

// SAFETY: every method forwards to `System` unchanged and only updates
// thread-local integers, so `System`'s contract carries over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Restarts the live-heap high-water mark at the current level and returns
/// that level.
fn reset_peak() -> u64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

fn peak() -> u64 {
    PEAK.with(Cell::get)
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

/// Allocations of building and running one simulation of `work`.
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
    sim.run_to_completion(&mut work);
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
fn collectives_allocate_nothing_beyond_container_growth() {
    for trace in [false, true] {
        let once = run(Workload { plain: N, collectives: N }, trace);
        let twice = run(Workload { plain: N, collectives: 2 * N }, trace);
        assert!(
            twice.saturating_sub(once) <= GROWTH_SLACK,
            "{N} more {DEVICES}-rank collectives cost {} more allocations (trace: {trace})",
            twice.saturating_sub(once)
        );
    }
}

/// Liger's hybrid synchronisation, one round per wake: each device runs a
/// compute kernel on stream 0 and records an event behind it, stream 1
/// waits on that event, the driver asks to hear when device 0's event
/// fires, and stream 1 joins one all-reduce across all devices. Device 0's
/// event starts the next round, so a round's collective overlaps the next
/// round's compute.
struct HybridRounds {
    rounds: u64,
    started: u64,
}

impl HybridRounds {
    fn round(&mut self, sim: &mut Simulation) {
        let group = sim.new_collective(DEVICES);
        for d in 0..DEVICES {
            let (s0, s1) = (StreamId::new(DeviceId(d), 0), StreamId::new(DeviceId(d), 1));
            let tag = self.started;
            sim.launch(
                HostId(d),
                s0,
                KernelSpec::compute("gemm", SimDuration::from_micros(20)).with_tag(tag),
            );
            let ev = sim.record_event(HostId(d), s0);
            sim.stream_wait(HostId(d), s1, ev);
            if d == 0 {
                sim.notify_on_event(ev, HostId(0), tag);
            }
            let spec = KernelSpec::comm("allreduce", SimDuration::from_micros(15))
                .with_collective(group)
                .with_tag(tag);
            sim.launch(HostId(d), s1, spec);
        }
        self.started += 1;
    }
}

impl Driver for HybridRounds {
    fn start(&mut self, sim: &mut Simulation) {
        self.round(sim);
    }

    fn on_wake(&mut self, _: Wake, sim: &mut Simulation) {
        if self.started < self.rounds {
            self.round(sim);
        }
    }
}

/// Peak live heap of building and running `rounds` hybrid-sync rounds
/// (untraced: the trace is meant to grow with the run), above the level
/// at entry.
fn hybrid_peak(rounds: u64) -> u64 {
    let base = reset_peak();
    let mut b =
        Simulation::builder().devices(DeviceSpec::test_device(), DEVICES).streams_per_device(2);
    for _ in 0..DEVICES {
        b = b.host(HostSpec::default());
    }
    let mut sim = b.build().unwrap();
    let mut driver = HybridRounds { rounds, started: 0 };
    sim.run_to_completion(&mut driver);
    let spent = peak() - base;
    assert_eq!(sim.kernels_completed(), 2 * DEVICES as u64 * rounds);
    assert_eq!((sim.live_events(), sim.live_collectives()), (0, 0), "records left behind");
    spent
}

#[test]
fn hybrid_sync_heap_stays_flat_as_the_run_doubles() {
    const ROUNDS: u64 = 2_000;
    let once = hybrid_peak(ROUNDS);
    let twice = hybrid_peak(2 * ROUNDS);
    let bound = once + once / 10 + 64 * 1024;
    assert!(
        twice <= bound,
        "peak live heap {twice} B over {} rounds exceeds {bound} B ({once} B over {ROUNDS})",
        2 * ROUNDS
    );
}

/// Working sets kept in flight by the device-memory churn.
const IN_FLIGHT: usize = 8;

/// Peak live heap of building a simulation, pinning a "weights" allocation
/// on every device, and then churning through `sets` working sets (one
/// allocation per device each, `IN_FLIGHT` live at a time), above the
/// level at entry.
fn device_memory_peak(sets: usize) -> u64 {
    let base = reset_peak();
    let mut sim =
        Simulation::builder().devices(DeviceSpec::test_device(), DEVICES).build().unwrap();
    for d in 0..DEVICES {
        sim.alloc_memory(DeviceId(d), 1 << 20, "weights").unwrap();
    }
    let mut ring = [[AllocationId(0); DEVICES]; IN_FLIGHT];
    for i in 0..sets {
        let slot = &mut ring[i % IN_FLIGHT];
        for (d, id) in slot.iter_mut().enumerate() {
            if i >= IN_FLIGHT {
                sim.free_memory(*id);
            }
            *id = sim.alloc_memory(DeviceId(d), 4096, "act").unwrap();
        }
    }
    let spent = peak() - base;
    for d in 0..DEVICES {
        let expect = (1 << 20) + 4096 * sets.min(IN_FLIGHT) as u64;
        assert_eq!(sim.memory_in_use(DeviceId(d)), expect);
    }
    assert_eq!(sim.memory_double_frees(), 0);
    spent
}

#[test]
fn device_memory_heap_stays_flat_as_the_run_doubles() {
    // 4 * 15,000 allocations stay under 2^16 ids, and twice that under
    // 2^17, so the device index grows by exactly one doubling: two bits
    // per id on four devices, a quarter byte per extra allocation.
    const SETS: usize = 15_000;
    let once = device_memory_peak(SETS);
    let twice = device_memory_peak(2 * SETS);
    let extra = (SETS * DEVICES) as u64;
    let bound = once + extra / 2 + 64 * 1024;
    assert!(
        twice <= bound,
        "peak live heap {twice} B over {} working sets exceeds {bound} B ({once} B over {SETS})",
        2 * SETS
    );
}

/// Probe interval of the watchdog below.
const PROBE_EVERY: SimDuration = SimDuration::from_micros(200);

/// A health watchdog whose device is gone: every [`PROBE_EVERY`] it
/// records an event on dead device 1 and asks to hear when it fires, which
/// it never does.
struct DeadDeviceProbes {
    probes: u64,
    sent: u64,
}

impl DeadDeviceProbes {
    fn probe(&mut self, sim: &mut Simulation) {
        let ev = sim.record_event(HostId(0), StreamId::new(DeviceId(1), 0));
        sim.notify_on_event(ev, HostId(0), self.sent);
        self.sent += 1;
        if self.sent < self.probes {
            sim.set_timer(sim.now() + PROBE_EVERY, 0);
        }
    }
}

impl Driver for DeadDeviceProbes {
    fn start(&mut self, sim: &mut Simulation) {
        sim.set_timer(SimTime::from_micros(1), 0);
    }

    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation) {
        if let Wake::Timer { .. } = wake {
            self.probe(sim);
        }
    }
}

/// Peak live heap of building a simulation whose device 1 is dead from the
/// start and sending `probes` heartbeat probes to it, above the level at
/// entry.
fn dead_probe_peak(probes: u64) -> u64 {
    let base = reset_peak();
    let mut b = Simulation::builder()
        .devices(DeviceSpec::test_device(), 2)
        .faults(FaultSpec::new(1).device_down(DeviceId(1), SimTime::ZERO));
    for _ in 0..2 {
        b = b.host(HostSpec::default());
    }
    let mut sim = b.build().unwrap();
    let mut driver = DeadDeviceProbes { probes, sent: 0 };
    sim.run_to_completion(&mut driver);
    let spent = peak() - base;
    assert_eq!(driver.sent, probes);
    assert_eq!(sim.live_events() as u64, probes, "every probe is still unfired");
    assert!(!sim.event_has_fired(EventId(0)));
    spent
}

#[test]
fn dead_device_probes_cost_sixteen_bytes_each() {
    // 16 B per probe, plus one doubling of slack in the list holding them.
    const PROBES: u64 = 4_096;
    let once = dead_probe_peak(PROBES);
    let twice = dead_probe_peak(2 * PROBES);
    let bound = once + 32 * PROBES + 64 * 1024;
    assert!(
        twice <= bound,
        "peak live heap {twice} B over {} dead-device probes exceeds {bound} B \
         ({once} B over {PROBES}): {} B per extra probe",
        2 * PROBES,
        twice.saturating_sub(once) / PROBES
    );
}
