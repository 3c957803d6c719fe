//! Counting global allocator: exact heap-allocation counts and the live-heap
//! high-water mark of the calling thread.
//!
//! The counters are thread-local, so a measurement covers exactly the work
//! the measuring thread does (the serve loop is single-threaded) and test
//! threads running in parallel cannot disturb one another's counts. Every
//! `alloc`, `alloc_zeroed` and `realloc` counts as one allocation; `realloc`
//! is how a growing `Vec` or `String` gets new heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with per-thread counters in front of it.
pub struct Counting;

#[derive(Clone, Copy)]
struct Counters {
    allocs: u64,
    bytes: u64,
    live: u64,
    peak: u64,
}

thread_local! {
    // Const-initialised with no destructor: reading it never allocates, so
    // the allocator can touch it without recursing.
    static COUNTERS: Cell<Counters> =
        const { Cell::new(Counters { allocs: 0, bytes: 0, live: 0, peak: 0 }) };
}

fn update(f: impl FnOnce(&mut Counters)) {
    // `try_with` fails only while the thread is being torn down; the counts
    // of a dying thread are of no interest.
    let _ = COUNTERS.try_with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

fn on_alloc(size: usize) {
    update(|c| {
        c.allocs += 1;
        c.bytes += size as u64;
        c.live += size as u64;
        c.peak = c.peak.max(c.live);
    });
}

fn on_free(size: usize) {
    // Memory allocated by another thread and freed here would underflow.
    update(|c| c.live = c.live.saturating_sub(size as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on plain thread-local integers, so
// `System`'s guarantees carry over and the caller's obligations are the ones
// `System` requires.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller passes a block this
        // allocator (that is, `System`) returned with this layout.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for a block `System` returned with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Allocation totals of the current thread since it started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// The current thread's totals.
pub fn snapshot() -> Snapshot {
    COUNTERS
        .try_with(|c| {
            let v = c.get();
            Snapshot { allocs: v.allocs, bytes: v.bytes }
        })
        .unwrap_or(Snapshot { allocs: 0, bytes: 0 })
}

/// Live bytes of the current thread right now; restarts the high-water mark
/// from this level.
pub fn reset_peak() -> u64 {
    let mut live = 0;
    update(|c| {
        c.peak = c.live;
        live = c.live;
    });
    live
}

/// Highest live-byte level of the current thread since the last
/// [`reset_peak`].
pub fn peak() -> u64 {
    COUNTERS.try_with(|c| c.get().peak).unwrap_or(0)
}

/// Heap cost of one closure call on the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapCost {
    /// Allocation calls made.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// High-water mark of live bytes above the level at entry.
    pub peak_bytes: u64,
}

/// Runs `f` and returns its result with the heap cost it incurred.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapCost) {
    let base = reset_peak();
    let before = snapshot();
    let out = f();
    let after = snapshot();
    let cost = HeapCost {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        peak_bytes: peak().saturating_sub(base),
    };
    (out, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_each_allocation_exactly() {
        let ((), cost) = measure(|| {
            for i in 0..10u64 {
                black_box(Box::new(i));
            }
        });
        assert_eq!(cost.allocs, 10);
        assert_eq!(cost.bytes, 80);
        // Each box is freed before the next one is made.
        assert_eq!(cost.peak_bytes, 8);
    }

    #[test]
    fn tracks_the_live_high_water_mark() {
        let ((), cost) = measure(|| {
            let held: Vec<Box<[u8; 1024]>> = (0..4).map(|_| Box::new([0u8; 1024])).collect();
            black_box(&held);
        });
        // Four 1 KiB boxes live at once, plus the vector holding them.
        assert_eq!(cost.allocs, 5);
        assert_eq!(cost.peak_bytes, 4 * 1024 + 4 * 8);
    }

    #[test]
    fn counts_repeat_exactly() {
        let run = || {
            measure(|| {
                let mut v = Vec::new();
                for i in 0..1000u32 {
                    v.push(i.to_string());
                }
                black_box(v.len())
            })
            .1
        };
        let first = run();
        assert!(first.allocs > 1000);
        for _ in 0..5 {
            assert_eq!(run(), first);
        }
    }
}
