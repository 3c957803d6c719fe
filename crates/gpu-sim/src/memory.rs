//! Device memory tracking.
//!
//! A bump-count allocator per device: engines register their weight shards
//! once and per-batch working sets (activations, KV cache) for each job in
//! flight. The tracker enforces the device's capacity — mirroring the very
//! constraint that forces multi-GPU deployment in the first place (OPT-30B's
//! 60 GB of FP16 weights vs. a 16 GB V100) — and records the peak footprint
//! for capacity-planning reports.

use std::fmt;

use crate::ids::DeviceId;

/// Handle to a live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocationId(pub u64);

/// Why an allocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Device that ran out.
    pub device: DeviceId,
    /// Bytes requested.
    pub requested: u64,
    /// Bytes currently in use.
    pub in_use: u64,
    /// Device capacity.
    pub capacity: u64,
    /// Allocation label (for diagnostics).
    pub label: &'static str,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: out of memory allocating {} bytes for {:?} ({} of {} bytes in use)",
            self.device, self.requested, self.label, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OutOfMemory {}

#[derive(Debug, Clone)]
struct Allocation {
    device: usize,
    bytes: u64,
    label: &'static str,
    live: bool,
}

/// Tracks allocations across the node's devices.
///
/// All accounting — in-use, peak, and the double-free bug counter — is kept
/// strictly per device; node-wide totals are derived sums.
#[derive(Debug, Default, Clone)]
pub struct MemoryTracker {
    capacities: Vec<u64>,
    in_use: Vec<u64>,
    peak: Vec<u64>,
    allocations: Vec<Allocation>,
    double_frees: Vec<u64>,
}

impl MemoryTracker {
    /// Creates a tracker for devices with the given capacities (bytes).
    pub fn new(capacities: Vec<u64>) -> MemoryTracker {
        let n = capacities.len();
        MemoryTracker {
            capacities,
            in_use: vec![0; n],
            peak: vec![0; n],
            allocations: Vec::new(),
            double_frees: vec![0; n],
        }
    }

    /// Allocates `bytes` on `device`; fails when capacity would be exceeded.
    pub fn alloc(
        &mut self,
        device: DeviceId,
        bytes: u64,
        label: &'static str,
    ) -> Result<AllocationId, OutOfMemory> {
        let d = device.0;
        assert!(d < self.capacities.len(), "unknown device {device}");
        let in_use = self.in_use[d];
        if in_use.saturating_add(bytes) > self.capacities[d] {
            return Err(OutOfMemory {
                device,
                requested: bytes,
                in_use,
                capacity: self.capacities[d],
                label,
            });
        }
        self.in_use[d] += bytes;
        self.peak[d] = self.peak[d].max(self.in_use[d]);
        let id = AllocationId(self.allocations.len() as u64);
        self.allocations.push(Allocation { device: d, bytes, label, live: true });
        Ok(id)
    }

    /// Frees an allocation. Accounting is idempotent — freeing twice never
    /// corrupts the in-use totals — but a second free is an allocator bug:
    /// it bumps the [`double_frees`](Self::double_frees) counter and fires a
    /// debug assertion so the bug is observable at the tracker level, not
    /// only via trace sanitization.
    pub fn free(&mut self, id: AllocationId) {
        let a = &mut self.allocations[id.0 as usize];
        if a.live {
            a.live = false;
            self.in_use[a.device] -= a.bytes;
        } else {
            let (device, label) = (a.device, a.label);
            self.double_frees[device] += 1;
            debug_assert!(
                false,
                "double free of allocation {} ({label:?} on device {device})",
                id.0
            );
        }
    }

    /// Double frees observed so far across all devices (each also fires a
    /// debug assertion).
    pub fn double_frees(&self) -> u64 {
        self.double_frees.iter().sum()
    }

    /// Double frees charged against `device` specifically. The counter lives
    /// with the device's other accounting.
    pub fn double_frees_on(&self, device: DeviceId) -> u64 {
        self.double_frees[device.0]
    }

    /// Bytes currently allocated on `device`.
    pub fn in_use(&self, device: DeviceId) -> u64 {
        self.in_use[device.0]
    }

    /// Peak bytes ever allocated on `device`.
    pub fn peak(&self, device: DeviceId) -> u64 {
        self.peak[device.0]
    }

    /// Capacity of `device`.
    pub fn capacity(&self, device: DeviceId) -> u64 {
        self.capacities[device.0]
    }

    /// Live allocations on `device`, as `(label, bytes)`.
    pub fn live_allocations(&self, device: DeviceId) -> Vec<(&'static str, u64)> {
        self.allocations
            .iter()
            .filter(|a| a.live && a.device == device.0)
            .map(|a| (a.label, a.bytes))
            .collect()
    }

    /// Device, size, label and liveness of an allocation, if `id` was ever
    /// handed out by this tracker.
    pub fn info(&self, id: AllocationId) -> Option<(DeviceId, u64, &'static str, bool)> {
        self.allocations.get(id.0 as usize).map(|a| (DeviceId(a.device), a.bytes, a.label, a.live))
    }
}

impl crate::json::ToJson for AllocationId {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> MemoryTracker {
        MemoryTracker::new(vec![1000, 2000])
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut t = tracker();
        let a = t.alloc(DeviceId(0), 600, "weights").unwrap();
        assert_eq!(t.in_use(DeviceId(0)), 600);
        assert_eq!(t.in_use(DeviceId(1)), 0);
        t.free(a);
        assert_eq!(t.in_use(DeviceId(0)), 0);
        assert_eq!(t.peak(DeviceId(0)), 600, "peak survives the free");
    }

    #[test]
    fn oom_is_reported_not_clamped() {
        let mut t = tracker();
        t.alloc(DeviceId(0), 900, "weights").unwrap();
        let err = t.alloc(DeviceId(0), 200, "kv").unwrap_err();
        assert_eq!(err.in_use, 900);
        assert_eq!(err.requested, 200);
        assert_eq!(err.capacity, 1000);
        assert_eq!(err.label, "kv");
        assert!(err.to_string().contains("out of memory"));
        // The failed allocation must not leak accounting.
        assert_eq!(t.in_use(DeviceId(0)), 900);
    }

    #[test]
    fn double_free_is_counted_and_accounting_stays_idempotent() {
        let mut t = tracker();
        let a = t.alloc(DeviceId(1), 500, "act").unwrap();
        t.free(a);
        assert_eq!(t.double_frees(), 0);
        // In debug builds the second free additionally fires an assertion;
        // silence the default hook so the expected panic doesn't spam stderr.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.free(a)));
        std::panic::set_hook(prev);
        assert_eq!(hit.is_err(), cfg!(debug_assertions));
        assert_eq!(t.double_frees(), 1);
        assert_eq!(t.in_use(DeviceId(1)), 0);
    }

    #[test]
    fn double_frees_are_charged_to_the_owning_device() {
        // The double-free counter is per-device state, and the total is a
        // derived sum.
        let mut t = tracker();
        let a = t.alloc(DeviceId(0), 10, "a").unwrap();
        let b = t.alloc(DeviceId(1), 20, "b").unwrap();
        t.free(a);
        t.free(b);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for id in [a, b, b] {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.free(id)));
        }
        std::panic::set_hook(prev);
        assert_eq!(t.double_frees_on(DeviceId(0)), 1);
        assert_eq!(t.double_frees_on(DeviceId(1)), 2);
        assert_eq!(t.double_frees(), 3, "total is the sum of per-device counters");
        assert_eq!(t.in_use(DeviceId(0)), 0, "accounting stays idempotent");
        assert_eq!(t.in_use(DeviceId(1)), 0);
    }

    #[test]
    fn peak_tracks_high_watermark() {
        let mut t = tracker();
        let a = t.alloc(DeviceId(0), 400, "a").unwrap();
        let b = t.alloc(DeviceId(0), 500, "b").unwrap();
        t.free(a);
        let _c = t.alloc(DeviceId(0), 100, "c").unwrap();
        assert_eq!(t.peak(DeviceId(0)), 900);
        assert_eq!(t.in_use(DeviceId(0)), 600);
        t.free(b);
        assert_eq!(t.in_use(DeviceId(0)), 100);
    }

    #[test]
    fn live_allocation_listing() {
        let mut t = tracker();
        let a = t.alloc(DeviceId(0), 100, "weights").unwrap();
        let _b = t.alloc(DeviceId(0), 50, "kv").unwrap();
        t.free(a);
        assert_eq!(t.live_allocations(DeviceId(0)), vec![("kv", 50)]);
        assert!(t.live_allocations(DeviceId(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown device")]
    fn unknown_device_panics() {
        let mut t = tracker();
        let _ = t.alloc(DeviceId(7), 1, "x");
    }

    #[test]
    fn info_reports_device_and_liveness() {
        let mut t = tracker();
        let a = t.alloc(DeviceId(1), 64, "kv").unwrap();
        assert_eq!(t.info(a), Some((DeviceId(1), 64, "kv", true)));
        t.free(a);
        assert_eq!(t.info(a), Some((DeviceId(1), 64, "kv", false)));
        assert_eq!(t.info(AllocationId(99)), None);
    }
}
