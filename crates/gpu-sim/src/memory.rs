//! Device memory tracking.
//!
//! A bump-count allocator per device: engines register their weight shards
//! once and per-batch working sets (activations, KV cache) for each job in
//! flight. The tracker enforces the device's capacity — mirroring the very
//! constraint that forces multi-GPU deployment in the first place (OPT-30B's
//! 60 GB of FP16 weights vs. a 16 GB V100) — and records the peak footprint
//! for capacity-planning reports.
//!
//! Allocation ids are dense, monotone and never reused, so trace marks and
//! the sanitizer can key on them. The tracker's memory still follows the
//! allocations in flight, not the ones ever made: size and label live in
//! the crate's slab of live records ([`IdTable`]) and go back to it on
//! free. All that stays behind for a freed id is its device index, which
//! is what a double free needs to be charged to its device and traced
//! there. Indices are bit-packed at ⌈log₂ n⌉ bits for n devices: two bits
//! per id on a 4-GPU node, none at all on one GPU.

use std::fmt;

use crate::ids::DeviceId;
use crate::idtable::IdTable;

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

/// What the tracker knows about an allocation id it issued
/// ([`MemoryTracker::info`]). A freed allocation keeps only its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationInfo {
    /// The allocation is live.
    Live {
        /// Device holding it.
        device: DeviceId,
        /// Its size in bytes.
        bytes: u64,
        /// Its label.
        label: &'static str,
    },
    /// The allocation was freed; its size and label are gone.
    Freed {
        /// Device that held it.
        device: DeviceId,
    },
}

impl AllocationInfo {
    /// Device the allocation was made on, live or freed.
    pub fn device(&self) -> DeviceId {
        match *self {
            AllocationInfo::Live { device, .. } | AllocationInfo::Freed { device } => device,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct Allocation {
    bytes: u64,
    label: &'static str,
}

/// Tracks allocations across the node's devices.
///
/// All accounting — in-use, peak, and the double-free bug counter — is kept
/// strictly per device; node-wide totals are derived sums.
///
/// Live allocations sit in a slab whose slots are recycled on free, and a
/// bit-packed device index per issued id outlives them. An issued id with
/// no live record is therefore a freed one: [`MemoryTracker::info`] still
/// reports its device, and a second [`MemoryTracker::free`] is charged to
/// that device, but its size and label are no longer known.
#[derive(Debug, Default, Clone)]
pub struct MemoryTracker {
    capacities: Vec<u64>,
    in_use: Vec<u64>,
    peak: Vec<u64>,
    live: IdTable<Allocation>,
    /// Device index of every id issued, live or freed.
    devices: DeviceIndex,
    double_frees: Vec<u64>,
}

/// One device index per issued id, `bits` bits each, packed into `u64`
/// words. An entry may straddle two words when `bits` does not divide 64.
#[derive(Debug, Default, Clone)]
struct DeviceIndex {
    /// Bits per entry: ⌈log₂ n⌉ for n devices, so 0 on a single device.
    bits: u32,
    /// Entries pushed so far.
    len: u64,
    words: Vec<u64>,
}

impl DeviceIndex {
    /// An empty index for `devices` devices (at most `u16::MAX`).
    fn new(devices: usize) -> DeviceIndex {
        let bits = usize::BITS - devices.saturating_sub(1).leading_zeros();
        DeviceIndex { bits, len: 0, words: Vec::new() }
    }

    /// Word and bit offset of entry `i`.
    fn position(&self, i: u64) -> (usize, u32) {
        let at = i * u64::from(self.bits);
        ((at / 64) as usize, (at % 64) as u32)
    }

    /// Appends the entry of the next id.
    fn push(&mut self, device: usize) {
        debug_assert!(device >> self.bits == 0, "device {device} exceeds {} bits", self.bits);
        let (word, offset) = self.position(self.len);
        self.len += 1;
        // Zero-filled words are empty entries; a single device needs none.
        self.words.resize((self.len * u64::from(self.bits)).div_ceil(64) as usize, 0);
        if self.bits == 0 {
            return;
        }
        let value = device as u64;
        self.words[word] |= value << offset;
        if offset + self.bits > 64 {
            self.words[word + 1] |= value >> (64 - offset);
        }
    }

    /// Entry `i`, or `None` when no id `i` was issued.
    fn get(&self, i: u64) -> Option<usize> {
        if i >= self.len {
            return None;
        }
        if self.bits == 0 {
            return Some(0);
        }
        let (word, offset) = self.position(i);
        let mut value = self.words[word] >> offset;
        if offset + self.bits > 64 {
            value |= self.words[word + 1] << (64 - offset);
        }
        Some((value & ((1 << self.bits) - 1)) as usize)
    }
}

impl MemoryTracker {
    /// Creates a tracker for devices with the given capacities (bytes).
    ///
    /// # Panics
    /// Panics when there are more devices than a `u16` can count.
    pub fn new(capacities: Vec<u64>) -> MemoryTracker {
        let n = capacities.len();
        assert!(u16::try_from(n).is_ok(), "{n} devices exceed the tracker's u16 device index");
        MemoryTracker {
            capacities,
            in_use: vec![0; n],
            peak: vec![0; n],
            live: IdTable::default(),
            devices: DeviceIndex::new(n),
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
        if !self.fits(device, bytes) {
            return Err(OutOfMemory {
                device,
                requested: bytes,
                in_use: self.in_use[d],
                capacity: self.capacities[d],
                label,
            });
        }
        self.in_use[d] += bytes;
        self.peak[d] = self.peak[d].max(self.in_use[d]);
        let (id, slot) = self.live.alloc();
        self.live[slot] = Allocation { bytes, label };
        self.devices.push(d);
        Ok(AllocationId(id))
    }

    /// True when `bytes` more would fit on `device` beside what it already
    /// holds — the one capacity rule [`alloc`](Self::alloc) enforces.
    pub fn fits(&self, device: DeviceId, bytes: u64) -> bool {
        self.in_use[device.0].saturating_add(bytes) <= self.capacities[device.0]
    }

    /// Frees an allocation. Accounting is idempotent — freeing twice never
    /// corrupts the in-use totals — but a second free is an allocator bug:
    /// it bumps the [`double_frees`](Self::double_frees) counter of the
    /// allocation's device and fires a debug assertion naming the id and
    /// the device, so the bug is observable at the tracker level, not only
    /// via trace sanitization.
    ///
    /// # Panics
    /// Panics when `id` was not issued by this tracker.
    pub fn free(&mut self, id: AllocationId) {
        let d = self.device_index(id);
        match self.live.slot(id.0) {
            Some(slot) => {
                self.in_use[d] -= self.live[slot].bytes;
                self.live.reclaim(slot);
            }
            None => {
                self.double_frees[d] += 1;
                debug_assert!(false, "double free of allocation {} on device {d}", id.0);
            }
        }
    }

    /// Device index of issued id `id`.
    fn device_index(&self, id: AllocationId) -> usize {
        match self.devices.get(id.0) {
            Some(d) => d,
            None => panic!("unknown allocation {}", id.0),
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

    /// Live allocations on `device`, as `(label, bytes)` in id order.
    pub fn live_allocations(&self, device: DeviceId) -> Vec<(&'static str, u64)> {
        self.live
            .iter_live()
            .filter(|&(id, _)| self.devices.get(id) == Some(device.0))
            .map(|(_, slot)| (self.live[slot].label, self.live[slot].bytes))
            .collect()
    }

    /// What is known about `id`, if it was ever handed out by this tracker:
    /// device, size and label while it is live, only the device once freed.
    pub fn info(&self, id: AllocationId) -> Option<AllocationInfo> {
        let device = DeviceId(self.devices.get(id.0)?);
        Some(match self.live.slot(id.0) {
            Some(slot) => {
                let a = &self.live[slot];
                AllocationInfo::Live { device, bytes: a.bytes, label: a.label }
            }
            None => AllocationInfo::Freed { device },
        })
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

    /// Runs `f` with the panic hook silenced and reports whether it
    /// panicked: a double free fires a debug assertion.
    fn panics(f: impl FnOnce()) -> bool {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
        std::panic::set_hook(prev);
        hit
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
        // In debug builds the second free additionally fires an assertion.
        assert_eq!(panics(|| t.free(a)), cfg!(debug_assertions));
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
        for id in [a, b, b] {
            panics(|| t.free(id));
        }
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
        assert_eq!(
            t.info(a),
            Some(AllocationInfo::Live { device: DeviceId(1), bytes: 64, label: "kv" })
        );
        t.free(a);
        assert_eq!(t.info(a), Some(AllocationInfo::Freed { device: DeviceId(1) }));
        assert_eq!(t.info(AllocationId(99)), None);
    }

    #[test]
    fn a_double_free_long_after_reclaim_is_charged_to_its_own_device() {
        let mut t = tracker();
        let old = t.alloc(DeviceId(1), 300, "act").unwrap();
        let kept = t.alloc(DeviceId(1), 200, "weights").unwrap();
        t.free(old);
        for _ in 0..10_000 {
            let a = t.alloc(DeviceId(0), 10, "act").unwrap();
            t.free(a);
        }
        // `old` is now far behind the live table's window: only the device
        // index remembers it.
        assert_eq!(t.info(old), Some(AllocationInfo::Freed { device: DeviceId(1) }));
        assert_eq!(panics(|| t.free(old)), cfg!(debug_assertions));
        assert_eq!(t.double_frees_on(DeviceId(1)), 1);
        assert_eq!(t.double_frees_on(DeviceId(0)), 0);
        assert_eq!(t.in_use(DeviceId(1)), 200, "the double free leaves in-use exact");
        assert_eq!(t.in_use(DeviceId(0)), 0);
        t.free(kept);
        assert_eq!(t.in_use(DeviceId(1)), 0);
    }

    #[test]
    fn live_allocations_follow_churn_in_id_order() {
        let mut t = MemoryTracker::new(vec![1 << 40; 2]);
        let labels = ["weights", "kv", "act"];
        let mut expect: Vec<Vec<(&str, u64)>> = vec![Vec::new(); 2];
        for i in 0..3_000u64 {
            let d = (i % 2) as usize;
            let label = labels[(i % 3) as usize];
            let a = t.alloc(DeviceId(d), i, label).unwrap();
            if i % 7 == 0 {
                expect[d].push((label, i));
            } else {
                t.free(a);
            }
        }
        for (d, live) in expect.iter().enumerate() {
            assert_eq!(&t.live_allocations(DeviceId(d)), live);
            let sum: u64 = live.iter().map(|&(_, b)| b).sum();
            assert_eq!(t.in_use(DeviceId(d)), sum);
        }
    }

    /// Allocates `ids` ids over `n` devices, each id's device drawn from a
    /// pattern that reaches the last device, frees every third one, and
    /// checks what [`MemoryTracker::info`] reports for every id against the
    /// expected device and the packed index's size.
    fn index_roundtrip(n: usize, bits: u32) {
        let mut t = MemoryTracker::new(vec![1 << 40; n]);
        assert_eq!(t.devices.bits, bits);
        // Enough entries to fill several words, whatever the entry width.
        let ids = 3 * 64 + 7;
        let device_of = |i: u64| if i % 4 == 3 { n - 1 } else { (i as usize * 7 + 3) % n };
        for i in 0..ids {
            let a = t.alloc(DeviceId(device_of(i)), 1, "x").unwrap();
            assert_eq!(a, AllocationId(i));
            if i % 3 == 0 {
                t.free(a);
            }
        }
        assert_eq!(t.devices.words.len() as u64, (ids * u64::from(bits)).div_ceil(64));
        for i in 0..ids {
            let device = DeviceId(device_of(i));
            let expect = if i % 3 == 0 {
                AllocationInfo::Freed { device }
            } else {
                AllocationInfo::Live { device, bytes: 1, label: "x" }
            };
            assert_eq!(t.info(AllocationId(i)), Some(expect), "id {i} of {n} devices");
        }
        assert_eq!(t.info(AllocationId(ids)), None);
    }

    #[test]
    fn one_device_needs_no_index_bits() {
        index_roundtrip(1, 0);
    }

    #[test]
    fn two_and_three_devices_pack_one_and_two_bits() {
        index_roundtrip(2, 1);
        index_roundtrip(3, 2);
    }

    #[test]
    fn five_devices_straddle_word_boundaries_at_three_bits() {
        index_roundtrip(5, 3);
    }

    #[test]
    fn the_largest_node_packs_sixteen_bits() {
        index_roundtrip(usize::from(u16::MAX), 16);
    }

    #[test]
    fn a_tracker_without_devices_issues_nothing() {
        let t = MemoryTracker::new(Vec::new());
        assert_eq!(t.devices.bits, 0);
        assert_eq!(t.info(AllocationId(0)), None);
        assert!(panics(|| MemoryTracker::new(Vec::new()).free(AllocationId(0))));
    }

    #[test]
    fn random_churn_matches_an_unpacked_reference() {
        crate::testkit::check("memory-tracker-vs-u16-reference", 64, |g| {
            let n = g.usize_in(1, 10);
            let mut t = MemoryTracker::new(vec![u64::MAX; n]);
            // The reference: one `u16` device and a live flag per issued
            // id, with sizes and labels for the live ones.
            let mut devices: Vec<u16> = Vec::new();
            let mut live: Vec<Option<(u64, &'static str)>> = Vec::new();
            let mut double_frees = vec![0u64; n];
            for _ in 0..g.usize_in(1, 400) {
                if devices.is_empty() || g.usize_in(0, 3) > 0 {
                    let d = g.usize_in(0, n);
                    let (bytes, label) = (g.u64_in(0, 1 << 20), *g.choose(&["w", "kv", "act"]));
                    let a = t.alloc(DeviceId(d), bytes, label).unwrap();
                    assert_eq!(a.0, devices.len() as u64);
                    devices.push(d as u16);
                    live.push(Some((bytes, label)));
                } else {
                    let id = g.usize_in(0, devices.len());
                    if live[id].take().is_some() {
                        t.free(AllocationId(id as u64));
                    } else {
                        double_frees[usize::from(devices[id])] += 1;
                        assert_eq!(
                            panics(|| t.free(AllocationId(id as u64))),
                            cfg!(debug_assertions)
                        );
                    }
                }
            }
            for (id, (&d, record)) in devices.iter().zip(&live).enumerate() {
                let device = DeviceId(usize::from(d));
                let expect = match *record {
                    Some((bytes, label)) => AllocationInfo::Live { device, bytes, label },
                    None => AllocationInfo::Freed { device },
                };
                assert_eq!(t.info(AllocationId(id as u64)), Some(expect));
            }
            assert_eq!(t.info(AllocationId(devices.len() as u64)), None);
            for (d, &frees) in double_frees.iter().enumerate() {
                assert_eq!(t.double_frees_on(DeviceId(d)), frees);
                let expect: Vec<(&str, u64)> = devices
                    .iter()
                    .zip(&live)
                    .filter(|&(&dev, _)| usize::from(dev) == d)
                    .filter_map(|(_, record)| record.map(|(bytes, label)| (label, bytes)))
                    .collect();
                assert_eq!(t.live_allocations(DeviceId(d)), expect);
            }
        });
    }

    #[test]
    #[should_panic(expected = "unknown allocation 5")]
    fn freeing_an_id_never_issued_panics() {
        let mut t = tracker();
        let _ = t.alloc(DeviceId(0), 1, "x").unwrap();
        t.free(AllocationId(5));
    }
}
