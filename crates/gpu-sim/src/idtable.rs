//! Id tables: dense, never-reused handles over a slab of live records.
//!
//! The simulator hands out event and collective ids in allocation order
//! (`0, 1, 2, ...`) and never reuses one: traces, the sanitizer's
//! record/wait pairing and the model checker's footprints all key on them.
//! The records behind the ids, though, are only needed while something can
//! still use them. An [`IdTable`] keeps live records in a slab whose freed
//! slots are recycled (record and inner capacity included), and maps ids to
//! slots through an index that costs memory in proportion to the live
//! records, not to the ids ever issued:
//!
//! * a *window* covering the ids from `base` up to the next id, one slot
//!   number each, with [`TOMBSTONE`] marking reclaimed ids. Tombstones at
//!   its front are trimmed as they appear;
//! * a *spill* list of the live ids older than `base`, in id order. A record
//!   that lives far longer than its neighbours (a stream waits on an event
//!   whose record went to a dead device) would otherwise pin the window's
//!   front; once the
//!   window holds more than twice as many ids as it has live records (plus
//!   a fixed slack), front ids move to the spill and the window shrinks
//!   behind them.
//!
//! A reclaimed id may be given a slot again ([`IdTable::restore`]): the
//! simulator keeps events that provably never fire outside the table and
//! brings one back when something asks for its record.
//!
//! Lookups of recent ids are one indexed load; spilled ids take a binary
//! search. Every walk over live ids runs in id order, so callers that act on
//! several records in turn keep the order they had over a dense table.
//!
//! The table is public so that other layers keep their own id-keyed records
//! the same way: `liger-kvcache` holds its KV blocks in one.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

/// Window entry of a reclaimed id.
const TOMBSTONE: u32 = u32::MAX;

/// Window entries allowed beyond twice the live count before front ids
/// spill: keeps short-lived records from churning through the spill list.
const WINDOW_SLACK: usize = 256;

/// Live records keyed by dense, monotone, never-reused ids.
///
/// [`IdTable::alloc`] issues the next id (`0, 1, 2, ...`) with the slot of
/// its record; records are read and written by slot (`table[slot]`), and
/// [`IdTable::slot`] finds the slot of a live id. [`IdTable::reclaim`]
/// retires an id for good and keeps its slot, record included, for the next
/// `alloc`: a record that owns buffers keeps their capacity, so a table in
/// steady state allocates nothing. Walks ([`IdTable::iter_live`],
/// [`IdTable::for_each_live_mut`]) visit live ids in ascending order.
///
/// ```
/// use liger_gpu_sim::IdTable;
///
/// let mut t: IdTable<Vec<u32>> = IdTable::default();
/// let (a, sa) = t.alloc();
/// t[sa].push(7);
/// let (b, _) = t.alloc();
/// t[sa].clear();
/// t.reclaim(sa);
/// let (c, sc) = t.alloc();
/// assert_eq!((a, b, c), (0, 1, 2), "ids are never reused");
/// assert_eq!(sc, sa, "the slot is");
/// assert!(t[sc].capacity() >= 1, "and its record keeps its capacity");
/// assert_eq!(t.slot(a), None);
/// assert_eq!(t.iter_live().map(|(id, _)| id).collect::<Vec<_>>(), [b, c]);
/// ```
#[derive(Debug, Clone)]
pub struct IdTable<T> {
    /// Record storage, indexed by slot.
    records: Vec<T>,
    /// The id occupying each slot (meaningful for live slots only).
    ids: Vec<u64>,
    /// Slots free for reuse; their records keep whatever capacity they had.
    free: Vec<u32>,
    /// First id covered by `window`.
    base: u64,
    /// Slot of each id in `base..base + window.len()`, or [`TOMBSTONE`].
    window: VecDeque<u32>,
    /// Live ids below `base` with their slots, ascending.
    spill: Vec<(u64, u32)>,
    live: usize,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            records: Vec::new(),
            ids: Vec::new(),
            free: Vec::new(),
            base: 0,
            window: VecDeque::new(),
            spill: Vec::new(),
            live: 0,
        }
    }
}

impl<T: Default> IdTable<T> {
    /// Issues the next id and returns it with its slot. A recycled slot's
    /// record is handed back as the last [`IdTable::reclaim`] left it; a
    /// fresh slot holds `T::default()`.
    pub fn alloc(&mut self) -> (u64, usize) {
        let id = self.issued();
        let slot = self.take_slot(id);
        self.window.push_back(slot);
        (id, slot as usize)
    }

    /// Gives the reclaimed id `id` a live slot again, in the window or in
    /// the spill, and returns the slot. The record is handed back as
    /// [`IdTable::alloc`] would hand it to a new id.
    ///
    /// # Panics
    /// Panics when `id` is live or was never issued.
    pub(crate) fn restore(&mut self, id: u64) -> usize {
        assert!(id < self.issued(), "restoring id {id}, which was never issued");
        if id >= self.base {
            let k = (id - self.base) as usize;
            assert_eq!(self.window[k], TOMBSTONE, "restoring live id {id}");
            let slot = self.take_slot(id);
            self.window[k] = slot;
            slot as usize
        } else {
            let k = self
                .spill
                .binary_search_by_key(&id, |&(i, _)| i)
                .expect_err("restoring a live spilled id");
            let slot = self.take_slot(id);
            self.spill.insert(k, (id, slot));
            slot as usize
        }
    }

    /// A free slot (recycled, or a fresh default record) now owned by
    /// `id`, counted live. The caller indexes it.
    fn take_slot(&mut self, id: u64) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(s) => {
                self.ids[s as usize] = id;
                s
            }
            None => {
                self.records.push(T::default());
                self.ids.push(id);
                u32::try_from(self.records.len() - 1).expect("id table slot overflow")
            }
        }
    }
}

impl<T> IdTable<T> {
    /// Number of ids issued so far: every id below it was handed out once.
    pub fn issued(&self) -> u64 {
        self.base + self.window.len() as u64
    }

    /// Number of live (not yet reclaimed) records.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The slot of live id `id`, or `None` when `id` was reclaimed or never
    /// issued (tell the two apart with [`IdTable::issued`]).
    #[inline]
    pub fn slot(&self, id: u64) -> Option<usize> {
        if id >= self.base {
            match self.window.get((id - self.base) as usize) {
                Some(&s) if s != TOMBSTONE => Some(s as usize),
                _ => None,
            }
        } else {
            self.spill.binary_search_by_key(&id, |&(i, _)| i).ok().map(|k| self.spill[k].1 as usize)
        }
    }

    /// Reclaims the live record in `slot`: its id answers `None` from now on
    /// and the slot (record included) goes to the next [`IdTable::alloc`].
    pub fn reclaim(&mut self, slot: usize) {
        let id = self.ids[slot];
        debug_assert_eq!(self.slot(id), Some(slot), "reclaiming a dead slot");
        if id >= self.base {
            self.window[(id - self.base) as usize] = TOMBSTONE;
        } else {
            let k = self
                .spill
                .binary_search_by_key(&id, |&(i, _)| i)
                .expect("spilled id missing from the spill list");
            self.spill.remove(k);
        }
        self.free.push(slot as u32);
        self.live -= 1;
        while self.window.front() == Some(&TOMBSTONE) {
            self.window.pop_front();
            self.base += 1;
        }
        while self.window.len() > 2 * (self.live - self.spill.len()) + WINDOW_SLACK {
            let s = self.window.pop_front().expect("window longer than its bound is non-empty");
            if s != TOMBSTONE {
                self.spill.push((self.base, s));
            }
            self.base += 1;
        }
    }

    /// Live `(id, slot)` pairs in ascending id order.
    pub fn iter_live(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let spilled = self.spill.iter().map(|&(id, s)| (id, s as usize));
        let windowed = self
            .window
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != TOMBSTONE)
            .map(move |(i, &s)| (self.base + i as u64, s as usize));
        spilled.chain(windowed)
    }

    /// Calls `f` with each live id and its record, in ascending id order.
    pub fn for_each_live_mut(&mut self, mut f: impl FnMut(u64, &mut T)) {
        let records = &mut self.records;
        for &(id, s) in &self.spill {
            f(id, &mut records[s as usize]);
        }
        for (i, &s) in self.window.iter().enumerate() {
            if s != TOMBSTONE {
                f(self.base + i as u64, &mut records[s as usize]);
            }
        }
    }
}

impl<T> Index<usize> for IdTable<T> {
    type Output = T;

    #[inline]
    fn index(&self, slot: usize) -> &T {
        &self.records[slot]
    }
}

impl<T> IndexMut<usize> for IdTable<T> {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.records[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(t: &IdTable<u32>) -> Vec<u64> {
        t.iter_live().map(|(id, _)| id).collect()
    }

    #[test]
    fn ids_are_dense_and_never_reused() {
        let mut t: IdTable<u32> = IdTable::default();
        let (a, sa) = t.alloc();
        let (b, _) = t.alloc();
        t.reclaim(sa);
        let (c, sc) = t.alloc();
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(sc, sa, "the freed slot is recycled");
        assert_eq!(t.slot(a), None, "a reclaimed id stays dead");
        assert_eq!(t.slot(c), Some(sc));
        assert_eq!(t.issued(), 3);
        assert_eq!(t.live(), 2);
    }

    #[test]
    fn recycled_records_keep_their_contents() {
        let mut t: IdTable<Vec<u8>> = IdTable::default();
        let (_, s) = t.alloc();
        t[s].reserve(64);
        t[s].clear();
        t.reclaim(s);
        let (_, s2) = t.alloc();
        assert_eq!(s2, s);
        assert!(t[s2].capacity() >= 64, "capacity survives reuse");
    }

    #[test]
    fn a_pinned_front_spills_and_the_window_stays_small() {
        let mut t: IdTable<u32> = IdTable::default();
        let (pinned, ps) = t.alloc();
        for _ in 0..10_000 {
            let (_, s) = t.alloc();
            t.reclaim(s);
        }
        assert!(t.window.len() <= 2 + WINDOW_SLACK, "window {} entries", t.window.len());
        assert_eq!(t.spill, vec![(pinned, ps as u32)]);
        assert_eq!(t.slot(pinned), Some(ps));
        assert_eq!(ids(&t), vec![pinned]);
        t.reclaim(ps);
        assert_eq!(t.slot(pinned), None);
        assert!(t.spill.is_empty());
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn a_reclaimed_window_id_is_restored_in_place() {
        let mut t: IdTable<u32> = IdTable::default();
        let (a, _) = t.alloc();
        let (b, sb) = t.alloc();
        let (c, _) = t.alloc();
        t[sb] = 7;
        t.reclaim(sb);
        assert_eq!(t.slot(b), None);
        let s = t.restore(b);
        assert_eq!(s, sb, "the freed slot is recycled");
        assert_eq!(t[s], 7, "restored records come back as reclaim left them");
        assert_eq!(t.slot(b), Some(s));
        assert_eq!(ids(&t), vec![a, b, c]);
        assert_eq!((t.live(), t.issued()), (3, 3));
        let (d, _) = t.alloc();
        assert_eq!(d, 3, "restoring issues no id");
    }

    #[test]
    fn a_reclaimed_spilled_id_is_restored_into_the_spill() {
        let mut t: IdTable<u32> = IdTable::default();
        let (early, _) = t.alloc();
        let (doomed, ds) = t.alloc();
        let (late, _) = t.alloc();
        for _ in 0..10_000 {
            let (_, s) = t.alloc();
            t.reclaim(s);
        }
        assert_eq!(t.spill.len(), 3, "the survivors spilled");
        t.reclaim(ds);
        assert_eq!(t.spill.len(), 2);
        assert!(doomed < t.base, "the id is below the window");
        let s = t.restore(doomed);
        assert_eq!(t.slot(doomed), Some(s));
        assert_eq!(ids(&t), vec![early, doomed, late], "the spill stays sorted");
        assert_eq!(t.live(), 3);
        t.reclaim(s);
        assert_eq!(ids(&t), vec![early, late]);
    }

    #[test]
    #[should_panic(expected = "restoring live id")]
    fn restoring_a_live_id_panics() {
        let mut t: IdTable<u32> = IdTable::default();
        let (a, _) = t.alloc();
        t.restore(a);
    }

    #[test]
    fn live_walk_is_in_id_order_across_spill_and_window() {
        let mut t: IdTable<u32> = IdTable::default();
        let mut keep = Vec::new();
        let mut expect = Vec::new();
        for i in 0..2_000u64 {
            let (id, s) = t.alloc();
            if i % 97 == 0 {
                expect.push(id);
                keep.push(s);
            } else {
                t.reclaim(s);
            }
        }
        assert!(!t.spill.is_empty(), "old survivors spilled");
        assert_eq!(ids(&t), expect);
        for (&id, &s) in expect.iter().zip(&keep) {
            assert_eq!(t.slot(id), Some(s));
        }
        // Reclaim every other survivor, spilled or windowed alike.
        for (k, &s) in keep.iter().enumerate() {
            if k % 2 == 0 {
                t.reclaim(s);
            }
        }
        let left: Vec<u64> = expect.iter().copied().skip(1).step_by(2).collect();
        assert_eq!(ids(&t), left);
        assert_eq!(t.slot(2_000), None, "never issued");
        assert_eq!(t.issued(), 2_000);
    }
}
