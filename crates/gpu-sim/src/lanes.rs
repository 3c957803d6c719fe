//! Event lanes: the per-lane pending-event queues the event cores dispatch
//! from.
//!
//! Pending events are ordered by a *canonical dispatch key*:
//!
//! ```text
//! (time, lane rank, lane-local sequence)
//! ```
//!
//! where rank 0 is the **global lane** (host completions, timers, driver
//! wakes, collective completions, fault boundaries, device deaths) and rank
//! `d + 1` is device `d`'s **local lane** (its kernel completions and comm
//! dispatch-lag expiries). Each lane assigns its own monotonically
//! increasing sequence numbers, so the total order is a pure function of
//! per-lane push histories, not of how pushes to different devices
//! interleave. That is what lets the explore core reorder commuting
//! device-lane events and name each interleaving by its choices.
//!
//! [`SequentialCore`](crate::cores::SequentialCore) dispatches by scanning
//! lane heads for the minimum key; [`ExploreCore`](crate::cores::ExploreCore)
//! follows the same key everywhere its schedule does not redirect it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One pending event in a lane: payload plus its dispatch key fragment.
#[derive(Debug, Clone)]
pub(crate) struct LaneEntry<T> {
    /// Scheduled dispatch time.
    pub at: SimTime,
    /// Lane-local push sequence (tie-break within the lane).
    pub seq: u64,
    /// The pending event itself.
    pub payload: T,
}

impl<T> PartialEq for LaneEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for LaneEntry<T> {}
impl<T> PartialOrd for LaneEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for LaneEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A single lane: a min-heap of pending events ordered by
/// `(time, lane-local sequence)`, with the lane owning its sequence counter.
#[derive(Debug, Clone)]
pub(crate) struct EventLane<T> {
    heap: BinaryHeap<Reverse<LaneEntry<T>>>,
    seq: u64,
}

impl<T> Default for EventLane<T> {
    fn default() -> Self {
        EventLane { heap: BinaryHeap::new(), seq: 0 }
    }
}

impl<T> EventLane<T> {
    /// Schedules `payload` at `at`, assigning the next lane-local sequence.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(LaneEntry { at, seq, payload }));
    }

    /// The `(time, seq)` key of the earliest pending event, if any.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.at, e.seq))
    }

    /// The earliest pending event's payload, without removing it. The
    /// explore core uses this to drop superseded (stale) lane heads before
    /// computing an enabled set, so every choice point is over real events.
    pub fn peek(&self) -> Option<&T> {
        self.heap.peek().map(|Reverse(e)| &e.payload)
    }

    /// Iterates over all pending entries in unspecified order (heap order).
    /// Used for residue accounting in [`crate::sim::TerminalReport`].
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &T)> {
        self.heap.iter().map(|Reverse(e)| (e.at, &e.payload))
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<LaneEntry<T>> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Number of pending events in the lane.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_push_order() {
        let mut lane: EventLane<u32> = EventLane::default();
        lane.push(SimTime::from_nanos(50), 1);
        lane.push(SimTime::from_nanos(10), 2);
        lane.push(SimTime::from_nanos(10), 3);
        let order: Vec<u32> = std::iter::from_fn(|| lane.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![2, 3, 1], "equal times dispatch in push order");
    }

    #[test]
    fn peek_key_matches_pop() {
        let mut lane: EventLane<&str> = EventLane::default();
        assert_eq!(lane.peek_key(), None);
        lane.push(SimTime::from_nanos(7), "a");
        assert_eq!(lane.peek_key(), Some((SimTime::from_nanos(7), 0)));
        let e = lane.pop().unwrap();
        assert_eq!((e.at, e.seq, e.payload), (SimTime::from_nanos(7), 0, "a"));
        assert_eq!(lane.len(), 0);
    }

    #[test]
    fn sequence_survives_drain() {
        // Sequence numbers must not reset when the lane drains: the canonical
        // order is a function of the full push history.
        let mut lane: EventLane<u32> = EventLane::default();
        lane.push(SimTime::ZERO, 1);
        lane.pop();
        lane.push(SimTime::ZERO, 2);
        assert_eq!(lane.pop().unwrap().seq, 1);
        assert_eq!(lane.len(), 0);
    }
}
