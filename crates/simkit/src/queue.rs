//! Pending-event queue with stable, deterministic ordering and O(log n)
//! cancellation via lazy deletion.
//!
//! Events scheduled for the same instant pop by *tie rank*, then in the
//! order they were scheduled (FIFO), which makes runs reproducible
//! regardless of heap internals. Plain events have rank 0, so they
//! keep pure FIFO order; a model may give an event kind a higher rank
//! (see [`crate::Model::tie_rank`]) to fix its place within an instant
//! no matter when it was scheduled.
//!
//! Event handles are monotone sequence numbers, so per-event lifecycle
//! state lives in a dense offset ring (`VecDeque<u8>` indexed by
//! `seq - base_seq`) instead of hash sets: `push`, `cancel`,
//! `is_pending`, and the lazy-deletion skim are all straight array
//! probes with no hashing and no per-event heap allocation. The window
//! compacts from the front as the oldest events resolve.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Opaque handle to a scheduled event, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// A handle that never corresponds to a live event. Useful as a
    /// placeholder in structs before the first real event is scheduled.
    pub const NONE: EventId = EventId(u64::MAX);
}

struct Entry<E> {
    at: SimTime,
    rank: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.rank == other.rank && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, rank,
        // seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Lifecycle of one scheduled sequence number.
const PENDING: u8 = 0;
/// Cancelled while still in the heap (lazy-deletion tombstone).
const CANCELLED: u8 = 1;
/// Left the heap (popped, or tombstone skimmed).
const DONE: u8 = 2;

/// A time-ordered queue of simulation events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Lifecycle flag of every seq in `[base_seq, next_seq)`, densely
    /// indexed by `seq - base_seq`. Seqs below `base_seq` are DONE.
    states: VecDeque<u8>,
    base_seq: u64,
    next_seq: u64,
    /// Number of PENDING seqs (live events).
    live: usize,
    /// Number of CANCELLED seqs still sitting in the heap.
    tombstones: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            states: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            live: 0,
            tombstones: 0,
        }
    }

    /// Number of live (non-cancelled) events still pending.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `event` to fire at `at` with tie rank 0. Returns a
    /// handle for cancellation.
    pub fn push(&mut self, at: SimTime, event: E) -> EventId {
        self.push_ranked(at, 0, event)
    }

    /// Schedule `event` to fire at `at`; among events of the same
    /// instant it pops after every lower `rank` and, within its rank,
    /// in scheduling order.
    pub fn push_ranked(&mut self, at: SimTime, rank: u64, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            rank,
            seq,
            event,
        });
        self.states.push_back(PENDING);
        self.live += 1;
        self.debug_check();
        EventId(seq)
    }

    fn state(&self, seq: u64) -> u8 {
        if seq < self.base_seq {
            DONE
        } else if seq >= self.next_seq {
            // Never scheduled (e.g. `EventId::NONE`); treat as resolved.
            DONE
        } else {
            self.states[(seq - self.base_seq) as usize]
        }
    }

    /// Mark a seq as having left the heap and compact the front of the
    /// state window past the resolved prefix.
    fn mark_done(&mut self, seq: u64) {
        debug_assert!(seq >= self.base_seq && seq < self.next_seq);
        self.states[(seq - self.base_seq) as usize] = DONE;
        while self.states.front() == Some(&DONE) {
            self.states.pop_front();
            self.base_seq += 1;
        }
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending (i.e. the cancellation had an effect). Cancelling an
    /// already-fired or already-cancelled event is a harmless no-op.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.state(id.0) != PENDING {
            return false;
        }
        // PENDING means the entry is still in the heap, so a tombstone can
        // never be orphaned: `heap.len() == live + tombstones` stays an
        // invariant (checked below) and every tombstone is eventually
        // skimmed and compacted away.
        self.states[(id.0 - self.base_seq) as usize] = CANCELLED;
        self.live -= 1;
        self.tombstones += 1;
        self.debug_check();
        true
    }

    /// True if the event is still scheduled to fire.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.state(id.0) == PENDING
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim();
        self.heap.peek().map(|e| e.at)
    }

    /// Remove and return the next live event as `(time, id, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.skim();
        let entry = self.heap.pop()?;
        debug_assert_eq!(self.state(entry.seq), PENDING, "skim left a tombstone");
        self.live -= 1;
        self.mark_done(entry.seq);
        self.debug_check();
        Some((entry.at, EventId(entry.seq), entry.event))
    }

    /// Drop cancelled entries sitting at the top of the heap.
    fn skim(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.state(top.seq) == CANCELLED {
                let seq = self.heap.pop().expect("peeked entry vanished").seq;
                self.tombstones -= 1;
                self.mark_done(seq);
            } else {
                break;
            }
        }
        self.debug_check();
    }

    /// Invariant: every heap entry is either pending or a tombstone, and
    /// tombstones exist only for entries still in the heap (`cancelled ⊆
    /// heap`). Violations would mean leaked entries or double counting.
    #[inline]
    fn debug_check(&self) {
        debug_assert_eq!(
            self.heap.len(),
            self.live + self.tombstones,
            "event-queue invariant broken: heap {} != live {} + tombstones {}",
            self.heap.len(),
            self.live,
            self.tombstones
        );
    }

    /// Cancelled entries still occupying heap slots (test instrumentation).
    #[cfg(test)]
    fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Width of the dense state window (test instrumentation).
    #[cfg(test)]
    fn state_window(&self) -> usize {
        self.states.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5), "c");
        q.push(t(1), "a");
        q.push(t(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_rank_order_ignores_insertion_order() {
        // Ranked events at one instant pop by rank however they were
        // inserted; rank-0 events all come first and stay FIFO among
        // themselves, even when pushed after the ranked ones.
        let mut q = EventQueue::new();
        for rank in [5u64, 2, 9, 1] {
            q.push_ranked(t(7), rank, format!("r{rank}"));
        }
        q.push(t(7), "a".to_string());
        q.push_ranked(t(3), 9, "early".to_string());
        q.push(t(7), "b".to_string());
        q.push_ranked(t(7), 3, "r3".to_string());
        q.push(t(7), "c".to_string());
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(
            order,
            ["early", "a", "b", "c", "r1", "r2", "r3", "r5", "r9"]
        );
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        let (_, _, e) = q.pop().unwrap();
        assert_eq!(e, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_none_is_noop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventId::NONE));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(9)));
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        let (_, id, _) = q.pop().unwrap();
        assert_eq!(id, a);
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1, "cancel-after-pop must not disturb live count");
    }

    #[test]
    fn is_pending_reflects_lifecycle() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), ());
        assert!(q.is_pending(a));
        q.cancel(a);
        assert!(!q.is_pending(a));
        let b = q.push(t(2), ());
        q.pop();
        assert!(!q.is_pending(b));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.push(t(i), i)).collect();
        assert_eq!(q.len(), 10);
        for id in &ids[..5] {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 5);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn cancel_storm_does_not_accumulate_tombstones() {
        // A schedule/cancel churn loop (the stall-timeout pattern) must
        // not leak: once the skim passes the cancelled entries, both the
        // tombstone count and the dense state window return to zero.
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            let ids: Vec<_> = (0..100).map(|i| q.push(t(round * 100 + i), i)).collect();
            for id in ids {
                q.cancel(id);
            }
            assert_eq!(q.len(), 0);
            // All tombstones sit at the heap top now; one peek skims them.
            assert_eq!(q.peek_time(), None);
            assert_eq!(q.tombstone_count(), 0, "tombstones survived the skim");
            assert_eq!(q.state_window(), 0, "state window failed to compact");
        }
    }

    #[test]
    fn state_window_compacts_as_prefix_resolves() {
        let mut q = EventQueue::new();
        let far = q.push(t(1_000), u64::MAX);
        for i in 0..50 {
            q.push(t(i), i);
        }
        while q.len() > 1 {
            q.pop();
        }
        // Only the far event is unresolved; it pins the window start, so
        // the window is exactly [far, next_seq).
        assert_eq!(q.state_window(), 51);
        q.cancel(far);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.state_window(), 0);
    }

    #[test]
    fn interleaved_cancel_pop_preserves_order_and_counts() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..1000u64).map(|i| q.push(t(i % 97), i)).collect();
        for id in ids.iter().step_by(3) {
            q.cancel(*id);
        }
        let mut prev: Option<(SimTime, EventId)> = None;
        let mut n = 0;
        while let Some((at, id, v)) = q.pop() {
            assert_ne!(v % 3, 0, "cancelled event escaped the tombstone");
            if let Some((pat, pid)) = prev {
                assert!(at > pat || (at == pat && id > pid), "order violated");
            }
            prev = Some((at, id));
            n += 1;
        }
        assert_eq!(n, 1000 - 334);
        assert_eq!(q.tombstone_count(), 0);
        assert_eq!(q.state_window(), 0);
    }
}
