//! Counted resource pools with FIFO or priority admission — the
//! application servers' thread pools (the database's connection pool, with
//! its per-server queues, is the engine's `DbFront`). Priority admission implements §8.1's "priority queuing
//! disciplines" variation: waiters with a numerically *lower* priority
//! value are admitted first; equal priorities keep FIFO order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pool of `limit` identical slots; requests that find no free slot wait
/// ordered by `(priority, arrival)` — plain FIFO when every acquire uses
/// the same priority (the [`SlotPool::acquire`] default).
#[derive(Debug, Clone)]
pub struct SlotPool<T> {
    limit: usize,
    in_use: usize,
    // Min-heap on (priority, seq): lowest priority value, then FIFO.
    waiting: BinaryHeap<Reverse<(u32, u64, WaitToken<T>)>>,
    next_seq: u64,
    peak_in_use: usize,
    peak_waiting: usize,
}

/// Wrapper so tokens do not need to be `Ord` themselves: ordering is fully
/// determined by the (priority, seq) prefix, which is unique per entry.
#[derive(Debug, Clone)]
struct WaitToken<T>(T);

impl<T> PartialEq for WaitToken<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for WaitToken<T> {}
impl<T> PartialOrd for WaitToken<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for WaitToken<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<T> SlotPool<T> {
    /// A pool with `limit` slots (must be ≥ 1).
    pub fn new(limit: usize) -> Self {
        assert!(limit >= 1, "slot pool needs at least one slot");
        SlotPool {
            limit,
            in_use: 0,
            waiting: BinaryHeap::new(),
            next_seq: 0,
            peak_in_use: 0,
            peak_waiting: 0,
        }
    }

    /// Tries to acquire a slot for `token` with default (uniform) priority
    /// — FIFO admission. Returns `true` on success; otherwise the token is
    /// queued and will be returned by a future [`SlotPool::release`].
    pub fn acquire(&mut self, token: T) -> bool {
        self.acquire_with_priority(token, 0)
    }

    /// Tries to acquire a slot for `token` at `priority` (lower value =
    /// admitted earlier).
    pub fn acquire_with_priority(&mut self, token: T, priority: u32) -> bool {
        if self.in_use < self.limit {
            self.in_use += 1;
            self.peak_in_use = self.peak_in_use.max(self.in_use);
            true
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.waiting
                .push(Reverse((priority, seq, WaitToken(token))));
            self.peak_waiting = self.peak_waiting.max(self.waiting.len());
            false
        }
    }

    /// Releases one slot. If a token is waiting, the slot is handed to the
    /// highest-priority (then oldest) waiter and the token is returned so
    /// the caller can resume it.
    pub fn release(&mut self) -> Option<T> {
        debug_assert!(self.in_use > 0, "release without acquire");
        match self.waiting.pop() {
            Some(Reverse((_, _, WaitToken(next)))) => Some(next), // slot passes on
            None => {
                self.in_use -= 1;
                None
            }
        }
    }

    /// Slots currently held.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Tokens waiting for a slot.
    pub fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// The pool size.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// High-water mark of held slots.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }

    /// High-water mark of the wait queue.
    pub fn peak_waiting(&self) -> usize {
        self.peak_waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_until_full_then_queue() {
        let mut p: SlotPool<u32> = SlotPool::new(2);
        assert!(p.acquire(1));
        assert!(p.acquire(2));
        assert!(!p.acquire(3));
        assert!(!p.acquire(4));
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.waiting(), 2);
    }

    #[test]
    fn release_hands_slot_to_fifo_waiter() {
        let mut p: SlotPool<u32> = SlotPool::new(1);
        assert!(p.acquire(1));
        assert!(!p.acquire(2));
        assert!(!p.acquire(3));
        assert_eq!(p.release(), Some(2));
        assert_eq!(p.in_use(), 1); // slot transferred, still in use
        assert_eq!(p.release(), Some(3));
        assert_eq!(p.release(), None);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn peaks_are_tracked() {
        let mut p: SlotPool<u32> = SlotPool::new(2);
        p.acquire(1);
        p.acquire(2);
        p.acquire(3);
        p.release();
        p.release();
        p.release();
        assert_eq!(p.peak_in_use(), 2);
        assert_eq!(p.peak_waiting(), 1);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_slots_panics() {
        let _: SlotPool<u32> = SlotPool::new(0);
    }
}

#[cfg(test)]
mod priority_tests {
    use super::*;

    #[test]
    fn higher_priority_jumps_the_queue() {
        let mut p: SlotPool<&str> = SlotPool::new(1);
        assert!(p.acquire_with_priority("holder", 1));
        assert!(!p.acquire_with_priority("low-1", 2));
        assert!(!p.acquire_with_priority("low-2", 2));
        assert!(!p.acquire_with_priority("high", 0));
        assert_eq!(p.release(), Some("high"));
        assert_eq!(p.release(), Some("low-1"));
        assert_eq!(p.release(), Some("low-2"));
        assert_eq!(p.release(), None);
    }

    #[test]
    fn equal_priorities_stay_fifo() {
        let mut p: SlotPool<u32> = SlotPool::new(1);
        p.acquire_with_priority(0, 5);
        for i in 1..=4 {
            p.acquire_with_priority(i, 5);
        }
        for expect in 1..=4 {
            assert_eq!(p.release(), Some(expect));
        }
    }
}
