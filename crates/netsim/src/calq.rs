//! A calendar-queue event scheduler: the engine's pending-event set as
//! a bucketed time wheel with a heap annex, replacing the plain binary
//! heap.
//!
//! The discrete-event hot path is dominated by queue traffic: every
//! frame crossing every link is a push/pop pair (its `Deliver`, plus a
//! `TxDone` when a queued frame waits on it), and under load those
//! events cluster within microseconds of the present (serialization is
//! hundreds of nanoseconds). A binary heap pays O(log n)
//! pointer-hopping comparisons per operation over the whole pending
//! set; the calendar queue exploits the clustering:
//!
//! * events within the **ring horizon** ([`BUCKET_COUNT`] ×
//!   `2^`[`BUCKET_SHIFT`] ns ≈ 33 µs of future) go into fixed-width
//!   time buckets. Storage is sized by what is pending, not by the
//!   ring: every ring entry is a node in one slab, each bucket is only
//!   a `u32` chain head into it, and freed nodes go on a LIFO free
//!   list. The slab therefore grows only to the largest number of ring
//!   entries ever pending at once, and a push — a shift, a free-list
//!   pop and a head swap — writes a slot freed moments ago, still in
//!   cache;
//! * events beyond the horizon (protocol timers, idle-period traffic)
//!   go to a `BinaryHeap` **annex** and are popped from it directly
//!   when due — a sparse simulation therefore runs at binary-heap
//!   speed plus a peek, while a dense one runs at ring speed. The
//!   horizon is the density filter; nothing migrates between the two.
//!
//! # Ordering contract
//!
//! Strict `(time, key, seq)` order: chronological, then by the
//! caller-supplied canonical **order key**, with insertion order as
//! the final tie-break. The engine derives the key from an event's
//! global wire/device identity (see `engine::order_key`), which is
//! what makes same-nanosecond coincidences resolve identically in the
//! single-threaded and sharded engines — a heap keyed on insertion
//! order alone would let the two engines race-resolve ties
//! differently. The head is the minimum of the ring head (found via a
//! two-level occupancy bitmap, O(1), then one walk of that bucket's
//! chain) and the annex top, cached so
//! [`head_time`](CalendarQueue::head_time) is O(1) and `&self`. All
//! events sharing a timestamp land in one ring bucket and/or at the
//! annex top, so [`drain_head`](CalendarQueue::drain_head) walks that
//! bucket's chain once, splitting it into the cohort and the entries
//! it keeps, sorts the cohort's `(key, seq, slot)` triples, and merges
//! in the annex side before taking the items out of the slab. A
//! cohort that shares its bucket with other instants — on a dense
//! flood, ~100 same-instant arrivals beside later ones — costs that
//! same single walk.
//!
//! The ring-window invariant that makes bucket masking sound: the
//! cursor is the bucket of the last popped timestamp and only moves
//! forward (the engine never schedules into the past), so every ring
//! entry's absolute bucket lies in `[cursor, cursor + BUCKET_COUNT)`
//! and two live entries can only share a masked index by sharing the
//! bucket.
//!
//! `tests` drive it against a `BinaryHeap` reference on randomized
//! push/pop schedules; the engine-level byte-identity suites
//! (`tests/engine_batching.rs`, `tests/sharded_equivalence.rs`,
//! `tests/engine_golden.rs`, the CI trace diff) pin that the queue
//! changes no delivery trace.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds: 64 ns buckets keep even
/// back-to-back minimum-frame traffic (672 ns apart) in distinct
/// buckets and same-instant cohorts alone in theirs.
pub const BUCKET_SHIFT: u32 = 6;
/// Ring size (power of two, at most 64 × 64 for the two-level bitmap).
/// 512 × 64 ns ≈ 33 µs of horizon: the in-flight frame events of a
/// busy fabric land here; anything sparser runs through the annex.
pub const BUCKET_COUNT: usize = 512;
/// Words in the occupancy bitmap.
const BITMAP_WORDS: usize = BUCKET_COUNT / 64;
/// End of a bucket chain or of the free list.
const NIL: u32 = u32::MAX;

/// One ring entry in the slab: its order, the next slot of its bucket
/// chain (or of the free list), and the payload, `None` while free.
#[derive(Debug)]
struct Node<T> {
    time: SimTime,
    key: u64,
    seq: u64,
    next: u32,
    item: Option<T>,
}

impl<T> Node<T> {
    #[inline]
    fn ord(&self) -> (SimTime, u64, u64) {
        (self.time, self.key, self.seq)
    }
}

/// One annex entry, ordered by `(time, key, seq)` alone.
#[derive(Debug)]
struct Far<T> {
    time: SimTime,
    key: u64,
    seq: u64,
    item: T,
}

impl<T> Far<T> {
    #[inline]
    fn ord(&self) -> (SimTime, u64, u64) {
        (self.time, self.key, self.seq)
    }
}

impl<T> PartialEq for Far<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ord() == other.ord()
    }
}
impl<T> Eq for Far<T> {}
impl<T> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ord().cmp(&other.ord())
    }
}

/// Two-level occupancy index over the ring: one bit per bucket plus a
/// one-word summary (bit w set ⇔ word w has any set bit). Finding the
/// first occupied bucket in circular order from any start position is
/// a handful of shifts and `trailing_zeros` calls.
#[derive(Debug, Clone)]
struct Occupancy {
    words: [u64; BITMAP_WORDS],
    summary: u64,
}

impl Occupancy {
    fn new() -> Self {
        Occupancy { words: [0; BITMAP_WORDS], summary: 0 }
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        let w = idx >> 6;
        self.words[w] |= 1 << (idx & 63);
        self.summary |= 1 << w;
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        let w = idx >> 6;
        self.words[w] &= !(1 << (idx & 63));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    /// First set bit at or after `start` in circular order (wrapping
    /// past the end back to the beginning).
    fn next_set_circular(&self, start: usize) -> Option<usize> {
        let w0 = start >> 6;
        // Bits of the start word at or after the start position.
        let high = self.words[w0] & (!0u64 << (start & 63));
        if high != 0 {
            return Some(w0 * 64 + high.trailing_zeros() as usize);
        }
        // Rotate the summary so the word after `w0` sits at bit 0; the
        // lowest set bit is then the circularly nearest occupied word.
        // `w0` itself rotates behind the (always zero) unused upper
        // bits, correctly last: its remaining bits (below `start`) are
        // the farthest in circular order.
        let rot = ((w0 + 1) & (BITMAP_WORDS - 1)) as u32;
        let s = self.summary.rotate_right(rot);
        if s == 0 {
            return None;
        }
        let w = (rot as usize + s.trailing_zeros() as usize) & (BITMAP_WORDS - 1);
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// The queue. `T` is the event payload; ordering keys (`time`, `key`,
/// `seq`) are supplied on push and echoed back on pop.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Every ring entry, linked into its bucket's chain; free nodes are
    /// linked into the free list instead. Never longer than the most
    /// ring entries ever pending at once.
    slab: Vec<Node<T>>,
    /// Slot of the most recently freed node (`NIL` when none is free).
    free: u32,
    /// Chain head of each of the `BUCKET_COUNT` ring buckets
    /// (`BUCKET_SHIFT`-wide slices of time, indexed by absolute bucket
    /// number masked down); `NIL` when the bucket is empty.
    heads: Box<[u32]>,
    /// Which ring buckets hold entries.
    occupied: Occupancy,
    /// Absolute bucket number of the last popped timestamp. Every ring
    /// entry's absolute bucket is in `[cursor, cursor + BUCKET_COUNT)`.
    cursor: u64,
    /// Entries in the ring.
    ring_len: usize,
    /// Events pushed beyond the ring horizon, by `(time, key, seq)`;
    /// popped directly from here when due.
    annex: BinaryHeap<Reverse<Far<T>>>,
    /// Cached global minimum `(time, key, seq)`, kept exact on every
    /// mutation so `head_time` is O(1) and `&self`.
    head: Option<(SimTime, u64, u64)>,
    /// Total entries (ring + annex).
    len: usize,
    /// Reused scratch: the ring side of a drained cohort as
    /// `(key, seq, slot)` triples.
    cohort: Vec<(u64, u64, u32)>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the cursor at t = 0.
    pub fn new() -> Self {
        CalendarQueue {
            slab: Vec::new(),
            free: NIL,
            heads: vec![NIL; BUCKET_COUNT].into_boxed_slice(),
            occupied: Occupancy::new(),
            cursor: 0,
            ring_len: 0,
            annex: BinaryHeap::new(),
            head: None,
            len: 0,
            cohort: Vec::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Timestamp of the earliest pending event. O(1).
    pub fn head_time(&self) -> Option<SimTime> {
        self.head.map(|(t, _, _)| t)
    }

    /// Heap bytes the queue holds: the slab, the chain heads, the
    /// cohort scratch and the annex (the free list is threaded through
    /// the slab). Capacities only grow, so after a run this reports the
    /// storage its busiest moment needed; it is deterministic for a
    /// given push/pop sequence.
    pub fn heap_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<Node<T>>()
            + self.heads.len() * std::mem::size_of::<u32>()
            + self.cohort.capacity() * std::mem::size_of::<(u64, u64, u32)>()
            + self.annex.capacity() * std::mem::size_of::<Reverse<Far<T>>>()
    }

    /// Absolute bucket number of `time`.
    #[inline]
    fn abs_bucket(time: SimTime) -> u64 {
        time.as_nanos() >> BUCKET_SHIFT
    }

    /// Ring index of an absolute bucket number.
    #[inline]
    fn ring_index(abs: u64) -> usize {
        (abs & (BUCKET_COUNT as u64 - 1)) as usize
    }

    /// Schedule `item` at `(time, key, seq)`. `seq` values must be
    /// unique; the time must not precede the last popped time — the
    /// engine's existing no-scheduling-into-the-past invariant.
    ///
    /// # Panics
    /// If `time` is behind the queue's progress; accepting it would
    /// corrupt the ring-window ordering invariant.
    pub fn push(&mut self, time: SimTime, key: u64, seq: u64, item: T) {
        let abs = Self::abs_bucket(time);
        assert!(abs >= self.cursor, "push at {time} is behind the queue's progress");
        if abs >= self.cursor + BUCKET_COUNT as u64 {
            self.annex.push(Reverse(Far { time, key, seq, item }));
        } else {
            let idx = Self::ring_index(abs);
            let node = Node { time, key, seq, next: self.heads[idx], item: Some(item) };
            let slot = if self.free == NIL {
                let slot = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&slot| slot != NIL)
                    .expect("calendar slab outgrew u32 slot numbers");
                self.slab.push(node);
                slot
            } else {
                let slot = self.free;
                let reused = &mut self.slab[slot as usize];
                self.free = reused.next;
                *reused = node;
                slot
            };
            self.heads[idx] = slot;
            self.occupied.set(idx);
            self.ring_len += 1;
        }
        self.len += 1;
        if self.head.is_none_or(|h| (time, key, seq) < h) {
            self.head = Some((time, key, seq));
        }
    }

    /// Advance the popped-time floor.
    #[inline]
    fn advance_cursor(&mut self, abs: u64) {
        if abs > self.cursor {
            self.cursor = abs;
        }
    }

    /// Recompute `head` after a removal: the minimum of the first
    /// occupied ring bucket's chain (bitmap lookup, then one walk) and
    /// the annex top.
    fn rescan_head(&mut self) {
        let mut best: Option<(SimTime, u64, u64)> = self.annex.peek().map(|Reverse(far)| far.ord());
        if self.ring_len > 0 {
            let idx = self
                .occupied
                .next_set_circular(Self::ring_index(self.cursor))
                .expect("ring_len > 0 but no occupied bucket");
            let mut slot = self.heads[idx];
            while slot != NIL {
                let node = &self.slab[slot as usize];
                if best.is_none_or(|b| node.ord() < b) {
                    best = Some(node.ord());
                }
                slot = node.next;
            }
        }
        debug_assert_eq!(best.is_none(), self.len == 0);
        self.head = best;
    }

    /// Drop `slot` out of bucket `idx`'s chain; `prev` is its
    /// predecessor there, `NIL` when it is the chain head.
    #[inline]
    fn unlink(&mut self, idx: usize, prev: u32, slot: u32) {
        let next = self.slab[slot as usize].next;
        if prev == NIL {
            self.heads[idx] = next;
        } else {
            self.slab[prev as usize].next = next;
        }
    }

    /// Take the item out of an unlinked node and put the node on the
    /// free list.
    #[inline]
    fn release(&mut self, slot: u32) -> T {
        let node = &mut self.slab[slot as usize];
        node.next = self.free;
        self.free = slot;
        node.item.take().expect("released a free slab node")
    }

    /// Remove and return the earliest event as `(time, key, seq, item)`.
    pub fn pop_min(&mut self) -> Option<(SimTime, u64, u64, T)> {
        let (time, key, seq) = self.head?;
        let from_annex =
            self.annex.peek().is_some_and(|Reverse(far)| far.ord() == (time, key, seq));
        let item = if from_annex {
            let Some(Reverse(far)) = self.annex.pop() else { unreachable!() };
            far.item
        } else {
            let idx = Self::ring_index(Self::abs_bucket(time));
            let (mut prev, mut slot) = (NIL, self.heads[idx]);
            loop {
                assert!(slot != NIL, "cached head missing from its bucket");
                let node = &self.slab[slot as usize];
                if node.ord() == (time, key, seq) {
                    break;
                }
                prev = slot;
                slot = node.next;
            }
            self.unlink(idx, prev, slot);
            if self.heads[idx] == NIL {
                self.occupied.clear(idx);
            }
            self.ring_len -= 1;
            self.release(slot)
        };
        self.len -= 1;
        self.advance_cursor(Self::abs_bucket(time));
        self.rescan_head();
        Some((time, key, seq, item))
    }

    /// Remove every event at the head timestamp, appending them to `out`
    /// as `(key, item)` pairs in `(key, seq)` order, and return that
    /// timestamp. One walk of the head bucket's chain plus a run of
    /// annex pops — the engine's same-timestamp batch drain.
    pub fn drain_head<E: Extend<(u64, T)>>(&mut self, out: &mut E) -> Option<SimTime> {
        let (time, _, _) = self.head?;
        let mut cohort = std::mem::take(&mut self.cohort);
        debug_assert!(cohort.is_empty());
        if self.ring_len > 0 {
            // The masked bucket may also hold other absolute buckets'
            // entries; the walk keeps them linked.
            self.extract_ring_cohort(Self::ring_index(Self::abs_bucket(time)), time, &mut cohort);
            cohort.sort_unstable_by_key(|&(key, seq, _)| (key, seq));
        }
        // A cohort straddling the horizon (part pushed before the
        // cursor reached it, part after) also sits at the annex top,
        // already in (key, seq) order: merge the two sides.
        let mut emitted = 0;
        while let Some(Reverse(far)) = self.annex.peek().filter(|Reverse(far)| far.time == time) {
            let annex_ord = (far.key, far.seq);
            let upto = emitted + cohort[emitted..].partition_point(|&(k, s, _)| (k, s) < annex_ord);
            self.emit_ring(&cohort[emitted..upto], out);
            emitted = upto;
            let Some(Reverse(far)) = self.annex.pop() else { unreachable!() };
            out.extend(std::iter::once((far.key, far.item)));
            self.len -= 1;
        }
        self.emit_ring(&cohort[emitted..], out);
        cohort.clear();
        self.cohort = cohort;
        self.advance_cursor(Self::abs_bucket(time));
        self.rescan_head();
        Some(time)
    }

    /// Unlink every `time` entry of ring bucket `idx` in one walk of
    /// its chain, appending their `(key, seq, slot)` triples to
    /// `cohort`; the other entries stay linked.
    fn extract_ring_cohort(
        &mut self,
        idx: usize,
        time: SimTime,
        cohort: &mut Vec<(u64, u64, u32)>,
    ) {
        let (mut prev, mut slot) = (NIL, self.heads[idx]);
        while slot != NIL {
            let node = &self.slab[slot as usize];
            let next = node.next;
            if node.time == time {
                cohort.push((node.key, node.seq, slot));
                self.unlink(idx, prev, slot);
            } else {
                prev = slot;
            }
            slot = next;
        }
        self.ring_len -= cohort.len();
        self.len -= cohort.len();
        if self.heads[idx] == NIL {
            self.occupied.clear(idx);
        }
    }

    /// Append sorted, unlinked cohort entries to `out`, freeing their
    /// slab nodes.
    fn emit_ring<E: Extend<(u64, T)>>(&mut self, entries: &[(u64, u64, u32)], out: &mut E) {
        out.extend(entries.iter().map(|&(key, _, slot)| (key, self.release(slot))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// `drain_head` with the keys stripped.
    fn drain_items<T>(q: &mut CalendarQueue<T>, out: &mut Vec<T>) -> Option<SimTime> {
        let mut pairs = Vec::new();
        let time = q.drain_head(&mut pairs);
        out.extend(pairs.into_iter().map(|(_, item)| item));
        time
    }

    #[test]
    fn pops_in_time_key_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(t(500), 0, 0, "a");
        q.push(t(100), 0, 1, "b");
        q.push(t(100), 0, 2, "c");
        q.push(t(2_000_000_000), 0, 3, "far"); // straight to the annex
        q.push(t(30), 0, 4, "d");
        let mut got = Vec::new();
        while let Some((time, _, seq, item)) = q.pop_min() {
            got.push((time.as_nanos(), seq, item));
        }
        assert_eq!(
            got,
            vec![
                (30, 4, "d"),
                (100, 1, "b"),
                (100, 2, "c"),
                (500, 0, "a"),
                (2_000_000_000, 3, "far")
            ]
        );
    }

    #[test]
    fn key_outranks_insertion_order_within_an_instant() {
        // The canonical key decides same-instant order; insertion
        // sequence only breaks exact key ties. Both ring (near) and
        // annex (far) territory must agree on this.
        for base in [100u64, 50_000_000] {
            let mut q = CalendarQueue::new();
            q.push(t(base), 9, 0, "k9");
            q.push(t(base), 2, 1, "k2-first");
            q.push(t(base), 2, 2, "k2-second");
            q.push(t(base), 0, 3, "k0");
            let mut got = Vec::new();
            while let Some((_, _, _, item)) = q.pop_min() {
                got.push(item);
            }
            assert_eq!(got, vec!["k0", "k2-first", "k2-second", "k9"], "base {base}");
        }
    }

    #[test]
    fn drain_head_takes_exactly_the_head_cohort() {
        let mut q = CalendarQueue::new();
        q.push(t(100), 0, 0, 'a');
        q.push(t(100), 0, 1, 'b');
        q.push(t(101), 0, 2, 'x'); // same bucket, later time
        q.push(t(100), 0, 3, 'c');
        let mut out = Vec::new();
        assert_eq!(drain_items(&mut q, &mut out), Some(t(100)));
        assert_eq!(out, vec!['a', 'b', 'c']);
        assert_eq!(q.head_time(), Some(t(101)));
        out.clear();
        assert_eq!(drain_items(&mut q, &mut out), Some(t(101)));
        assert_eq!(out, vec!['x']);
        assert!(q.is_empty());
        assert_eq!(drain_items(&mut q, &mut out), None);
    }

    #[test]
    fn drain_head_sorts_a_key_tied_cohort() {
        // A same-instant cohort pushed in anti-key order, sharing its
        // bucket with a later event that must stay behind.
        let mut q = CalendarQueue::new();
        q.push(t(100), 5, 0, "k5");
        q.push(t(100), 1, 1, "k1");
        q.push(t(110), 0, 2, "later");
        q.push(t(100), 3, 3, "k3");
        let mut out = Vec::new();
        assert_eq!(drain_items(&mut q, &mut out), Some(t(100)));
        assert_eq!(out, vec!["k1", "k3", "k5"]);
        out.clear();
        assert_eq!(drain_items(&mut q, &mut out), Some(t(110)));
        assert_eq!(out, vec!["later"]);
    }

    #[test]
    fn annex_events_pop_when_due() {
        let mut q = CalendarQueue::new();
        // Far beyond the ~33 µs horizon from cursor 0.
        q.push(t(10_000_000), 0, 0, "timer1");
        q.push(t(5_000_000), 0, 1, "timer2");
        q.push(t(100), 0, 2, "near");
        assert_eq!(q.pop_min().map(|(_, _, _, i)| i), Some("near"));
        assert_eq!(q.head_time(), Some(t(5_000_000)));
        assert_eq!(q.pop_min().map(|(_, _, _, i)| i), Some("timer2"));
        assert_eq!(q.pop_min().map(|(_, _, _, i)| i), Some("timer1"));
        assert!(q.is_empty());
    }

    #[test]
    fn near_pushes_after_a_far_head_stay_ordered() {
        // Ring drains while a far timer waits in the annex; events then
        // pushed near the present must still pop first, in order.
        let mut q = CalendarQueue::new();
        q.push(t(10_000_000), 0, 0, 0u64);
        q.push(t(100), 0, 1, 1);
        assert_eq!(q.pop_min().map(|(_, _, s, _)| s), Some(1));
        assert_eq!(q.head_time(), Some(t(10_000_000)), "far timer heads the queue");
        // The popped event's handler schedules follow-ups just after.
        q.push(t(772), 0, 2, 2);
        q.push(t(772), 0, 3, 3);
        q.push(t(900), 0, 4, 4);
        assert_eq!(q.head_time(), Some(t(772)));
        let mut out = Vec::new();
        assert_eq!(drain_items(&mut q, &mut out), Some(t(772)));
        assert_eq!(out, vec![2, 3]);
        assert_eq!(q.pop_min().map(|(_, _, s, _)| s), Some(4));
        assert_eq!(q.pop_min().map(|(_, _, s, _)| s), Some(0));
        assert!(q.is_empty());
    }

    #[test]
    fn cohort_straddling_the_horizon_drains_in_key_seq_order() {
        let mut q = CalendarQueue::new();
        // Key 7 at t=40µs goes to the annex (beyond the horizon as
        // seen from cursor 0)...
        q.push(t(40_000), 7, 0, 0u64);
        q.push(t(10_000), 0, 1, 1);
        // ...pop the nearer event so the cursor advances and t=40µs
        // falls inside the ring window...
        assert_eq!(q.pop_min().map(|(_, _, s, _)| s), Some(1));
        // ...then push same-time events directly into the ring. The
        // cohort now spans annex (key 7) and ring (keys 9 and 2);
        // drain must interleave the two sides into (key, seq) order —
        // the ring entry with the smaller key comes out first even
        // though the annex side was pushed earlier.
        q.push(t(40_000), 9, 2, 2);
        q.push(t(40_000), 2, 3, 3);
        let mut out = Vec::new();
        assert_eq!(drain_items(&mut q, &mut out), Some(t(40_000)));
        assert_eq!(out, vec![3, 0, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn bitmap_wraps_circularly() {
        let mut occ = Occupancy::new();
        occ.set(10);
        assert_eq!(occ.next_set_circular(0), Some(10));
        assert_eq!(occ.next_set_circular(10), Some(10));
        assert_eq!(occ.next_set_circular(11), Some(10), "wraps all the way round");
        occ.set(500);
        assert_eq!(occ.next_set_circular(11), Some(500));
        assert_eq!(occ.next_set_circular(501), Some(10));
        occ.clear(10);
        occ.clear(500);
        assert_eq!(occ.next_set_circular(0), None);
    }

    #[test]
    #[should_panic(expected = "behind the queue's progress")]
    fn pushing_into_the_past_panics() {
        let mut q = CalendarQueue::new();
        q.push(t(5_000_000), 0, 0, ());
        let _ = q.pop_min();
        q.push(t(100), 0, 1, ());
    }

    proptest! {
        #[test]
        fn matches_binary_heap_reference(
            ops in proptest::collection::vec((0u8..4, 0u64..200_000, 0u8..4, 0u64..4), 1..200),
        ) {
            // Random interleaving of pushes (at now + delta, with
            // deltas spanning ring and annex territory, keys drawn from
            // a small alphabet so same-instant key collisions and
            // inversions both occur) and pops; the calendar queue must
            // pop the exact (time, key, seq) sequence a binary heap
            // does.
            let mut cal = CalendarQueue::new();
            let mut heap: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = SimTime::ZERO;
            for (op, delta, burst, key) in ops {
                if op == 0 {
                    // pop (possibly empty)
                    let got = cal.pop_min().map(|(time, k, s, ())| (time, k, s));
                    let want = heap.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(got, want);
                    if let Some((time, _, _)) = got {
                        now = time;
                    }
                } else {
                    // push a small same-time burst to exercise seq ties
                    let time = now + crate::SimDuration::nanos(delta);
                    for i in 0..=burst as u64 {
                        // vary the key within the burst so bursts are
                        // pushed out of canonical order
                        let k = (key + i) % 4;
                        cal.push(time, k, seq, ());
                        heap.push(Reverse((time, k, seq)));
                        seq += 1;
                    }
                }
                prop_assert_eq!(cal.head_time(), heap.peek().map(|Reverse((time, _, _))| *time));
                prop_assert_eq!(cal.len(), heap.len());
            }
            // Full drain at the end must agree too.
            while let Some(Reverse(want)) = heap.pop() {
                prop_assert_eq!(cal.pop_min().map(|(time, k, s, ())| (time, k, s)), Some(want));
            }
            prop_assert!(cal.is_empty());
        }

        #[test]
        fn large_cohorts_drain_in_heap_order(
            cohorts in proptest::collection::vec((50u64..=200, 0u64..64, 0u64..1_000), 2..6),
            stride in 3u64..11,
        ) {
            // The shape of a dense flood instant: several same-instant
            // cohorts of 50–200 events share one 64 ns bucket, each
            // pushed in anti-key order, with pushes at the bucket's
            // other instants interleaved every `stride` events. Every
            // batch `drain_head` returns must come out in exactly the
            // (time, key, seq) order of a `BinaryHeap`.
            let mut cal = CalendarQueue::new();
            let mut heap: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let base = 100 << BUCKET_SHIFT;
            let mut push = |time: SimTime, key: u64| {
                cal.push(time, key, seq, seq);
                heap.push(Reverse((time, key, seq)));
                seq += 1;
            };
            for &(size, offset, key_base) in &cohorts {
                for i in 0..size {
                    push(t(base + offset), key_base + size - i);
                    if i % stride == 0 {
                        push(t(base + (offset + 1 + i) % 64), key_base + i);
                    }
                }
            }
            prop_assert_eq!(CalendarQueue::<u64>::abs_bucket(t(base + 63)), base >> BUCKET_SHIFT);
            let mut batch = Vec::new();
            while let Some(time) = cal.drain_head(&mut batch) {
                prop_assert!(!batch.is_empty());
                for (key, item) in batch.drain(..) {
                    let Reverse(want) = heap.pop().expect("heap drained early");
                    prop_assert_eq!((time, key, item), want);
                }
            }
            prop_assert!(heap.is_empty());
            prop_assert!(cal.is_empty());
        }

        #[test]
        fn mixed_pops_drains_and_straddles_match_heap_and_bound_the_slab(
            ops in proptest::collection::vec((0u8..4, 0u64..4, 50u64..=200, 0u64..1_000), 4..24),
        ) {
            // Every shape the engine produces, interleaved: 50–200-event
            // same-instant cohorts pushed in anti-key order with pushes
            // at their bucket's other instants mixed in; cohorts that
            // straddle the horizon (one half pushed to the annex, the
            // other into the ring once the cursor has come near); and
            // `pop_min` and `drain_head` calls in any order. Every
            // event must leave in exactly the (time, key, seq) order of
            // a `BinaryHeap`, and the slab must never hold more nodes
            // than ring entries were ever pending at once — freed
            // nodes are reused before it grows.
            let mut cal = CalendarQueue::new();
            let mut heap: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut ring_high_water = 0;
            for (op, lane, size, key_base) in ops {
                match op {
                    0 => {
                        // Pop single events through a whole cohort's
                        // worth of the queue.
                        for _ in 0..size {
                            let got = cal.pop_min().map(|(time, k, s, _)| (time, k, s));
                            prop_assert_eq!(got, heap.pop().map(|Reverse(e)| e));
                            if let Some((time, _, _)) = got {
                                now = time.as_nanos();
                            }
                        }
                    }
                    1 => {
                        // Drain a few batches.
                        let mut batch = Vec::new();
                        for _ in 0..=lane {
                            let Some(time) = cal.drain_head(&mut batch) else { break };
                            for (key, item) in batch.drain(..) {
                                let Reverse(want) = heap.pop().expect("heap drained early");
                                prop_assert_eq!((time, key, item), want);
                            }
                            now = time.as_nanos();
                        }
                    }
                    2 => {
                        // A dense cohort at one instant of a future
                        // bucket, with every third push landing at
                        // another instant of the same bucket.
                        let base = ((now >> BUCKET_SHIFT) + 1 + lane * 7) << BUCKET_SHIFT;
                        let offset = key_base % 64;
                        for i in 0..size {
                            for (time, key) in [(base + offset, key_base + size - i), (base + (offset + 1 + i) % 64, i)] {
                                cal.push(t(time), key, seq, seq);
                                heap.push(Reverse((t(time), key, seq)));
                                seq += 1;
                                if i % 3 != 0 {
                                    break;
                                }
                            }
                        }
                    }
                    _ => {
                        // A straddling cohort: half at an instant past
                        // the horizon goes to the annex; pops up to a
                        // stepping stone move the cursor near it; the
                        // other half, with interleaved keys, then goes
                        // into the ring.
                        let far = now + 40_000 + lane;
                        let stone = now + 20_000;
                        for i in 0..size / 2 {
                            cal.push(t(far), key_base + 2 * i, seq, seq);
                            heap.push(Reverse((t(far), key_base + 2 * i, seq)));
                            seq += 1;
                        }
                        prop_assert!(cal.annex.len() >= (size / 2) as usize);
                        cal.push(t(stone), 0, seq, seq);
                        heap.push(Reverse((t(stone), 0, seq)));
                        seq += 1;
                        ring_high_water = ring_high_water.max(cal.ring_len);
                        while cal.head_time().is_some_and(|h| h <= t(stone)) {
                            let got = cal.pop_min().map(|(time, k, s, _)| (time, k, s));
                            prop_assert_eq!(got, heap.pop().map(|Reverse(e)| e));
                        }
                        now = stone;
                        let ring_half = size - size / 2;
                        for i in 0..ring_half {
                            // Odd keys, descending, between the annex
                            // half's even ones.
                            let key = key_base + 2 * (ring_half - i) - 1;
                            cal.push(t(far), key, seq, seq);
                            heap.push(Reverse((t(far), key, seq)));
                            seq += 1;
                        }
                    }
                }
                ring_high_water = ring_high_water.max(cal.ring_len);
                prop_assert_eq!(cal.slab.len(), ring_high_water);
                prop_assert_eq!(cal.head_time(), heap.peek().map(|Reverse((time, _, _))| *time));
                prop_assert_eq!(cal.len(), heap.len());
            }
            // Finish with alternating batch drains and single pops.
            let mut batch = Vec::new();
            while let Some(time) = cal.drain_head(&mut batch) {
                for (key, item) in batch.drain(..) {
                    let Reverse(want) = heap.pop().expect("heap drained early");
                    prop_assert_eq!((time, key, item), want);
                }
                let got = cal.pop_min().map(|(time, k, s, _)| (time, k, s));
                prop_assert_eq!(got, heap.pop().map(|Reverse(e)| e));
            }
            prop_assert!(heap.is_empty());
            prop_assert_eq!(cal.slab.len(), ring_high_water);
        }

        #[test]
        fn drain_head_equals_repeated_pops(
            ops in proptest::collection::vec((0u8..2, 1u64..100_000, 0u8..3, 0u64..3), 1..64),
        ) {
            // Two queues fed identically (with interleaved pops that
            // advance the cursor); draining batches from one must
            // equal single-popping the other. Times cluster on 1 µs
            // grid points so same-timestamp batches occur, and reach
            // far enough to land cohorts on both sides of the horizon
            // — including the straddle re-sort path, with keys pushed
            // out of order so the re-sort actually has work to do.
            let mut a = CalendarQueue::new();
            let mut b = CalendarQueue::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for (op, delta, burst, key) in ops {
                if op == 0 && !a.is_empty() {
                    let (time, k, s, _) = a.pop_min().expect("non-empty");
                    let (bt, bk, bs, _) = b.pop_min().expect("b matches");
                    prop_assert_eq!((time, k, s), (bt, bk, bs));
                    now = time.as_nanos();
                    continue;
                }
                let time = t(now + (delta / 1_000) * 1_000);
                for i in 0..=burst as u64 {
                    let k = 2u64.wrapping_sub(key.wrapping_add(i)) % 3; // anti-sorted keys
                    a.push(time, k, seq, seq);
                    b.push(time, k, seq, seq);
                    seq += 1;
                }
            }
            let mut batch = Vec::new();
            while let Some(time) = a.drain_head(&mut batch) {
                for (key, item) in batch.drain(..) {
                    let (bt, bk, bs, bi) = b.pop_min().expect("b drained early");
                    prop_assert_eq!((bt, bk, bs), (time, key, item));
                    prop_assert_eq!(bi, item);
                }
            }
            prop_assert!(b.is_empty());
        }
    }
}
