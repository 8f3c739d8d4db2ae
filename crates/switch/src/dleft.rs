//! A d-left hash table shaped like the NetFPGA forwarding hardware.
//!
//! The paper's bridges run at line rate because the learning FIB and
//! the ARP-Path lock table are *fixed-geometry* hash structures: d
//! parallel ways of equal-size bucket arrays, probed in one clock,
//! aged by a background scrubber. [`DLeftTable`] reproduces that shape
//! in software behind the same API as the [`AgingMap`](crate::AgingMap)
//! reference implementation:
//!
//! * **d = [`WAYS`] ways**, each a flat array of buckets holding
//!   [`SLOTS_PER_BUCKET`] slots — no per-entry heap allocation, no
//!   pointer chasing. Like the hardware's one-word entry, a bucket
//!   keeps everything a probe reads together: its slots' keys (which
//!   double as the occupancy map), expiries and values sit in one
//!   64-byte-aligned block — exactly one cache line for the path
//!   table's `MacAddr → PathEntry` buckets — so a hit or a miss costs
//!   one line per way. The slots' birth instants and generation stamps,
//!   which only insert, vacate and the scrubber touch, stay in cold
//!   planes indexed by flat slot number (`bucket × SLOTS_PER_BUCKET +
//!   slot`), the same number the timer wheel files.
//!   [`heap_bytes`](DLeftTable::heap_bytes) reports the resulting footprint so
//!   bytes-per-station is a measured number, not a guess.
//! * **Multiply-shift hashing**: each way reduces a mixed 64-bit key
//!   fingerprint with its own odd multiplier; insertion takes the
//!   least-loaded candidate bucket (leftmost way on ties), the classic
//!   d-left rule that keeps occupancy near-uniform.
//! * **Background aging**: every slot's expiry is filed in a
//!   [`TimerWheel`]; [`sweep`](DLeftTable::sweep) advances the wheel
//!   and touches only entries actually due — O(expired), not O(table).
//!   Inserts opportunistically advance the wheel to the latest
//!   observed instant, mirroring the hardware scrubber that runs
//!   whether or not anyone asks.
//!
//! # Overflow and eviction — the divergence from a real CAM
//!
//! The NetFPGA tables reject or overwrite on hash-set overflow and the
//! paper sizes them so that effectively never happens. This table makes
//! the policy explicit: when all `WAYS × SLOTS_PER_BUCKET` candidate
//! slots for a new key are *occupied* (live, or expired but not yet
//! scrubbed — inserts scrub to the last observed instant first, so in
//! steady use occupants are live), the entry closest to its natural
//! death (earliest expiry; lowest slot index on ties) is evicted and
//! returned to the caller, and [`evictions`](DLeftTable::evictions)
//! counts the event — including the benign case where the victim was
//! already dead. Eviction is
//! fully deterministic. Protocol-level capacity limits (the paper's
//! table-size ablation) stay where they always were — in the caller's
//! capacity check — this policy only governs physical bucket overflow.
//! Every in-repo deployment sizes its geometry with
//! [`bucket_bits_for`] to stay under ~25 % occupancy, where d-left
//! makes overflow vanishingly rare; `crates/switch/tests/dleft_oracle.rs` pins that
//! the repository's workloads never evict.
//!
//! # Expiry boundary
//!
//! Liveness is exactly [`Aged::is_live`]: an entry is dead from its
//! expiry instant onward (`expires <= now`), live strictly before it —
//! the same single predicate the `AgingMap` oracle uses, pinned by the
//! shared boundary tests so the two implementations cannot drift.

use crate::aging::Aged;
use crate::wheel::{TimerEntry, TimerWheel};
use arppath_netsim::SimTime;
use arppath_wire::MacAddr;

/// Number of ways (independent hash functions / sub-tables).
pub const WAYS: usize = 4;
/// Slots per bucket within a way.
pub const SLOTS_PER_BUCKET: usize = 2;
/// Default log2 of buckets per way: 64 buckets × 4 ways × 2 slots =
/// 512 slots — comfortable for the ≤ ~128-station fabrics most
/// experiments build, and cheap to zero at construction. Deployments
/// that learn more stations size their geometry explicitly with
/// [`bucket_bits_for`], exactly as the NetFPGA build sizes its BRAM
/// table for the target network.
pub const DEFAULT_BUCKET_BITS: u32 = 6;

/// The smallest `bucket_bits` whose geometry keeps `expected_entries`
/// at or under 25 % occupancy (4× slot headroom), floored at
/// [`DEFAULT_BUCKET_BITS`]. At ≤ 25 % load, d-left placement makes
/// bucket overflow (and therefore eviction) vanishingly rare — the
/// sizing rule every in-repo deployment uses.
pub fn bucket_bits_for(expected_entries: usize) -> u32 {
    let mut bits = DEFAULT_BUCKET_BITS;
    while ((WAYS * SLOTS_PER_BUCKET) << bits) < expected_entries.saturating_mul(4) {
        bits += 1;
    }
    bits
}

/// Per-way odd multipliers for multiply-shift hashing (splitmix64 /
/// xxhash mixing constants — fixed, so every run hashes identically).
const WAY_MULTIPLIERS: [u64; WAYS] =
    [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F, 0xD6E8_FEB8_6659_FD93, 0xA24B_AED4_963E_E407];

/// Keys a [`DLeftTable`] can store: cheap to copy, totally ordered (for
/// deterministic reporting iteration), and reducible to a well-mixed
/// 64-bit fingerprint.
pub trait DLeftKey: Copy + Eq + Ord {
    /// A 64-bit fingerprint of the key. Implementations should return
    /// raw key bits; [`mix64`] is applied on top before way reduction.
    fn fingerprint(&self) -> u64;
}

/// splitmix64 finalizer: diffuses structured key bits (sequential MACs,
/// small integers) across the whole word so the multiply-shift way
/// hashes see high-entropy input.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl DLeftKey for u32 {
    fn fingerprint(&self) -> u64 {
        u64::from(*self)
    }
}

impl DLeftKey for u64 {
    fn fingerprint(&self) -> u64 {
        *self
    }
}

impl DLeftKey for MacAddr {
    fn fingerprint(&self) -> u64 {
        self.to_u64()
    }
}

impl<A: DLeftKey, B: DLeftKey> DLeftKey for (A, B) {
    fn fingerprint(&self) -> u64 {
        // Mix the first component before combining so (a, b) and (b, a)
        // land apart even for commutative raw fingerprints.
        mix64(self.0.fingerprint()).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.1.fingerprint()
    }
}

/// Number of log2-microsecond buckets in the eviction-victim age
/// histogram: bucket 0 counts victims younger than 1 µs, bucket `b ≥ 1`
/// counts ages in `[2^(b-1), 2^b)` µs, and the last bucket absorbs
/// everything older (2^30 µs ≈ 18 minutes — far past any in-repo
/// learning timer).
pub const VICTIM_AGE_BUCKETS: usize = 32;

/// Churn/aging instrumentation snapshot of a [`DLeftTable`] — the
/// observables experiment E11 drives past sizing headroom: overflow
/// evictions (with a victim-age histogram: was the table throwing away
/// fresh state or nearly-dead state?), the occupancy high-water mark
/// against the physical slot capacity, and mass-expiry sweep shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Bucket-overflow evictions since construction (same counter as
    /// [`DLeftTable::evictions`]).
    pub evictions: u64,
    /// Highest occupied-slot count ever reached (live or
    /// not-yet-scrubbed), against [`DLeftTable::capacity`].
    pub occupancy_high_water: usize,
    /// Scrubber runs (explicit [`sweep`](DLeftTable::sweep)s and the
    /// background scrub every insert performs) that vacated at least
    /// one expired entry.
    pub expiry_sweeps: u64,
    /// Total entries vacated by expiry across all scrubber runs.
    pub swept_total: u64,
    /// Largest single scrubber run — the mass-expiry spike a Poisson
    /// departure burst produces.
    pub swept_max: usize,
    /// Eviction-victim ages (eviction instant minus the victim's last
    /// insert), log2-microsecond buckets; see [`VICTIM_AGE_BUCKETS`].
    pub victim_age_histogram: [u64; VICTIM_AGE_BUCKETS],
}

impl Default for TableStats {
    fn default() -> Self {
        TableStats {
            evictions: 0,
            occupancy_high_water: 0,
            expiry_sweeps: 0,
            swept_total: 0,
            swept_max: 0,
            victim_age_histogram: [0; VICTIM_AGE_BUCKETS],
        }
    }
}

impl TableStats {
    /// The histogram bucket for a victim age in nanoseconds.
    pub fn age_bucket(age_nanos: u64) -> usize {
        let age_us = age_nanos / 1_000;
        if age_us == 0 {
            0
        } else {
            ((64 - age_us.leading_zeros()) as usize).min(VICTIM_AGE_BUCKETS - 1)
        }
    }

    /// Victims counted across the whole age histogram.
    pub fn victims_total(&self) -> u64 {
        self.victim_age_histogram.iter().sum()
    }
}

/// One bucket: what a probe reads for its [`SLOTS_PER_BUCKET`] slots,
/// in one 64-byte-aligned block.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
struct Bucket<K, V> {
    /// `Some` iff the slot is occupied (doubling as the occupancy map).
    keys: [Option<K>; SLOTS_PER_BUCKET],
    /// Expiry instants; meaningful only while the slot is occupied.
    expires: [SimTime; SLOTS_PER_BUCKET],
    /// `Some` exactly where `keys` is.
    values: [Option<V>; SLOTS_PER_BUCKET],
}

impl<K, V> Bucket<K, V> {
    /// Every slot free. A constant, not a constructor call, so filling
    /// the bucket array compiles to block copies of one prebuilt value.
    const EMPTY: Self = Bucket {
        keys: [const { None }; SLOTS_PER_BUCKET],
        expires: [SimTime::ZERO; SLOTS_PER_BUCKET],
        values: [const { None }; SLOTS_PER_BUCKET],
    };
}

/// The fixed-geometry aging hash table. See the module docs for the
/// hardware mapping, the bucket layout, and the eviction policy.
#[derive(Debug, Clone)]
pub struct DLeftTable<K: DLeftKey, V> {
    /// log2 of buckets per way.
    bucket_bits: u32,
    /// The buckets, way-major; flat slot `i` is slot
    /// `i % SLOTS_PER_BUCKET` of bucket `i / SLOTS_PER_BUCKET`.
    buckets: Vec<Bucket<K, V>>,
    /// Cold birth plane by flat slot: instant of the insert that
    /// created (or re-keyed) the slot's current entry — the baseline
    /// for the eviction-victim age histogram. Touches extend the expiry
    /// but not this.
    born: Vec<SimTime>,
    /// Cold per-slot generation stamps; bumped on every vacate so stale
    /// wheel entries fail revalidation.
    gens: Vec<u32>,
    /// Occupied slots (live or not-yet-scrubbed).
    len: usize,
    /// The background aging scrubber.
    wheel: TimerWheel,
    /// Latest instant any accessor has reported; inserts scrub up to
    /// here.
    observed_now: SimTime,
    /// Bucket-overflow evictions since construction.
    evictions: u64,
    /// Churn instrumentation (high-water, sweep shape, victim ages);
    /// `stats.evictions` mirrors the standalone counter.
    stats: TableStats,
    /// Reused buffer for wheel deliveries.
    due: Vec<TimerEntry>,
}

impl<K: DLeftKey, V> Default for DLeftTable<K, V> {
    fn default() -> Self {
        DLeftTable::new()
    }
}

impl<K: DLeftKey, V> DLeftTable<K, V> {
    /// Size and alignment of one bucket — what one probe of one way
    /// reads. A 64-byte bucket is exactly one cache line.
    pub const BUCKET_LAYOUT: std::alloc::Layout = std::alloc::Layout::new::<Bucket<K, V>>();

    /// A table with the default geometry ([`DEFAULT_BUCKET_BITS`]).
    pub fn new() -> Self {
        DLeftTable::with_bucket_bits(DEFAULT_BUCKET_BITS)
    }

    /// A table with `1 << bucket_bits` buckets per way (total slot
    /// capacity `WAYS << bucket_bits` × [`SLOTS_PER_BUCKET`]). The
    /// geometry is fixed for the table's lifetime, like the hardware.
    pub fn with_bucket_bits(bucket_bits: u32) -> Self {
        assert!(bucket_bits <= 24, "bucket_bits {bucket_bits} would allocate absurd geometry");
        let bucket_count = WAYS << bucket_bits;
        let mut buckets = Vec::with_capacity(bucket_count);
        buckets.resize_with(bucket_count, || Bucket::EMPTY);
        let total = bucket_count * SLOTS_PER_BUCKET;
        DLeftTable {
            bucket_bits,
            buckets,
            born: vec![SimTime::ZERO; total],
            gens: vec![0; total],
            len: 0,
            wheel: TimerWheel::default(),
            observed_now: SimTime::ZERO,
            evictions: 0,
            stats: TableStats::default(),
            due: Vec::new(),
        }
    }

    /// Total physical slot count of the fixed geometry.
    pub fn capacity(&self) -> usize {
        self.buckets.len() * SLOTS_PER_BUCKET
    }

    /// Heap footprint of the table in bytes: the buckets, the cold
    /// birth and generation planes, the timer wheel, and the reused
    /// delivery buffer. Geometry dominates — buckets and planes are
    /// allocated in full at construction — so dividing by the station
    /// count gives the bytes-per-station figure experiment E12 reports.
    pub fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Bucket<K, V>>()
            + self.born.capacity() * std::mem::size_of::<SimTime>()
            + self.gens.capacity() * std::mem::size_of::<u32>()
            + self.wheel.heap_bytes()
            + self.due.capacity() * std::mem::size_of::<TimerEntry>()
    }

    /// Bucket-overflow evictions since construction (see the module
    /// docs; zero in every static in-repo workload — E11's undersized
    /// churn regime is the deliberate exception).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Snapshot of the churn/aging instrumentation ([`TableStats`]).
    pub fn stats(&self) -> TableStats {
        let mut s = self.stats;
        s.evictions = self.evictions;
        s
    }

    /// Entry count including not-yet-scrubbed expired entries (same
    /// semantics as the `AgingMap` oracle: callers wanting exact live
    /// counts should `sweep` first).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index into `buckets` of way `way`, bucket `bucket`.
    #[inline]
    fn bucket_index(&self, way: usize, bucket: usize) -> usize {
        way << self.bucket_bits | bucket
    }

    /// The bucket holding flat slot `idx`, and the slot within it.
    #[inline]
    fn slot(&self, idx: usize) -> (&Bucket<K, V>, usize) {
        (&self.buckets[idx / SLOTS_PER_BUCKET], idx % SLOTS_PER_BUCKET)
    }

    /// Mutable [`slot`](Self::slot).
    #[inline]
    fn slot_mut(&mut self, idx: usize) -> (&mut Bucket<K, V>, usize) {
        (&mut self.buckets[idx / SLOTS_PER_BUCKET], idx % SLOTS_PER_BUCKET)
    }

    /// The candidate bucket for `key` in `way` (fast-range reduction of
    /// a per-way multiply over the mixed fingerprint).
    #[inline]
    fn way_bucket(&self, fp: u64, way: usize) -> usize {
        let h = fp.wrapping_mul(WAY_MULTIPLIERS[way]);
        ((u128::from(h) * (1u128 << self.bucket_bits)) >> 64) as usize
    }

    /// Flat index of the slot holding `key`, if any: one bucket — one
    /// cache line — per way.
    #[inline]
    fn find(&self, key: &K) -> Option<usize> {
        let fp = mix64(key.fingerprint());
        for way in 0..WAYS {
            let b = self.bucket_index(way, self.way_bucket(fp, way));
            let bucket = &self.buckets[b];
            for s in 0..SLOTS_PER_BUCKET {
                if bucket.keys[s] == Some(*key) {
                    return Some(b * SLOTS_PER_BUCKET + s);
                }
            }
        }
        None
    }

    /// Expiry of the (occupied) slot at `idx`.
    #[inline]
    fn expires_at(&self, idx: usize) -> SimTime {
        let (bucket, s) = self.slot(idx);
        bucket.expires[s]
    }

    /// Value of the (occupied) slot at `idx`.
    #[inline]
    fn value_at(&self, idx: usize) -> &V {
        let (bucket, s) = self.slot(idx);
        bucket.values[s].as_ref().expect("occupied slot lost its value")
    }

    /// Liveness of the (occupied) slot at `idx`, routed through the
    /// shared [`Aged::is_live`] boundary predicate.
    #[inline]
    fn slot_live(&self, idx: usize, now: SimTime) -> bool {
        Aged { value: (), expires: self.expires_at(idx) }.is_live(now)
    }

    /// Empty the slot, returning its entry, and strand its wheel
    /// entries.
    fn vacate(&mut self, idx: usize) -> (K, V) {
        let (bucket, s) = self.slot_mut(idx);
        let key = bucket.keys[s].take().expect("vacated an empty slot");
        let value = bucket.values[s].take().expect("occupied slot lost its value");
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.len -= 1;
        (key, value)
    }

    /// Fill slot `idx` with a fresh entry born at `born`, and file its
    /// expiry with the scrubber.
    fn fill(&mut self, idx: usize, key: K, value: V, expires: SimTime, born: SimTime) {
        let (bucket, s) = self.slot_mut(idx);
        bucket.keys[s] = Some(key);
        bucket.values[s] = Some(value);
        bucket.expires[s] = expires;
        self.born[idx] = born;
        self.wheel.insert(expires, idx as u32, self.gens[idx]);
    }

    /// Record that sim time has reached (at least) `now`.
    #[inline]
    fn observe(&mut self, now: SimTime) {
        if now > self.observed_now {
            self.observed_now = now;
        }
    }

    /// Advance the scrubber to `now`, vacating every entry whose expiry
    /// has passed; returns how many were vacated. Wheel deliveries are
    /// revalidated against the live slot (generation + current expiry)
    /// and re-filed when the deadline moved.
    fn scrub(&mut self, now: SimTime) -> usize {
        let mut due = std::mem::take(&mut self.due);
        debug_assert!(due.is_empty());
        self.wheel.advance(now, &mut due);
        let mut removed = 0;
        for entry in due.drain(..) {
            let idx = entry.slot as usize;
            if self.gens[idx] != entry.gen {
                continue; // vacated or re-keyed since filing
            }
            let (bucket, s) = self.slot(idx);
            if bucket.keys[s].is_none() {
                continue;
            }
            if self.slot_live(idx, now) {
                // Deadline was extended after filing: re-file at the
                // live expiry.
                self.wheel.insert(self.expires_at(idx), entry.slot, entry.gen);
            } else {
                self.vacate(idx);
                removed += 1;
            }
        }
        self.due = due;
        if removed > 0 {
            self.stats.expiry_sweeps += 1;
            self.stats.swept_total += removed as u64;
            self.stats.swept_max = self.stats.swept_max.max(removed);
        }
        removed
    }

    /// Insert or replace `key`, valid until `expires`. Returns the
    /// evicted victim if the insert overflowed every candidate slot
    /// (see the module docs; `None` in normal operation).
    pub fn insert(&mut self, key: K, value: V, expires: SimTime) -> Option<(K, V)> {
        // Background aging: scrub up to the latest instant the caller
        // has shown us before taking new work, like the hardware.
        let watermark = self.observed_now;
        self.scrub(watermark);
        if let Some(idx) = self.find(&key) {
            self.fill(idx, key, value, expires, watermark);
            return None;
        }
        let fp = mix64(key.fingerprint());
        // d-left placement: the least-loaded candidate bucket wins,
        // leftmost way on ties; take its first free slot.
        let mut best: Option<(usize, usize)> = None; // (load, free idx)
        for way in 0..WAYS {
            let b = self.bucket_index(way, self.way_bucket(fp, way));
            let mut load = 0;
            let mut free = None;
            for (s, k) in self.buckets[b].keys.iter().enumerate() {
                if k.is_some() {
                    load += 1;
                } else if free.is_none() {
                    free = Some(b * SLOTS_PER_BUCKET + s);
                }
            }
            if let Some(free_idx) = free {
                if best.is_none_or(|(l, _)| load < l) {
                    best = Some((load, free_idx));
                }
            }
        }
        let idx = match best {
            Some((_, idx)) => {
                self.len += 1;
                idx
            }
            None => {
                // Physical overflow: every candidate slot is occupied.
                // Evict the entry nearest its natural death (earliest
                // expiry, lowest slot index on ties) — deterministic.
                let mut victim = usize::MAX;
                let mut victim_expires = SimTime(u64::MAX);
                for way in 0..WAYS {
                    let b = self.bucket_index(way, self.way_bucket(fp, way));
                    let bucket = &self.buckets[b];
                    for s in 0..SLOTS_PER_BUCKET {
                        debug_assert!(bucket.keys[s].is_some(), "overflow bucket has hole");
                        if bucket.expires[s] < victim_expires {
                            victim_expires = bucket.expires[s];
                            victim = b * SLOTS_PER_BUCKET + s;
                        }
                    }
                }
                self.evictions += 1;
                let age = watermark.as_nanos().saturating_sub(self.born[victim].as_nanos());
                self.stats.victim_age_histogram[TableStats::age_bucket(age)] += 1;
                // Vacating keeps `len` honest; the refill restores it.
                let old = self.vacate(victim);
                self.len += 1;
                self.fill(victim, key, value, expires, watermark);
                return Some(old);
            }
        };
        self.fill(idx, key, value, expires, watermark);
        self.stats.occupancy_high_water = self.stats.occupancy_high_water.max(self.len);
        None
    }

    /// Live value for `key` at `now`; expired entries are removed on
    /// the way (the lookup path double-checks timestamps, as the
    /// hardware does).
    pub fn get(&mut self, key: &K, now: SimTime) -> Option<&V> {
        self.observe(now);
        let idx = self.find(key)?;
        if !self.slot_live(idx, now) {
            self.vacate(idx);
            return None;
        }
        Some(self.value_at(idx))
    }

    /// Mutable live value for `key` at `now`.
    pub fn get_mut(&mut self, key: &K, now: SimTime) -> Option<&mut V> {
        self.observe(now);
        let idx = self.find(key)?;
        if !self.slot_live(idx, now) {
            self.vacate(idx);
            return None;
        }
        let (bucket, s) = self.slot_mut(idx);
        bucket.values[s].as_mut()
    }

    /// Peek without removing expired entries (read-only inspection).
    pub fn peek(&self, key: &K, now: SimTime) -> Option<&V> {
        let idx = self.find(key)?;
        if !self.slot_live(idx, now) {
            return None;
        }
        Some(self.value_at(idx))
    }

    /// The full aged entry (value reference + expiry), live at `now`.
    /// (Returns `Aged<&V>` rather than `&Aged<V>`: a bucket keeps its
    /// slots' values and expiries in separate arrays, so there is no
    /// contiguous `Aged` to borrow.)
    pub fn peek_aged(&self, key: &K, now: SimTime) -> Option<Aged<&V>> {
        let idx = self.find(key)?;
        if !self.slot_live(idx, now) {
            return None;
        }
        Some(Aged { value: self.value_at(idx), expires: self.expires_at(idx) })
    }

    /// Extend the expiry of `key` to `expires` if present and live;
    /// returns whether the entry existed. Never shortens. The stale
    /// wheel entry is left to revalidate at the old deadline — the
    /// hot-path cost of a touch is the lookup alone.
    pub fn touch(&mut self, key: &K, expires: SimTime, now: SimTime) -> bool {
        self.observe(now);
        let Some(idx) = self.find(key) else { return false };
        if self.slot_live(idx, now) {
            let (bucket, s) = self.slot_mut(idx);
            bucket.expires[s] = bucket.expires[s].max(expires);
            true
        } else {
            self.vacate(idx);
            false
        }
    }

    /// Remove `key`, returning its value if it was present (live or
    /// not).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.find(key)?;
        Some(self.vacate(idx).1)
    }

    /// Drop every entry for which `pred` fails (live ones included) —
    /// used to flush table entries pointing at a failed port. Visits
    /// slots in physical slot order, not key order (divergence from the
    /// oracle; observable only through `pred`'s side effects).
    pub fn retain<F: FnMut(&K, &V) -> bool>(&mut self, mut pred: F) {
        for idx in 0..self.capacity() {
            let (bucket, s) = self.slot(idx);
            if let Some(key) = &bucket.keys[s] {
                if !pred(key, self.value_at(idx)) {
                    self.vacate(idx);
                }
            }
        }
    }

    /// Remove entries expired at `now`; returns how many were removed.
    /// O(expired + buckets passed), driven by the timer wheel.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        self.observe(now);
        self.scrub(now)
    }

    /// Remove everything. The geometry (and slot generations) survive.
    pub fn clear(&mut self) {
        for idx in 0..self.capacity() {
            let (bucket, s) = self.slot(idx);
            if bucket.keys[s].is_some() {
                self.vacate(idx);
            }
        }
        self.wheel.clear();
    }

    /// Iterate live entries at `now`, in key order (collected and
    /// sorted — reporting path, not the hot path).
    pub fn iter_live(&self, now: SimTime) -> impl Iterator<Item = (&K, &V)> {
        let mut live: Vec<(&K, &V)> = (0..self.capacity())
            .filter_map(|idx| {
                let (bucket, s) = self.slot(idx);
                let key = bucket.keys[s].as_ref()?;
                self.slot_live(idx, now).then(|| (key, self.value_at(idx)))
            })
            .collect();
        live.sort_unstable_by(|a, b| a.0.cmp(b.0));
        live.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn get_honours_expiry_boundary() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(100));
        assert_eq!(m.get(&1, t(50)), Some(&"x"));
        assert_eq!(m.get(&1, t(100)), None, "expiry instant itself is dead");
        assert!(m.is_empty(), "lazy removal happened");
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(100));
        assert_eq!(m.peek(&1, t(200)), None);
        assert_eq!(m.len(), 1, "peek leaves expired entry in place");
    }

    #[test]
    fn touch_extends_but_never_shrinks() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(100));
        assert!(m.touch(&1, t(300), t(50)));
        assert_eq!(m.peek_aged(&1, t(50)).unwrap().expires, t(300));
        assert!(m.touch(&1, t(200), t(50)), "shorter touch succeeds");
        assert_eq!(m.peek_aged(&1, t(50)).unwrap().expires, t(300), "but keeps later expiry");
        assert!(!m.touch(&2, t(300), t(50)), "absent key");
    }

    #[test]
    fn sweep_is_wheel_driven_and_counts() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "a", t(10));
        m.insert(2u32, "b", t(20));
        m.insert(3u32, "c", t(5_000_000));
        assert_eq!(m.sweep(t(20)), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.sweep(t(20)), 0, "idempotent at the same instant");
        assert_eq!(m.sweep(t(6_000_000)), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn touched_entry_survives_its_original_deadline() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(1_000));
        assert!(m.touch(&1, t(5_000_000), t(500)));
        // Sweep past the original deadline: the stale wheel entry must
        // revalidate and re-file, not kill the entry.
        assert_eq!(m.sweep(t(2_000_000)), 0);
        assert_eq!(m.peek(&1, t(2_000_000)), Some(&"x"));
        assert_eq!(m.sweep(t(6_000_000)), 1);
    }

    #[test]
    fn insert_scrubs_in_the_background() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "a", t(10));
        // An access at t=5ms moves the observed watermark...
        assert_eq!(m.get(&2, t(5_000_000)), None);
        // ...so the next insert's background scrub vacates key 1
        // without anyone calling sweep.
        m.insert(3u32, "c", t(9_000_000));
        assert_eq!(m.len(), 1, "expired entry scrubbed by the insert");
    }

    #[test]
    fn overflow_evicts_earliest_expiry_deterministically() {
        // One bucket per way × 2 slots = 8 physical slots; the 9th
        // distinct key must evict exactly the earliest-expiring entry.
        let mut m: DLeftTable<u64, u64> = DLeftTable::with_bucket_bits(0);
        for i in 0..8u64 {
            assert_eq!(m.insert(i, i, t(1_000 + i)), None, "first 8 fit");
        }
        assert_eq!(m.len(), 8);
        let evicted = m.insert(99, 99, t(50_000));
        assert_eq!(evicted, Some((0, 0)), "earliest expiry (t=1000) is the victim");
        assert_eq!(m.evictions(), 1);
        assert_eq!(m.len(), 8, "eviction keeps the table full, not over-full");
        assert_eq!(m.peek(&99, t(0)), Some(&99));
        assert_eq!(m.peek(&0, t(0)), None);
    }

    #[test]
    fn stats_track_high_water_sweeps_and_victim_ages() {
        let mut m: DLeftTable<u64, u64> = DLeftTable::with_bucket_bits(0);
        for i in 0..8u64 {
            m.insert(i, i, t(1_000_000 + i));
        }
        let s = m.stats();
        assert_eq!(s.occupancy_high_water, 8);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.victims_total(), 0);
        // Observe t=500µs so the eviction sees a 500µs-old victim
        // (born at the t=0 watermark), then overflow the geometry.
        assert_eq!(m.get(&99, t(500_000)), None);
        assert_eq!(m.insert(99, 99, t(50_000_000)), Some((0, 0)));
        let s = m.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.victims_total(), 1);
        // 500 µs is in the [2^8, 2^9) µs bucket.
        assert_eq!(s.victim_age_histogram[TableStats::age_bucket(500_000)], 1);
        assert_eq!(TableStats::age_bucket(500_000), 9);
        // Mass expiry: everything but key 99 dies at t=1ms+8ns.
        let removed = m.sweep(t(1_000_100));
        assert_eq!(removed, 7);
        let s = m.stats();
        assert_eq!(s.expiry_sweeps, 1);
        assert_eq!(s.swept_total, 7);
        assert_eq!(s.swept_max, 7);
        assert_eq!(s.occupancy_high_water, 8, "high water survives the sweep");
    }

    #[test]
    fn age_bucket_edges() {
        assert_eq!(TableStats::age_bucket(0), 0);
        assert_eq!(TableStats::age_bucket(999), 0, "sub-µs ages share bucket 0");
        assert_eq!(TableStats::age_bucket(1_000), 1, "[1, 2) µs");
        assert_eq!(TableStats::age_bucket(2_000), 2, "[2, 4) µs");
        assert_eq!(TableStats::age_bucket(u64::MAX), VICTIM_AGE_BUCKETS - 1);
    }

    #[test]
    fn iter_live_is_key_ordered_and_filtered() {
        let mut m = DLeftTable::new();
        m.insert(3u32, "c", t(100));
        m.insert(1u32, "a", t(100));
        m.insert(2u32, "dead", t(5));
        let keys: Vec<u32> = m.iter_live(t(10)).map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3]);
    }

    #[test]
    fn retain_filters_by_value() {
        let mut m = DLeftTable::new();
        m.insert(1u32, 10, t(100));
        m.insert(2u32, 20, t(100));
        m.retain(|_, v| *v != 10);
        assert_eq!(m.peek(&1, t(0)), None);
        assert_eq!(m.peek(&2, t(0)), Some(&20));
    }

    #[test]
    fn remove_returns_even_expired_values() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(10));
        assert_eq!(m.remove(&1), Some("x"), "expired but unswept: remove still returns it");
        assert_eq!(m.remove(&1), None);
    }

    #[test]
    fn removed_then_reinserted_key_survives_stale_wheel_deadline() {
        // Churn shape (E11): a station departs — the link-down flush
        // removes its entry, which must also strand the pending wheel
        // deadline via the generation bump — and re-arrives with a
        // later expiry. The stale deadline must not kill the new
        // incarnation.
        let mut m = DLeftTable::new();
        m.insert(1u32, "departed", t(1_000));
        assert_eq!(m.remove(&1), Some("departed"));
        m.insert(1u32, "rearrived", t(5_000_000));
        assert_eq!(m.sweep(t(2_000)), 0, "old deadline fails generation revalidation");
        assert_eq!(m.peek(&1, t(2_000)), Some(&"rearrived"));
        assert_eq!(m.sweep(t(6_000_000)), 1, "new deadline is the one that fires");
    }

    #[test]
    fn reinsert_replaces_value_and_expiry_in_place() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "old", t(10));
        m.insert(1u32, "new", t(100));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&1, t(50)), Some(&"new"));
    }

    #[test]
    fn clear_then_reuse() {
        let mut m = DLeftTable::new();
        for i in 0..100u32 {
            m.insert(i, i, t(1_000));
        }
        m.clear();
        assert!(m.is_empty());
        m.insert(7u32, 7, t(2_000));
        assert_eq!(m.peek(&7, t(1_500)), Some(&7));
        assert_eq!(m.sweep(t(3_000)), 1, "stale pre-clear wheel entries must not miscount");
    }

    #[test]
    fn mac_and_pair_keys_spread() {
        // Smoke: 1024 sequential MACs at E8-sized geometry must fit
        // with zero evictions (the k=8 core-bridge load).
        let mut m: DLeftTable<MacAddr, u32> = DLeftTable::with_bucket_bits(bucket_bits_for(1024));
        for i in 0..1024u32 {
            m.insert(MacAddr::from_index(1, i), i, t(1_000_000));
        }
        assert_eq!(m.len(), 1024);
        assert_eq!(m.evictions(), 0);
        let mut pairs: DLeftTable<(MacAddr, u32), u32> =
            DLeftTable::with_bucket_bits(bucket_bits_for(512));
        for i in 0..512u32 {
            pairs.insert((MacAddr::from_index(1, i), i % 7), i, t(1_000_000));
        }
        assert_eq!(pairs.len(), 512);
        assert_eq!(pairs.evictions(), 0);
    }
}
