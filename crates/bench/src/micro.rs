//! Shared micro-measurements for the fast-table data structures.
//!
//! Used twice: `benches/dleft_lookup.rs` wraps these fixtures in
//! criterion harnesses for `cargo bench`, and the `repro` binary calls
//! [`measure_all`] to embed the same medians in its machine-readable
//! `--bench-json` trajectory file (schema in `BASELINES.md`), so the
//! committed `BENCH_PR*.json` and the interactive bench output can
//! never drift apart structurally.
//!
//! Methodology matches the vendored criterion shim's spirit: time a
//! full pass over the working set, repeat for [`SAMPLES`] samples,
//! report the median per-operation nanoseconds. Accesses walk a
//! pre-shuffled key schedule so neither table gets sequential-locality
//! charity.

use arppath_netsim::{CalendarQueue, SimDuration, SimTime};
use arppath_switch::{AgingMap, DLeftTable};
use arppath_wire::MacAddr;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Working-set size for the table comparisons: the ≥10k-entry regime
/// the All-Path scalability study names as the pressure point.
pub const TABLE_ENTRIES: usize = 10_000;
/// Samples per measurement; the median is reported.
pub const SAMPLES: usize = 11;
/// d-left geometry holding [`TABLE_ENTRIES`] at ~30 % load (4 ways ×
/// 4096 buckets × 2 slots = 32768 slots).
pub const TABLE_BUCKET_BITS: u32 = 12;

/// Expiry far past every measured instant, so lookups always hit.
fn far() -> SimTime {
    SimTime::ZERO + SimDuration::secs(3600)
}

/// Deterministically shuffled key schedule (splitmix64 walk) of
/// `n` present keys; `miss` makes keys from a disjoint namespace.
pub fn key_schedule(n: usize, miss: bool) -> Vec<MacAddr> {
    let kind = if miss { 9 } else { 1 };
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = 0x243F_6A88_85A3_08D3u64;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order.into_iter().map(|i| MacAddr::from_index(kind, i)).collect()
}

/// A populated d-left table of [`TABLE_ENTRIES`] live entries.
pub fn dleft_fixture(n: usize) -> DLeftTable<MacAddr, u32> {
    let mut t = DLeftTable::with_bucket_bits(TABLE_BUCKET_BITS);
    for i in 0..n as u32 {
        t.insert(MacAddr::from_index(1, i), i, far());
    }
    assert_eq!(t.evictions(), 0, "fixture geometry must not evict");
    t
}

/// A populated `AgingMap` oracle of [`TABLE_ENTRIES`] live entries.
pub fn btree_fixture(n: usize) -> AgingMap<MacAddr, u32> {
    let mut t = AgingMap::new();
    for i in 0..n as u32 {
        t.insert(MacAddr::from_index(1, i), i, far());
    }
    t
}

/// Median per-op nanoseconds of `pass` (which performs `ops`
/// operations per call) over [`SAMPLES`] timed samples.
pub fn median_ns_per_op<F: FnMut() -> u64>(ops: usize, mut pass: F) -> f64 {
    // One warm-up pass outside the samples.
    black_box(pass());
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            black_box(pass());
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// Cohort size per timestamp in the scheduler churn (the engine's
/// same-instant batches: a flood fan-out, a burst of deliveries).
pub const CHURN_COHORT: u64 = 4;

/// Steady-state scheduler churn through the calendar queue, shaped
/// like the engine's hot loop: drain the head cohort, process it, and
/// schedule one follow-up per event a few hundred nanoseconds out
/// (TxDone → Deliver chains). Runs `rounds` drains over a standing
/// population of 16 cohorts; returns a checksum.
pub fn calq_churn(rounds: u64) -> u64 {
    let mut q = CalendarQueue::new();
    let mut seq = 0u64;
    let mut acc = 0u64;
    let mut state = 0x9E37_79B9u64;
    for i in 0..16u64 {
        for _ in 0..CHURN_COHORT {
            q.push(SimTime(1 + i * 800), seq % CHURN_COHORT, seq, seq);
            seq += 1;
        }
    }
    let mut batch = Vec::new();
    for _ in 0..rounds {
        let Some(t) = q.drain_head(&mut batch) else { break };
        let next = t + SimDuration::nanos(400 + ((state >> 40) & 1023));
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for (_, item) in batch.drain(..) {
            acc = acc.wrapping_add(t.as_nanos() ^ item);
            q.push(next, seq % CHURN_COHORT, seq, item);
            seq += 1;
        }
    }
    acc
}

/// The identical churn through the old `BinaryHeap` scheduler,
/// including its same-timestamp batch-pop loop.
pub fn heap_churn(rounds: u64) -> u64 {
    let mut q: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut acc = 0u64;
    let mut state = 0x9E37_79B9u64;
    for i in 0..16u64 {
        for _ in 0..CHURN_COHORT {
            q.push(Reverse((SimTime(1 + i * 800), seq, seq)));
            seq += 1;
        }
    }
    let mut batch = Vec::new();
    for _ in 0..rounds {
        let Some(Reverse((t, _, _))) = q.peek().copied() else { break };
        while let Some(Reverse((et, _, _))) = q.peek() {
            if *et != t {
                break;
            }
            let Some(Reverse((_, _, item))) = q.pop() else { unreachable!() };
            batch.push(item);
        }
        let next = t + SimDuration::nanos(400 + ((state >> 40) & 1023));
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for item in batch.drain(..) {
            acc = acc.wrapping_add(t.as_nanos() ^ item);
            q.push(Reverse((next, seq, item)));
            seq += 1;
        }
    }
    acc
}

/// Every micro-measurement as `(key, median ns/op)` pairs — the
/// `micro_ns` section of the bench-trajectory JSON.
pub fn measure_all() -> Vec<(&'static str, f64)> {
    let n = TABLE_ENTRIES;
    let hits = key_schedule(n, false);
    let misses = key_schedule(n, true);
    let mut dleft = dleft_fixture(n);
    let mut btree = btree_fixture(n);
    let now = SimTime(1);
    let mut out = Vec::new();

    out.push((
        "dleft_get_hit_10k_ns",
        median_ns_per_op(n, || {
            hits.iter().filter_map(|k| dleft.get(k, now).copied()).map(u64::from).sum()
        }),
    ));
    out.push((
        "btree_get_hit_10k_ns",
        median_ns_per_op(n, || {
            hits.iter().filter_map(|k| btree.get(k, now).copied()).map(u64::from).sum()
        }),
    ));
    out.push((
        "dleft_get_miss_10k_ns",
        median_ns_per_op(n, || {
            misses.iter().filter(|k| dleft.get(k, now).is_some()).count() as u64
        }),
    ));
    out.push((
        "btree_get_miss_10k_ns",
        median_ns_per_op(n, || {
            misses.iter().filter(|k| btree.get(k, now).is_some()).count() as u64
        }),
    ));
    // The background-aging claim: sweeping a table with nothing
    // expired is near-free for the wheel, O(table) for the BTreeMap.
    // Batch sweeps per sample so the wheel's ~tens-of-ns figure is not
    // dominated by clock-read overhead.
    const SWEEPS: usize = 100;
    out.push((
        "dleft_sweep_idle_10k_ns",
        median_ns_per_op(SWEEPS, || (0..SWEEPS).map(|_| dleft.sweep(now) as u64).sum()),
    ));
    out.push((
        "btree_sweep_idle_10k_ns",
        median_ns_per_op(SWEEPS, || (0..SWEEPS).map(|_| btree.sweep(now) as u64).sum()),
    ));
    let churn_ops = 1024 * CHURN_COHORT as usize;
    out.push(("calq_churn_1k_ns", median_ns_per_op(churn_ops, || calq_churn(1024))));
    out.push(("heap_churn_1k_ns", median_ns_per_op(churn_ops, || heap_churn(1024))));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_hold_the_full_working_set() {
        let mut d = dleft_fixture(TABLE_ENTRIES);
        let mut b = btree_fixture(TABLE_ENTRIES);
        let now = SimTime(1);
        for k in key_schedule(TABLE_ENTRIES, false) {
            assert_eq!(d.get(&k, now), b.get(&k, now));
            assert!(d.get(&k, now).is_some());
        }
        for k in key_schedule(64, true) {
            assert_eq!(d.get(&k, now), None);
            assert_eq!(b.get(&k, now), None);
        }
    }

    #[test]
    fn churn_cycles_agree_on_checksums() {
        assert_eq!(calq_churn(1024), heap_churn(1024), "same schedule, same drain order");
    }
}
