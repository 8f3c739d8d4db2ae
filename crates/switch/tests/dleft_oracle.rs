//! The d-left table against its reference oracle.
//!
//! [`AgingMap`] (BTreeMap, lazy expiry) is the executable
//! specification; [`DLeftTable`] (fixed-geometry d-left hashing, timer
//! wheel) must be observationally equivalent through every API call on
//! every op schedule — as long as it does not evict, which the
//! in-repo workloads never trigger (pinned below). Divergences the
//! equivalence deliberately ignores: raw `len()` (the d-left scrubber
//! may vacate expired entries earlier than the oracle's lazy path —
//! only *live* views must agree), and `retain`'s visit order.

use arppath_netsim::{SimDuration, SimTime};
use arppath_switch::{AgingMap, DLeftTable};
use proptest::prelude::*;

fn t(ns: u64) -> SimTime {
    SimTime(ns)
}

/// One randomized op against both tables, asserting agreement of every
/// observable result.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { key: u32, val: u64, ttl: u64 },
    Get { key: u32 },
    Peek { key: u32 },
    Touch { key: u32, ttl: u64 },
    Remove { key: u32 },
    Sweep,
    RetainOdd,
}

fn op_from(raw: (u8, u32, u64, u64)) -> Op {
    let (sel, key, val, ttl) = raw;
    match sel % 7 {
        0 => Op::Insert { key, val, ttl },
        1 => Op::Get { key },
        2 => Op::Peek { key },
        3 => Op::Touch { key, ttl },
        4 => Op::Remove { key },
        5 => Op::Sweep,
        _ => Op::RetainOdd,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
    #[test]
    fn dleft_matches_aging_map_oracle(
        raw_ops in proptest::collection::vec(
            ((0u8..7, 0u32..24, 0u64..1000, 1u64..400), 0u64..200),
            1..120,
        ),
    ) {
        let mut oracle: AgingMap<u32, u64> = AgingMap::new();
        let mut dleft: DLeftTable<u32, u64> = DLeftTable::new();
        let mut now = SimTime::ZERO;
        for (raw, dt) in raw_ops {
            now += SimDuration::nanos(dt);
            match op_from(raw) {
                Op::Insert { key, val, ttl } => {
                    let expires = now + SimDuration::nanos(ttl);
                    oracle.insert(key, val, expires);
                    let evicted = dleft.insert(key, val, expires);
                    prop_assert_eq!(evicted, None, "default geometry must never evict here");
                }
                Op::Get { key } => {
                    prop_assert_eq!(oracle.get(&key, now), dleft.get(&key, now));
                }
                Op::Peek { key } => {
                    prop_assert_eq!(oracle.peek(&key, now), dleft.peek(&key, now));
                    // The d-left table returns Aged<&V> (a bucket keeps
                    // values and expiries in separate arrays, so there is
                    // no contiguous Aged to borrow); reshape the
                    // oracle's &Aged<V> to match.
                    prop_assert_eq!(
                        oracle
                            .peek_aged(&key, now)
                            .map(|a| arppath_switch::Aged { value: &a.value, expires: a.expires }),
                        dleft.peek_aged(&key, now)
                    );
                }
                Op::Touch { key, ttl } => {
                    let expires = now + SimDuration::nanos(ttl);
                    prop_assert_eq!(
                        oracle.touch(&key, expires, now),
                        dleft.touch(&key, expires, now)
                    );
                }
                Op::Remove { key } => {
                    prop_assert_eq!(oracle.remove(&key), dleft.remove(&key));
                }
                Op::Sweep => {
                    // Counts may differ (the d-left background scrubber
                    // may have removed some expired entries already);
                    // the post-state live views must not.
                    oracle.sweep(now);
                    dleft.sweep(now);
                    prop_assert_eq!(oracle.len(), dleft.len(),
                        "after an explicit sweep both tables hold exactly the live set");
                }
                Op::RetainOdd => {
                    oracle.retain(|_, v| *v % 2 == 1);
                    dleft.retain(|_, v| *v % 2 == 1);
                }
            }
            // Full live view agrees after every op, in the same
            // (key-sorted) order.
            let o: Vec<(u32, u64)> = oracle.iter_live(now).map(|(k, v)| (*k, *v)).collect();
            let d: Vec<(u32, u64)> = dleft.iter_live(now).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(o, d);
        }
        prop_assert_eq!(dleft.evictions(), 0);
    }

    /// Timer-wheel stress: long-lived entries repeatedly touched across
    /// many sweep horizons must behave exactly like the oracle — the
    /// re-filing path (stale wheel entries revalidating against
    /// extended deadlines) is the part a naive wheel gets wrong.
    #[test]
    fn touch_extension_across_sweeps_matches_oracle(
        schedule in proptest::collection::vec((0u32..8, 1u64..5_000_000), 1..60),
    ) {
        let mut oracle: AgingMap<u32, u32> = AgingMap::new();
        let mut dleft: DLeftTable<u32, u32> = DLeftTable::new();
        let mut now = SimTime::ZERO;
        let ttl = SimDuration::micros(800);
        for (key, dt) in schedule {
            now += SimDuration::nanos(dt);
            // Insert-or-touch, the FIB refresh pattern.
            if oracle.get(&key, now).is_some() {
                oracle.touch(&key, now + ttl, now);
            } else {
                oracle.insert(key, key, now + ttl);
            }
            if dleft.get(&key, now).is_some() {
                dleft.touch(&key, now + ttl, now);
            } else {
                dleft.insert(key, key, now + ttl);
            }
            // Removal *counts* may differ between the two sweeps: the
            // d-left background scrubber (riding on insert) may have
            // vacated expired entries already. Post-sweep state may not.
            oracle.sweep(now);
            dleft.sweep(now);
            prop_assert_eq!(oracle.len(), dleft.len());
            let o: Vec<u32> = oracle.iter_live(now).map(|(k, _)| *k).collect();
            let d: Vec<u32> = dleft.iter_live(now).map(|(k, _)| *k).collect();
            prop_assert_eq!(o, d);
        }
    }
}

#[test]
fn expiry_boundary_is_shared() {
    // The d-left twin of the boundary test in aging.rs: `expires <=
    // now` is dead on every accessor, pinned against the same
    // Aged::is_live predicate so the implementations cannot drift.
    let mut m: DLeftTable<u32, &str> = DLeftTable::new();
    m.insert(1, "x", t(100));
    assert_eq!(m.peek(&1, t(99)), Some(&"x"));
    assert_eq!(m.peek(&1, t(100)), None, "peek: the expiry instant itself is dead");
    assert!(m.touch(&1, t(200), t(99)), "touch sees the entry live at t-1");
    assert!(!m.touch(&1, t(300), t(200)), "touch sees it dead at the new boundary");
    m.insert(2, "y", t(100));
    assert_eq!(m.sweep(t(100)), 1, "sweep removes exactly the boundary-dead entry");
    assert_eq!(m.get(&2, t(100)), None, "get agrees with sweep at the boundary");

    // And the oracle gives byte-for-byte the same answers.
    let mut o: AgingMap<u32, &str> = AgingMap::new();
    o.insert(1, "x", t(100));
    assert_eq!(o.peek(&1, t(99)), Some(&"x"));
    assert_eq!(o.peek(&1, t(100)), None);
    assert!(o.touch(&1, t(200), t(99)));
    assert!(!o.touch(&1, t(300), t(200)));
    o.insert(2, "y", t(100));
    assert_eq!(o.sweep(t(100)), 1);
    assert_eq!(o.get(&2, t(100)), None);
}

#[test]
fn overflow_eviction_is_explicit_and_counted() {
    // Tiny geometry: 1 bucket per way × 4 ways × 2 slots = 8 physical
    // slots. The 9th key must evict the earliest-expiring candidate —
    // the documented CAM divergence — and say so.
    let mut m: DLeftTable<u64, u64> = DLeftTable::with_bucket_bits(0);
    for i in 0..8u64 {
        assert_eq!(m.insert(i, 100 + i, t(10_000 + i)), None);
    }
    assert_eq!(m.evictions(), 0);
    let evicted = m.insert(1000, 0, t(99_000));
    assert_eq!(evicted, Some((0, 100)), "victim is the earliest expiry with its value");
    assert_eq!(m.evictions(), 1);
    assert_eq!(m.len(), 8);
    // The survivors and the newcomer are all reachable.
    for i in 1..8u64 {
        assert_eq!(m.peek(&i, t(0)), Some(&(100 + i)));
    }
    assert_eq!(m.peek(&1000, t(0)), Some(&0));
}

#[test]
fn experiment_scale_load_never_evicts() {
    // The E8 worst case: one core bridge learns every host in a
    // 1024-host fat-tree, plus repair bookkeeping. Default geometry
    // must hold it with zero evictions or trace identity would be at
    // the mercy of hash luck.
    let mut m: DLeftTable<arppath_wire::MacAddr, u32> =
        DLeftTable::with_bucket_bits(arppath_switch::bucket_bits_for(2048));
    for i in 0..2048u32 {
        let evicted = m.insert(arppath_wire::MacAddr::from_index(1, i), i, t(1_000_000_000));
        assert_eq!(evicted, None, "eviction at entry {i} of 2048");
    }
    assert_eq!(m.len(), 2048);
    assert_eq!(m.evictions(), 0);
}
