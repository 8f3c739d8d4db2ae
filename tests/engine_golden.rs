//! Golden fingerprints of the event engine: small seeded fat-tree
//! scenarios whose observable outcome is pinned to constants.
//!
//! Each scenario records three things — the FNV-1a digest of its
//! merged, timestamp-sorted delivery trace, the final
//! [`NetworkStats`], and the [`DirStats`] summed over every link
//! direction — and asserts them against values captured from the
//! two-events-per-hop engine (a `TxDone` plus a `Deliver` for every
//! frame). Any change to the engine's scheduling must keep every
//! fingerprint bit for bit; only the event count may move, and it may
//! only fall.
//!
//! The scenarios cover the engine paths a scheduling change can
//! perturb: same-instant flood races on a jittered fabric, PFC
//! pause/resume with the force-resume watchdog, drop-tail admission,
//! cable cuts and re-plugs under load, and the sharded engine's
//! boundary half-links.

use arppath::ArpPathConfig;
use arppath_host::{
    pairings, Aimd, FlowConfig, FlowHost, TrafficConfig, TrafficHost, TrafficPattern,
};
use arppath_netsim::{
    DeliveryTracer, Dir, DirStats, LinkId, NetworkStats, PauseWatchdog, QueuePolicy, SimDuration,
    SimTime,
};
use arppath_topo::{generic, BridgeKind, FatTree, Partition, TopoBuilder};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

const K: usize = 4;
const HOSTS_PER_EDGE: usize = 2;
const WARMUP_MS: u64 = 20;

/// One scenario's observable outcome.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    digest: u64,
    /// Engine counters with `events` zeroed (see [`Golden::events`]).
    stats: NetworkStats,
    links: DirStats,
}

/// A pinned fingerprint plus the event count of the engine it was
/// captured from.
struct Golden {
    fingerprint: Fingerprint,
    /// Events the two-events-per-hop engine processed.
    events: u64,
}

fn host_mac(id: u32) -> MacAddr {
    MacAddr::from_index(1, id)
}

fn host_ip(id: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (id >> 8) as u8, (id & 0xff) as u8)
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(lines: &[String]) -> u64 {
    lines.iter().fold(0xcbf2_9ce4_8422_2325, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"))
}

fn add(sum: &mut DirStats, s: DirStats) {
    sum.tx_frames += s.tx_frames;
    sum.tx_bytes += s.tx_bytes;
    sum.dropped_queue_full += s.dropped_queue_full;
    sum.dropped_link_down += s.dropped_link_down;
    sum.busy = sum.busy + s.busy;
    sum.pause_events += s.pause_events;
    sum.paused_for = sum.paused_for + s.paused_for;
    sum.peak_queue_bytes += s.peak_queue_bytes;
    sum.watchdog_fires += s.watchdog_fires;
    sum.dropped_watchdog += s.dropped_watchdog;
}

/// Open-loop UDP permutation: every host sends `count` datagrams,
/// `stagger_us` apart host to host, so ARP floods overlap.
fn flood(seed: u64, count: u64, stagger_us: u64) -> (TopoBuilder, FatTree, SimTime) {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let ft = generic::fat_tree_jittered(&mut t, K, seed);
    let n = ft.host_capacity(HOSTS_PER_EDGE);
    for (i, &dst) in pairings(n, TrafficPattern::Permutation, seed).iter().enumerate() {
        let id = (i + 1) as u32;
        let cfg = TrafficConfig {
            target: host_ip((dst + 1) as u32),
            start_at: SimDuration::millis(WARMUP_MS) + SimDuration::micros(stagger_us * i as u64),
            interval: SimDuration::micros(200),
            count,
            payload_len: 700,
            port: 9000,
            ..Default::default()
        };
        let host = TrafficHost::new(format!("h{id}"), host_mac(id), host_ip(id), cfg);
        t.host(ft.edge_of_host(i, HOSTS_PER_EDGE), Box::new(host));
    }
    (t, ft, SimTime(SimDuration::millis(WARMUP_MS + 30).as_nanos()))
}

/// Closed-loop go-back-N flows under `queue`, AIMD-controlled.
fn flows(seed: u64, pattern: TrafficPattern, queue: QueuePolicy) -> (TopoBuilder, SimTime) {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let ft = generic::fat_tree_jittered(&mut t, K, seed);
    let n = ft.host_capacity(HOSTS_PER_EDGE);
    for (i, &dst) in pairings(n, pattern, seed).iter().enumerate() {
        let id = (i + 1) as u32;
        let cfg = FlowConfig {
            target: Some(host_ip((dst + 1) as u32)),
            start_at: SimDuration::millis(WARMUP_MS) + SimDuration::micros(11 * i as u64),
            segments: 24,
            segment_len: 700,
            rto: SimDuration::millis(5),
            ..FlowConfig::default()
        };
        let host = FlowHost::with_controller(
            format!("h{id}"),
            host_mac(id),
            host_ip(id),
            cfg,
            Box::new(Aimd::new(2, 64)),
        );
        t.host(ft.edge_of_host(i, HOSTS_PER_EDGE), Box::new(host));
    }
    t.set_queue_policy(queue);
    if matches!(queue, QueuePolicy::Pfc { .. }) {
        t.set_watchdog(PauseWatchdog::force_resume(SimDuration::micros(40)));
    }
    (t, SimTime(SimDuration::millis(WARMUP_MS + 60).as_nanos()))
}

/// A cable to flap: the `i`-th host attachment or fabric link.
#[derive(Clone, Copy)]
enum Cable {
    Host(usize),
    Fabric(usize),
}

/// Run on the single-threaded engine. `flaps` are `(cable, down at,
/// up at)` events, in microseconds after the warm-up.
fn single(
    mut t: TopoBuilder,
    deadline: SimTime,
    flaps: &[(Cable, u64, u64)],
) -> (Fingerprint, u64) {
    let sink = Arc::new(Mutex::new(DeliveryTracer::new()));
    t.set_tracer(Box::new(sink.clone()));
    let mut built = t.build();
    let at =
        |us: u64| SimTime((SimDuration::millis(WARMUP_MS) + SimDuration::micros(us)).as_nanos());
    for &(cable, down, up) in flaps {
        let l = match cable {
            Cable::Host(i) => built.host_links[i],
            Cable::Fabric(i) => built.bridge_links[i],
        };
        built.net.schedule_link_down(l, at(down));
        built.net.schedule_link_up(l, at(up));
    }
    built.net.run_until(deadline);
    let mut links = DirStats::default();
    for (_, link) in built.net.links() {
        add(&mut links, link.stats(Dir::AtoB));
        add(&mut links, link.stats(Dir::BtoA));
    }
    let stats = built.net.stats();
    drop(built.net.take_tracer());
    let records = std::mem::take(&mut sink.lock().unwrap().records);
    let lines = DeliveryTracer::render_sorted(records);
    (
        Fingerprint { digest: digest(&lines), stats: NetworkStats { events: 0, ..stats }, links },
        stats.events,
    )
}

fn check(name: &str, (got, events): (Fingerprint, u64), want: Golden) {
    assert!(got.stats.frames_delivered > 0, "{name}: scenario must move frames");
    assert_eq!(got, want.fingerprint, "{name}: observable outcome changed");
    assert!(
        events <= want.events,
        "{name}: {events} events, more than the {} of the two-events-per-hop engine",
        want.events
    );
}

#[test]
fn jittered_flood_k4() {
    let (t, _, deadline) = flood(0xFA7, 3, 2);
    check("flood", single(t, deadline, &[]), GOLDEN_FLOOD);
}

#[test]
fn pfc_hotspot_incast_with_force_resume() {
    let pattern = TrafficPattern::Hotspot { hot_receivers: 2 };
    let (t, deadline) = flows(0xE9, pattern, QueuePolicy::pfc(4 * 1024));
    let got = single(t, deadline, &[]);
    assert!(got.0.links.pause_events > 0, "the incast must pause transmitters");
    check("pfc incast", got, GOLDEN_PFC_INCAST);
}

#[test]
fn drop_tail_permutation() {
    let (t, deadline) = flows(0xD7, TrafficPattern::Permutation, QueuePolicy::drop_tail(1500));
    check("drop-tail", single(t, deadline, &[]), GOLDEN_DROP_TAIL);
}

#[test]
fn churn_with_cable_cuts_and_replugs() {
    // Host cables flap while their floods and datagrams are in flight,
    // and one fabric cable flaps under load: cuts land mid-serialization
    // and mid-propagation, re-plugs restart discovery.
    let (t, _, deadline) = flood(0xC4, 6, 1);
    let flaps = [
        (Cable::Host(0), 3, 900),
        (Cable::Host(5), 250, 2_000),
        (Cable::Host(11), 611, 4_500),
        (Cable::Fabric(3), 40, 7_000),
    ];
    let got = single(t, deadline, &flaps);
    assert!(got.0.stats.drops_link_down > 0, "the flaps must cost frames");
    check("churn", got, GOLDEN_CHURN);
}

#[test]
fn jittered_flood_on_two_shards() {
    let (t, ft, deadline) = flood(0xFA7, 3, 2);
    let hosts = ft.host_capacity(HOSTS_PER_EDGE);
    let partition = Partition::rack_major(&ft, HOSTS_PER_EDGE, hosts, 2);
    let mut topo = t.build_sharded_with(&partition, true, true);
    topo.net.run_until(deadline);
    let mut links = DirStats::default();
    for l in 0..topo.net.link_count() {
        add(&mut links, topo.net.link_stats(LinkId(l), Dir::AtoB));
        add(&mut links, topo.net.link_stats(LinkId(l), Dir::BtoA));
    }
    let stats = topo.net.stats();
    let got = Fingerprint {
        digest: digest(&topo.net.delivery_trace()),
        stats: NetworkStats { events: 0, ..stats },
        links,
    };
    // The partitioned run reproduces the single-threaded one: same
    // merged trace, same corrected counters.
    check("sharded flood", (got, stats.events), GOLDEN_FLOOD);
}

const GOLDEN_FLOOD: Golden = Golden {
    fingerprint: Fingerprint {
        digest: 0xd71d7d2c633e38b8,
        stats: NetworkStats {
            frames_sent: 1357,
            frames_delivered: 1357,
            drops_queue_full: 0,
            drops_link_down: 0,
            drops_no_cable: 0,
            watchdog_fires: 0,
            drops_watchdog: 0,
            events: 0,
        },
        links: DirStats {
            tx_frames: 1357,
            tx_bytes: 269652,
            dropped_queue_full: 0,
            dropped_link_down: 0,
            busy: SimDuration::nanos(2417760),
            pause_events: 0,
            paused_for: SimDuration::nanos(0),
            peak_queue_bytes: 17076,
            watchdog_fires: 0,
            dropped_watchdog: 0,
        },
    },
    events: 2762,
};

const GOLDEN_PFC_INCAST: Golden = Golden {
    fingerprint: Fingerprint {
        digest: 0x135830aa38b1d08d,
        stats: NetworkStats {
            frames_sent: 6166,
            frames_delivered: 6175,
            drops_queue_full: 0,
            drops_link_down: 0,
            drops_no_cable: 0,
            watchdog_fires: 9,
            drops_watchdog: 0,
            events: 0,
        },
        links: DirStats {
            tx_frames: 6166,
            tx_bytes: 1744872,
            dropped_queue_full: 0,
            dropped_link_down: 0,
            busy: SimDuration::nanos(15142848),
            pause_events: 30,
            paused_for: SimDuration::nanos(1051288),
            peak_queue_bytes: 102924,
            watchdog_fires: 9,
            dropped_watchdog: 0,
        },
    },
    events: 12762,
};

const GOLDEN_DROP_TAIL: Golden = Golden {
    fingerprint: Fingerprint {
        digest: 0x66120a80c7fdff1d,
        stats: NetworkStats {
            frames_sent: 6556,
            frames_delivered: 6521,
            drops_queue_full: 35,
            drops_link_down: 0,
            drops_no_cable: 0,
            watchdog_fires: 0,
            drops_watchdog: 0,
            events: 0,
        },
        links: DirStats {
            tx_frames: 6521,
            tx_bytes: 1871882,
            dropped_queue_full: 35,
            dropped_link_down: 0,
            busy: SimDuration::nanos(16227088),
            pause_events: 0,
            paused_for: SimDuration::nanos(0),
            peak_queue_bytes: 73468,
            watchdog_fires: 0,
            dropped_watchdog: 0,
        },
    },
    events: 13465,
};

const GOLDEN_CHURN: Golden = Golden {
    fingerprint: Fingerprint {
        digest: 0x467e063cfbadb8df,
        stats: NetworkStats {
            frames_sent: 2636,
            frames_delivered: 2619,
            drops_queue_full: 0,
            drops_link_down: 17,
            drops_no_cable: 0,
            watchdog_fires: 0,
            drops_watchdog: 0,
            events: 0,
        },
        links: DirStats {
            tx_frames: 2620,
            tx_bytes: 457280,
            dropped_queue_full: 0,
            dropped_link_down: 16,
            busy: SimDuration::nanos(4168080),
            pause_events: 0,
            paused_for: SimDuration::nanos(0),
            peak_queue_bytes: 27054,
            watchdog_fires: 0,
            dropped_watchdog: 0,
        },
    },
    events: 5346,
};
