//! The benchmark's workloads: how each scenario is declared from a seed,
//! instantiated on one of the two engines, and checked once it has run.

use crate::probe::{FloodHost, HostClock, Timed};
use arppath::ArpPathConfig;
use arppath_host::{
    pairings, Aimd, FlowConfig, FlowHost, TrafficConfig, TrafficHost, TrafficPattern,
};
use arppath_netsim::{
    Device, Dir, NetworkStats, NodeId, PauseWatchdog, QueuePolicy, SimDuration, SimTime,
};
use arppath_topo::{
    generic, BridgeKind, BuiltTopology, FatTree, Partition, ShardedTopology, TopoBuilder,
};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The flood workloads' fabric and traffic: E12's k=16 scenario.
const FLOOD_K: usize = 16;
const FLOOD_HOSTS_PER_EDGE: usize = 4;
/// Three datagrams per host, so the median completion time falls inside
/// the class of datagrams that found a resolved path, and p90 inside the
/// class that paid for ARP discovery (with two, p50 sits on the seam).
const FLOOD_DATAGRAMS: u64 = 3;
const FLOOD_PAYLOAD: usize = 700;
const FLOOD_STAGGER_US: u64 = 137;
const FLOOD_INTERVAL_MS: u64 = 5;
const FLOOD_TAIL_MS: u64 = 200;

/// The incast workload: E9's k=8 hotspot cell under PFC, AIMD and the
/// pause watchdog.
const INCAST_K: usize = 8;
const INCAST_HOSTS_PER_EDGE: usize = 4;
const INCAST_SEGMENTS: u64 = 512;
const INCAST_SEGMENT_LEN: usize = 700;
const INCAST_HOT_RECEIVERS: usize = 2;
const INCAST_QUEUE_BYTES: usize = 16 * 1024;
const INCAST_WATCHDOG_MS: u64 = 10;
const INCAST_RTO_MS: u64 = 5;
const INCAST_STAGGER_US: u64 = 11;
const INCAST_TAIL_MS: u64 = 400;

const WARMUP_MS: u64 = 100;
const UDP_PORT: u16 = 9000;

/// Workers of the sharded comparison in the flood ledger.
pub const LEDGER_SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// k=16 permutation, ARP-flood dominated.
    Flood,
    /// k=8 hotspot incast of long go-back-N flows.
    Incast,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "flood-k16" => Some(Workload::Flood),
            "incast-k8" => Some(Workload::Incast),
            _ => None,
        }
    }

    /// Scenario instances a run's repetitions cycle through. Simulated
    /// completion times are pooled over all of them: one incast instance's
    /// FCT percentiles move by a quarter from seed to seed (AIMD under PFC
    /// shares the hot links unevenly), 32 pooled move by a few percent.
    pub fn instances(self) -> usize {
        match self {
            Workload::Flood => 4,
            Workload::Incast => 32,
        }
    }

    /// The seed of instance `j` of a run seeded `seed`: disjoint sets for
    /// distinct run seeds.
    pub fn instance_seed(self, seed: u64, j: usize) -> u64 {
        seed.wrapping_mul(self.instances() as u64).wrapping_add(j as u64)
    }

    /// Workload parameters as a JSON object, for the run manifest.
    pub fn params_json(self) -> String {
        match self {
            Workload::Flood => format!(
                "{{\"k\": {FLOOD_K}, \"hosts_per_edge\": {FLOOD_HOSTS_PER_EDGE}, \
                 \"datagrams\": {FLOOD_DATAGRAMS}, \"payload_len\": {FLOOD_PAYLOAD}, \
                 \"pattern\": \"permutation\", \"instances\": {}, \
                 \"ledger_shards\": {LEDGER_SHARDS}, \"partition\": \"rack-major\", \
                 \"lookahead\": \"matrix\"}}",
                self.instances()
            ),
            Workload::Incast => format!(
                "{{\"k\": {INCAST_K}, \"hosts_per_edge\": {INCAST_HOSTS_PER_EDGE}, \
                 \"segments\": {INCAST_SEGMENTS}, \"segment_len\": {INCAST_SEGMENT_LEN}, \
                 \"pattern\": \"hotspot\", \"hot_receivers\": {INCAST_HOT_RECEIVERS}, \
                 \"queue\": \"pfc\", \"queue_bytes\": {INCAST_QUEUE_BYTES}, \"cc\": \"aimd\", \
                 \"watchdog_ms\": {INCAST_WATCHDOG_MS}, \"instances\": {}}}",
                self.instances()
            ),
        }
    }
}

fn host_mac(id: u32) -> MacAddr {
    MacAddr::from_index(1, id)
}

fn host_ip(id: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (id >> 8) as u8, (id & 0xff) as u8)
}

/// Inverse of [`host_ip`]: the zero-based host index.
fn host_index(ip: Ipv4Addr) -> usize {
    let o = ip.octets();
    (((o[2] as usize) << 8) | o[3] as usize) - 1
}

/// A declared, not yet instantiated scenario.
pub struct Scenario {
    pub workload: Workload,
    pub topo: TopoBuilder,
    pub ft: FatTree,
    pub hosts: usize,
    pub deadline: SimTime,
}

/// Declare `workload`'s fabric and hosts from `seed`. With `clock`, every
/// host is wrapped in a [`Timed`] device charging its callbacks there.
pub fn declare(workload: Workload, seed: u64, clock: Option<&Arc<HostClock>>) -> Scenario {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    match workload {
        Workload::Flood => {
            let ft = generic::fat_tree_jittered(&mut t, FLOOD_K, seed.wrapping_add(0xFA7));
            let n = ft.host_capacity(FLOOD_HOSTS_PER_EDGE);
            let pairs = pairings(n, TrafficPattern::Permutation, seed);
            let stagger = SimDuration::micros(FLOOD_STAGGER_US);
            let interval = SimDuration::millis(FLOOD_INTERVAL_MS);
            for (i, &dst) in pairs.iter().enumerate() {
                let id = (i + 1) as u32;
                let cfg = TrafficConfig {
                    target: host_ip((dst + 1) as u32),
                    start_at: flood_start(i),
                    interval,
                    count: FLOOD_DATAGRAMS,
                    payload_len: FLOOD_PAYLOAD,
                    port: UDP_PORT,
                    ..Default::default()
                };
                let host = FloodHost::new(TrafficHost::new(
                    format!("h{id}"),
                    host_mac(id),
                    host_ip(id),
                    cfg,
                ));
                t.host(ft.edge_of_host(i, FLOOD_HOSTS_PER_EDGE), boxed(host, clock));
            }
            let deadline = SimDuration::millis(WARMUP_MS)
                + stagger.times(n as u64)
                + interval.times(FLOOD_DATAGRAMS)
                + SimDuration::millis(FLOOD_TAIL_MS);
            Scenario { workload, topo: t, ft, hosts: n, deadline: SimTime(deadline.as_nanos()) }
        }
        Workload::Incast => {
            let ft = generic::fat_tree_jittered(&mut t, INCAST_K, seed.wrapping_add(0xFA7));
            let n = ft.host_capacity(INCAST_HOSTS_PER_EDGE);
            let pattern = TrafficPattern::Hotspot { hot_receivers: INCAST_HOT_RECEIVERS };
            let pairs = pairings(n, pattern, seed);
            let stagger = SimDuration::micros(INCAST_STAGGER_US);
            for (i, &dst) in pairs.iter().enumerate() {
                let id = (i + 1) as u32;
                let cfg = FlowConfig {
                    target: Some(host_ip((dst + 1) as u32)),
                    start_at: SimDuration::millis(WARMUP_MS) + stagger.times(i as u64),
                    segments: INCAST_SEGMENTS,
                    segment_len: INCAST_SEGMENT_LEN,
                    rto: SimDuration::millis(INCAST_RTO_MS),
                    ..FlowConfig::default()
                };
                let host = FlowHost::with_controller(
                    format!("h{id}"),
                    host_mac(id),
                    host_ip(id),
                    cfg,
                    Box::new(Aimd::new(2, 64)),
                );
                t.host(ft.edge_of_host(i, INCAST_HOSTS_PER_EDGE), boxed(host, clock));
            }
            t.set_queue_policy(QueuePolicy::pfc(INCAST_QUEUE_BYTES));
            t.set_watchdog(PauseWatchdog::force_resume(SimDuration::millis(INCAST_WATCHDOG_MS)));
            let deadline = SimDuration::millis(WARMUP_MS)
                + stagger.times(n as u64)
                + SimDuration::millis(INCAST_TAIL_MS);
            Scenario { workload, topo: t, ft, hosts: n, deadline: SimTime(deadline.as_nanos()) }
        }
    }
}

fn boxed<D: Device>(host: D, clock: Option<&Arc<HostClock>>) -> Box<dyn Device> {
    match clock {
        Some(c) => Box::new(Timed::new(host, c.clone())),
        None => Box::new(host),
    }
}

/// When flood host `i` sends its first datagram.
fn flood_start(i: usize) -> SimDuration {
    SimDuration::millis(WARMUP_MS) + SimDuration::micros(FLOOD_STAGGER_US).times(i as u64)
}

/// An instantiated scenario on either engine.
pub enum Fabric {
    Single(Box<BuiltTopology>),
    Sharded(Box<ShardedTopology>),
}

impl Scenario {
    /// Instantiate on the single-threaded engine (`shards` = 1) or on the
    /// sharded one. `delivery_trace` asks the sharded engine to keep its
    /// merged delivery trace.
    pub fn build(self, shards: usize, delivery_trace: bool) -> (Fabric, Meta) {
        let meta = Meta {
            workload: self.workload,
            hosts: self.hosts,
            bridges: self.topo.bridge_count(),
            deadline: self.deadline,
        };
        let fabric = if shards > 1 {
            let hpe = match self.workload {
                Workload::Flood => FLOOD_HOSTS_PER_EDGE,
                Workload::Incast => INCAST_HOSTS_PER_EDGE,
            };
            let partition = Partition::rack_major(&self.ft, hpe, self.hosts, shards);
            Fabric::Sharded(Box::new(self.topo.build_sharded_with(
                &partition,
                delivery_trace,
                true,
            )))
        } else {
            Fabric::Single(Box::new(self.topo.build()))
        };
        (fabric, meta)
    }
}

/// What outlives the declaration: enough to run and check the fabric.
#[derive(Debug, Clone, Copy)]
pub struct Meta {
    pub workload: Workload,
    pub hosts: usize,
    pub bridges: usize,
    pub deadline: SimTime,
}

impl Fabric {
    pub fn run_until(&mut self, until: SimTime) {
        match self {
            Fabric::Single(b) => b.net.run_until(until),
            Fabric::Sharded(s) => s.net.run_until(until),
        }
    }

    pub fn stats(&self) -> NetworkStats {
        match self {
            Fabric::Single(b) => b.net.stats(),
            Fabric::Sharded(s) => s.net.stats(),
        }
    }

    fn host_nodes(&self) -> &[NodeId] {
        match self {
            Fabric::Single(b) => &b.host_nodes,
            Fabric::Sharded(s) => &s.host_nodes,
        }
    }

    fn host<T: 'static>(&self, node: NodeId) -> &T {
        match self {
            Fabric::Single(b) => b.net.device::<T>(node),
            Fabric::Sharded(s) => s.net.device::<T>(node),
        }
    }
}

/// The checked result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub stats: NetworkStats,
    /// Operations offered: datagrams (flood) or flows (incast).
    pub ops: u64,
    /// Operations that did not complete by the deadline.
    pub failed: u64,
    /// Simulated completion time of each completed operation, sorted, ns.
    pub completion_ns: Vec<u64>,
    /// Go-back-N retransmissions (incast).
    pub retransmits: u64,
    /// Output checks that failed, besides incomplete operations.
    pub problems: Vec<String>,
}

/// Nearest-rank percentile of sorted nanosecond samples, in ms.
pub fn percentile_ms(sorted: &[u64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64 / 1e6
}

/// Read the hosts and counters of a finished run and apply the output
/// checks: every datagram delivered (flood); every flow complete with
/// no frame lost to a queue (incast).
pub fn outcome(fabric: &Fabric, meta: &Meta) -> Outcome {
    let stats = fabric.stats();
    let mut out = Outcome { stats, ..Default::default() };
    match meta.workload {
        Workload::Flood => {
            let interval = SimDuration::millis(FLOOD_INTERVAL_MS).as_nanos();
            let mut sent = 0;
            let mut delivered = 0;
            let mut seen = vec![0u64; meta.hosts];
            for &h in fabric.host_nodes() {
                let host = fabric.host::<FloodHost>(h);
                sent += host.host.sent();
                delivered += host.host.rx_datagrams;
                for &(src, at) in &host.arrivals {
                    let i = host_index(src);
                    let scheduled = flood_start(i).as_nanos() + interval * seen[i];
                    seen[i] += 1;
                    out.completion_ns.push(at.as_nanos() - scheduled);
                }
            }
            out.ops = meta.hosts as u64 * FLOOD_DATAGRAMS;
            out.failed = out.ops - delivered.min(out.ops);
            if sent != out.ops {
                out.problems.push(format!("{sent} datagrams sent, {} scheduled", out.ops));
            }
        }
        Workload::Incast => {
            for &h in fabric.host_nodes() {
                let host = fabric.host::<FlowHost>(h);
                out.retransmits += host.retransmits;
                match host.fct {
                    Some(d) if host.completed() => out.completion_ns.push(d.as_nanos()),
                    _ => out.failed += 1,
                }
            }
            out.ops = meta.hosts as u64;
            let lost = stats.drops_queue_full + stats.drops_watchdog + stats.drops_link_down;
            if lost > 0 {
                out.problems.push(format!("{lost} frames lost in a lossless fabric"));
            }
        }
    }
    out.completion_ns.sort_unstable();
    out
}

/// Link-layer totals: drops, pauses, paused time, deepest queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkTotals {
    pub drops: u64,
    pub pause_events: u64,
    pub paused_ns: u64,
    pub peak_queue_bytes: u64,
    pub watchdog_fires: u64,
}

pub fn link_totals(fabric: &Fabric, now: SimTime) -> LinkTotals {
    let Fabric::Single(b) = fabric else {
        unreachable!("link totals are read off the single-threaded run")
    };
    let stats = b.net.stats();
    let mut t = LinkTotals {
        drops: stats.drops_queue_full + stats.drops_link_down + stats.drops_watchdog,
        watchdog_fires: stats.watchdog_fires,
        ..Default::default()
    };
    for (_, link) in b.net.links() {
        for dir in [Dir::AtoB, Dir::BtoA] {
            let s = link.stats(dir);
            t.pause_events += s.pause_events;
            t.paused_ns += link.paused_for(dir, now).as_nanos();
            t.peak_queue_bytes = t.peak_queue_bytes.max(s.peak_queue_bytes);
        }
    }
    t
}
