//! The batching contract of the event engine: draining whole
//! same-timestamp batches (`run_until` / `run_until_idle`) is
//! observably identical — at the trace level, byte for byte — to the
//! seed's one-event-at-a-time semantics, which `Network::step` still
//! implements. Same scenarios, two run strategies, equal
//! `CollectingTracer` logs and equal engine counters.
//!
//! Extends the `determinism.rs` pattern: where that suite proves
//! run-to-run stability of one strategy, this one proves equivalence
//! *across* strategies on the paper's Fig-1/Fig-2 topologies and on a
//! seeded random connected graph.

use arppath::ArpPathConfig;
use arppath_host::{pairings, Aimd, FlowConfig, FlowHost, PingConfig, PingHost, TrafficPattern};
use arppath_netsim::{
    CollectingTracer, NetworkStats, PauseWatchdog, QueuePolicy, SimDuration, SimTime,
};
use arppath_topo::{generic, BridgeKind, Fig1, Fig2, TopoBuilder};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// How to drive the network once it is built.
#[derive(Clone, Copy, Debug, PartialEq)]
enum RunStrategy {
    /// The batched engine loop (`run_until`).
    Batched,
    /// The seed semantics: one event per call, `step()` in a loop.
    SingleStep,
}

/// Drive `built` to `horizon` under `strategy` and return the trace
/// lines plus final engine counters.
fn drive(
    mut net: arppath_netsim::Network,
    sink: Arc<Mutex<CollectingTracer>>,
    horizon: SimTime,
    strategy: RunStrategy,
) -> (Vec<String>, NetworkStats) {
    match strategy {
        RunStrategy::Batched => net.run_until(horizon),
        RunStrategy::SingleStep => {
            // Pop exactly one event at a time, stopping at the horizon —
            // a re-implementation of the pre-batching run loop.
            while let Some(t) = net.next_event_time() {
                if t > horizon {
                    break;
                }
                net.step();
            }
        }
    }
    let lines = sink.lock().unwrap().lines.clone();
    (lines, net.stats())
}

/// A ping workload between two attachment points, traced from t=0.
fn ping_pair(
    t: &mut TopoBuilder,
    at_a: arppath_topo::BridgeIx,
    at_b: arppath_topo::BridgeIx,
    count: u64,
) -> Arc<Mutex<CollectingTracer>> {
    let prober = PingHost::new(
        "A",
        MacAddr::from_index(1, 1),
        Ipv4Addr::new(10, 0, 0, 1),
        1,
        PingConfig {
            target: Ipv4Addr::new(10, 0, 0, 2),
            start_at: SimDuration::millis(5),
            interval: SimDuration::millis(7),
            count,
            ..Default::default()
        },
    );
    let responder = PingHost::new(
        "B",
        MacAddr::from_index(1, 2),
        Ipv4Addr::new(10, 0, 0, 2),
        2,
        PingConfig::default(),
    );
    t.host(at_a, Box::new(prober));
    t.host(at_b, Box::new(responder));
    let sink = Arc::new(Mutex::new(CollectingTracer::default()));
    t.set_tracer(Box::new(sink.clone()));
    sink
}

fn run_fig1(strategy: RunStrategy) -> (Vec<String>, NetworkStats) {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let fig = Fig1::build(&mut t);
    let sink = ping_pair(&mut t, fig.host_s_bridge(), fig.host_d_bridge(), 10);
    let built = t.build();
    drive(built.net, sink, SimTime(SimDuration::millis(150).as_nanos()), strategy)
}

fn run_fig2(strategy: RunStrategy, with_failure: bool) -> (Vec<String>, NetworkStats) {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let fig = Fig2::build(&mut t);
    let sink = ping_pair(&mut t, fig.nic_a, fig.nic_b, 20);
    let mut built = t.build();
    if with_failure {
        let l = built.link_between(fig.nic_a, fig.nf[0]).unwrap();
        built.net.schedule_link_down(l, SimTime(SimDuration::millis(40).as_nanos()));
        built.net.schedule_link_up(l, SimTime(SimDuration::millis(90).as_nanos()));
    }
    drive(built.net, sink, SimTime(SimDuration::millis(250).as_nanos()), strategy)
}

fn run_random(strategy: RunStrategy, seed: u64) -> (Vec<String>, NetworkStats) {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let bridges = generic::random_connected(&mut t, 12, 8, seed);
    let sink = ping_pair(&mut t, bridges[0], *bridges.last().unwrap(), 5);
    let built = t.build();
    drive(built.net, sink, SimTime(SimDuration::millis(120).as_nanos()), strategy)
}

/// A PFC incast on an unjittered fat-tree. Every cable has the same
/// delay and every flow starts at once, so frames keep arriving at the
/// exact instant a transmitter finishes serializing, and pause frames
/// land in those same batches — the ties whose order both run
/// strategies must replay identically.
fn run_pfc_ties(strategy: RunStrategy) -> (Vec<String>, NetworkStats) {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let ft = generic::fat_tree(&mut t, 4);
    let n = ft.host_capacity(2);
    let ip = |i: usize| Ipv4Addr::new(10, 0, 0, (i + 1) as u8);
    let pattern = TrafficPattern::Hotspot { hot_receivers: 2 };
    for (i, &dst) in pairings(n, pattern, 7).iter().enumerate() {
        let cfg = FlowConfig {
            target: Some(ip(dst)),
            start_at: SimDuration::millis(5),
            segments: 16,
            segment_len: 700,
            rto: SimDuration::millis(5),
            ..FlowConfig::default()
        };
        let mac = MacAddr::from_index(1, (i + 1) as u32);
        let host =
            FlowHost::with_controller(format!("h{i}"), mac, ip(i), cfg, Box::new(Aimd::new(2, 64)));
        t.host(ft.edge_of_host(i, 2), Box::new(host));
    }
    t.set_queue_policy(QueuePolicy::pfc(2 * 1024));
    t.set_watchdog(PauseWatchdog::force_resume(SimDuration::micros(50)));
    let sink = Arc::new(Mutex::new(CollectingTracer::default()));
    t.set_tracer(Box::new(sink.clone()));
    let built = t.build();
    drive(built.net, sink, SimTime(SimDuration::millis(40).as_nanos()), strategy)
}

#[test]
fn fig1_batched_equals_single_step() {
    let (batched, stats_b) = run_fig1(RunStrategy::Batched);
    let (stepped, stats_s) = run_fig1(RunStrategy::SingleStep);
    assert!(!batched.is_empty(), "scenario must produce traffic");
    assert_eq!(stats_b, stats_s, "engine counters diverge");
    assert_eq!(batched, stepped, "Fig-1 trace divergence: batching reordered events");
}

#[test]
fn fig2_batched_equals_single_step() {
    let (batched, stats_b) = run_fig2(RunStrategy::Batched, false);
    let (stepped, stats_s) = run_fig2(RunStrategy::SingleStep, false);
    assert!(!batched.is_empty());
    assert_eq!(stats_b, stats_s);
    assert_eq!(batched, stepped, "Fig-2 trace divergence: batching reordered events");
}

#[test]
fn fig2_failure_scenario_batched_equals_single_step() {
    // Link flaps force LinkAdmin events, in-flight losses, and repair
    // floods — the densest same-timestamp batches the engine sees.
    let (batched, stats_b) = run_fig2(RunStrategy::Batched, true);
    let (stepped, stats_s) = run_fig2(RunStrategy::SingleStep, true);
    assert_eq!(stats_b, stats_s);
    assert_eq!(batched, stepped, "failure-path trace divergence under batching");
}

#[test]
fn random_graphs_batched_equals_single_step() {
    for seed in [3, 42, 4096] {
        let (batched, stats_b) = run_random(RunStrategy::Batched, seed);
        let (stepped, stats_s) = run_random(RunStrategy::SingleStep, seed);
        assert!(!batched.is_empty(), "seed {seed}: scenario must produce traffic");
        assert_eq!(stats_b, stats_s, "seed {seed}: counters diverge");
        assert_eq!(batched, stepped, "seed {seed}: trace divergence under batching");
    }
}

#[test]
fn pfc_ties_batched_equals_single_step() {
    let (batched, stats_b) = run_pfc_ties(RunStrategy::Batched);
    let (stepped, stats_s) = run_pfc_ties(RunStrategy::SingleStep);
    assert!(stats_b.watchdog_fires > 0, "the incast must hold pauses past the watchdog");
    assert_eq!(stats_b, stats_s, "PFC tie scenario: counters diverge");
    assert_eq!(batched, stepped, "PFC tie scenario: trace divergence under batching");
}

#[test]
fn batched_runs_are_reproducible() {
    // Batching must not sacrifice the determinism contract: identical
    // batched runs stay byte-identical too.
    let (a, _) = run_fig2(RunStrategy::Batched, true);
    let (b, _) = run_fig2(RunStrategy::Batched, true);
    assert_eq!(a, b);
}
