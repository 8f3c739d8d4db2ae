//! Instruments of the traced run, all driven from outside the crates
//! they measure: a tracer that classifies every delivered frame and
//! records each bridge's inputs; a replay of those inputs that times the
//! bridge logic and its device adapter apart; a wire-codec timing; and a
//! streamed digest of the merged delivery trace.

use arppath::{ArpPathBridge, ArpPathConfig};
use arppath_netsim::pfc::{FLOW_CONTROL_ETHERTYPE, PAUSE_DST};
use arppath_netsim::{
    Command, Ctx, DeliveryRecord, DeliveryTracer, Device, NodeId, PortNo, SimTime, TimerToken,
    TraceEvent, Tracer,
};
use arppath_switch::{IdealSwitch, LogicEnv, SwitchLogic};
use arppath_wire::{EthernetFrame, MacAddr, PathCtlKind, Payload};
use bytes::Bytes;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every n-th delivered frame is kept for the wire-codec timing.
const WIRE_STRIDE: u64 = 8;

/// Delivered frames by class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Classes {
    pub arp_flood: u64,
    pub arp_unicast: u64,
    pub pathctl: u64,
    pub data: u64,
    /// PFC pause/resume frames and pause-watchdog markers.
    pub pfc: u64,
    pub other: u64,
}

impl Classes {
    pub fn total(&self) -> u64 {
        self.arp_flood + self.arp_unicast + self.pathctl + self.data + self.pfc + self.other
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    ArpFlood,
    ArpUnicast,
    PathCtl,
    Data,
    Pfc,
    Other,
}

/// Link-local flow control: real pause/resume frames, which the engine
/// consumes before any device sees them, and the watchdog markers it
/// synthesizes into the trace.
fn is_flow_control(frame: &EthernetFrame) -> bool {
    frame.dst == PAUSE_DST && frame.payload.ethertype() == FLOW_CONTROL_ETHERTYPE
}

fn classify(frame: &EthernetFrame) -> Class {
    if is_flow_control(frame) {
        return Class::Pfc;
    }
    match &frame.payload {
        Payload::Arp(_) if frame.dst.is_broadcast() => Class::ArpFlood,
        Payload::Arp(_) => Class::ArpUnicast,
        Payload::PathCtl(_) => Class::PathCtl,
        Payload::Ipv4(_) => Class::Data,
        _ => Class::Other,
    }
}

/// A flood copy subject to the first-copy-wins race.
fn races(frame: &EthernetFrame, class: Class) -> bool {
    class == Class::ArpFlood
        || matches!(&frame.payload, Payload::PathCtl(c) if c.kind == PathCtlKind::PathRequest)
}

/// One bridge callback, as the engine made it.
pub struct Input {
    pub at: SimTime,
    pub bridge: u32,
    pub what: What,
}

pub enum What {
    Frame(PortNo, EthernetFrame),
    Timer(TimerToken),
}

/// What the [`Recorder`] saw over one run.
#[derive(Default)]
pub struct Recorded {
    pub classes: Classes,
    /// Race-subject flood copies delivered to bridges.
    pub bridge_race_copies: u64,
    /// Frames bridges handed to links (engine-synthesized ones excluded).
    pub bridge_sent: u64,
    /// Flow-control frames the engine sent out of bridge ports.
    pub bridge_synthesized: u64,
    pub link_changes: u64,
    /// Bridge inputs in the order the engine dispatched them.
    pub inputs: Vec<Input>,
    /// A strided sample of delivered frames.
    pub wire_sample: Vec<EthernetFrame>,
    pub delivery: Option<DeliveryTracer>,
    delivered: u64,
}

/// A tracer that classifies deliveries and, optionally, records bridge
/// inputs and the canonical delivery trace. Its data is handed over when
/// the engine drops it (see [`Recorder::new`]).
pub struct Recorder {
    /// Bridges are nodes `0..bridges` (the topology builder numbers them
    /// first); `0` records no bridge inputs.
    bridges: usize,
    data: Recorded,
    out: Arc<Mutex<Option<Recorded>>>,
}

impl Recorder {
    /// A recorder and the slot its data lands in once the engine drops
    /// it (`drop(net.take_tracer())`), so no lock is taken per event.
    pub fn new(bridges: usize, delivery: bool) -> (Recorder, Arc<Mutex<Option<Recorded>>>) {
        let out = Arc::new(Mutex::new(None));
        let data = Recorded { delivery: delivery.then(DeliveryTracer::new), ..Default::default() };
        (Recorder { bridges, data, out: out.clone() }, out)
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        *self.out.lock().expect("recorder slot") = Some(std::mem::take(&mut self.data));
    }
}

impl Tracer for Recorder {
    fn record(&mut self, now: SimTime, event: TraceEvent<'_>) {
        let d = &mut self.data;
        match event {
            TraceEvent::Delivered { node, port, frame } => {
                if let Some(t) = d.delivery.as_mut() {
                    t.record(now, TraceEvent::Delivered { node, port, frame });
                }
                let class = classify(frame);
                match class {
                    Class::ArpFlood => d.classes.arp_flood += 1,
                    Class::ArpUnicast => d.classes.arp_unicast += 1,
                    Class::PathCtl => d.classes.pathctl += 1,
                    Class::Data => d.classes.data += 1,
                    Class::Pfc => d.classes.pfc += 1,
                    Class::Other => d.classes.other += 1,
                }
                d.delivered += 1;
                if d.delivered.is_multiple_of(WIRE_STRIDE) {
                    d.wire_sample.push(frame.clone());
                }
                if node.0 < self.bridges && class != Class::Pfc {
                    if races(frame, class) {
                        d.bridge_race_copies += 1;
                    }
                    d.inputs.push(Input {
                        at: now,
                        bridge: node.0 as u32,
                        what: What::Frame(port, frame.clone()),
                    });
                }
            }
            TraceEvent::Sent { node, frame, .. } if node.0 < self.bridges => {
                if is_flow_control(frame) {
                    d.bridge_synthesized += 1;
                } else {
                    d.bridge_sent += 1;
                }
            }
            TraceEvent::TimerFired { node, token } if node.0 < self.bridges => {
                d.inputs.push(Input { at: now, bridge: node.0 as u32, what: What::Timer(token) });
            }
            TraceEvent::LinkStatus { .. } => d.link_changes += 1,
            _ => {}
        }
    }
}

/// FNV-1a over the canonical trace lines, newline-terminated.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the merged delivery trace a single-threaded run recorded,
/// rendered one line at a time rather than materialized.
pub fn digest_records(mut records: Vec<DeliveryRecord>) -> u64 {
    records.sort_unstable();
    records.iter().fold(FNV_OFFSET, |h, r| fnv1a(fnv1a(h, r.render().as_bytes()), b"\n"))
}

/// Digest of an already rendered merged delivery trace.
pub fn digest_lines(lines: &[String]) -> u64 {
    lines.iter().fold(FNV_OFFSET, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"))
}

/// Identity of one bridge, enough to build a fresh copy of it.
pub struct BridgeSpec {
    pub name: String,
    pub mac: MacAddr,
    pub ports: usize,
}

/// Host nanoseconds and output counts of the bridge replay (medians over
/// repetitions for the times).
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Callbacks replayed: each bridge's start plus every recorded input.
    pub calls: u64,
    /// `SwitchLogic` callbacks with a fresh `LogicEnv` each.
    pub logic_ns: u64,
    /// The same through `IdealSwitch` as a `Device` with a `Ctx`.
    pub adapter_ns: u64,
    /// Cloning the recorded frames alone (both passes pay it).
    pub clone_ns: u64,
    /// Frames the bare logic transmitted.
    pub outputs: u64,
    /// Timers the bare logic requested.
    pub timers: u64,
    /// Commands the adapter pass issued (sends plus timers).
    pub adapter_commands: u64,
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Replay `inputs` into fresh bridges, `reps` times per pass.
pub fn replay(
    specs: &[BridgeSpec],
    config: ArpPathConfig,
    inputs: &[Input],
    reps: usize,
) -> Replay {
    let fresh = || -> Vec<ArpPathBridge> {
        specs.iter().map(|s| ArpPathBridge::new(s.name.clone(), s.mac, s.ports, config)).collect()
    };
    let ports_up: Vec<Vec<bool>> = specs.iter().map(|s| vec![true; s.ports]).collect();
    let mut r = Replay { calls: (specs.len() + inputs.len()) as u64, ..Default::default() };
    let (mut logic, mut adapter, mut clone) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        // Bare decision plane.
        let mut bridges = fresh();
        let (mut outputs, mut timers) = (0u64, 0u64);
        let started = Instant::now();
        for (b, up) in bridges.iter_mut().zip(&ports_up) {
            let mut env = LogicEnv::new(SimTime::ZERO, up, up.len());
            b.on_start(&mut env);
            outputs += env.outputs.len() as u64;
            timers += env.timers.len() as u64;
        }
        for input in inputs {
            let i = input.bridge as usize;
            let up = &ports_up[i];
            let mut env = LogicEnv::new(input.at, up, up.len());
            match &input.what {
                What::Frame(port, frame) => {
                    bridges[i].on_frame(*port, frame.clone(), &mut env);
                }
                What::Timer(token) => bridges[i].on_timer(*token, &mut env),
            }
            outputs += env.outputs.len() as u64;
            timers += env.timers.len() as u64;
        }
        logic.push(started.elapsed().as_nanos() as u64);
        drop(bridges);
        r.outputs = outputs;
        r.timers = timers;

        // The same decisions through the device adapter.
        let mut devices: Vec<IdealSwitch<ArpPathBridge>> =
            fresh().into_iter().map(IdealSwitch::new).collect();
        let mut commands: Vec<Command> = Vec::new();
        let mut issued = 0u64;
        let started = Instant::now();
        for (i, (d, up)) in devices.iter_mut().zip(&ports_up).enumerate() {
            let mut ctx = Ctx::new(SimTime::ZERO, NodeId(i), up, &mut commands);
            d.on_start(&mut ctx);
            issued += commands.len() as u64;
            commands.clear();
        }
        for input in inputs {
            let i = input.bridge as usize;
            let mut ctx = Ctx::new(input.at, NodeId(i), &ports_up[i], &mut commands);
            match &input.what {
                What::Frame(port, frame) => devices[i].on_frame(*port, frame.clone(), &mut ctx),
                What::Timer(token) => devices[i].on_timer(*token, &mut ctx),
            }
            issued += commands.len() as u64;
            commands.clear();
        }
        adapter.push(started.elapsed().as_nanos() as u64);
        drop(devices);
        r.adapter_commands = issued;

        let started = Instant::now();
        for input in inputs {
            if let What::Frame(_, frame) = &input.what {
                black_box(frame.clone());
            }
        }
        clone.push(started.elapsed().as_nanos() as u64);
    }
    r.logic_ns = median(logic);
    r.adapter_ns = median(adapter);
    r.clone_ns = median(clone);
    r
}

/// Host ns to emit a frame to bytes and re-parse it zero-copy — the
/// path a frame takes across a shard cut — median over `reps` passes.
pub fn wire_ns_per_frame(frames: &[EthernetFrame], reps: usize) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let mut passes = Vec::new();
    for _ in 0..reps {
        let started = Instant::now();
        for f in frames {
            let bytes = Bytes::from(f.to_bytes());
            black_box(EthernetFrame::parse_bytes(&bytes).expect("emitted frame re-parses"));
        }
        passes.push(started.elapsed().as_nanos() as u64);
    }
    median(passes) as f64 / frames.len() as f64
}
