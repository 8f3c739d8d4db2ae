//! Host-side device wrappers: one that notes when each datagram arrives
//! (the flood workloads' per-operation completion time) and one that
//! clocks the host layer from outside for the traced run.

use arppath_host::TrafficHost;
use arppath_netsim::{Ctx, Device, PortNo, SimTime, TimerToken};
use arppath_wire::{EthernetFrame, Payload};
use std::any::Any;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// A [`TrafficHost`] that records the source and arrival instant of
/// every datagram it accepts. Downcast targets this type, not the host.
pub struct FloodHost {
    pub host: TrafficHost,
    pub arrivals: Vec<(Ipv4Addr, SimTime)>,
}

impl FloodHost {
    pub fn new(host: TrafficHost) -> Self {
        FloodHost { host, arrivals: Vec::new() }
    }
}

impl Device for FloodHost {
    fn name(&self) -> &str {
        self.host.name()
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.host.on_start(ctx);
    }

    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        let src = match &frame.payload {
            Payload::Ipv4(p) => Some(p.src),
            _ => None,
        };
        let before = self.host.rx_datagrams;
        self.host.on_frame(port, frame, ctx);
        if self.host.rx_datagrams != before {
            if let Some(src) = src {
                self.arrivals.push((src, ctx.now()));
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        self.host.on_timer(token, ctx);
    }

    fn on_link_status(&mut self, port: PortNo, up: bool, ctx: &mut Ctx) {
        self.host.on_link_status(port, up, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Host time and callback count, shared by every [`Timed`] host of a run.
#[derive(Default)]
pub struct HostClock {
    pub ns: AtomicU64,
    pub calls: AtomicU64,
}

/// Clocks every callback of the wrapped device into a [`HostClock`].
/// `as_any` forwards to the wrapped device, so the network's typed
/// accessors see the host as if it were unwrapped.
pub struct Timed<D: Device> {
    inner: D,
    clock: Arc<HostClock>,
}

impl<D: Device> Timed<D> {
    pub fn new(inner: D, clock: Arc<HostClock>) -> Self {
        Timed { inner, clock }
    }

    fn timed(&mut self, f: impl FnOnce(&mut D)) {
        let started = Instant::now();
        f(&mut self.inner);
        let ns = started.elapsed().as_nanos() as u64;
        self.clock.ns.fetch_add(ns, Relaxed);
        self.clock.calls.fetch_add(1, Relaxed);
    }
}

impl<D: Device> Device for Timed<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.timed(|d| d.on_start(ctx));
    }

    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        self.timed(|d| d.on_frame(port, frame, ctx));
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        self.timed(|d| d.on_timer(token, ctx));
    }

    fn on_link_status(&mut self, port: PortNo, up: bool, ctx: &mut Ctx) {
        self.timed(|d| d.on_link_status(port, up, ctx));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
