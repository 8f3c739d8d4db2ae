//! Heap-allocation accounting for the flood race through the device
//! adapter.
//!
//! Nearly every frame a large fabric delivers is an ARP flood copy, and
//! nearly every copy loses the first-copy-wins race: the bridge drops
//! it. That path — engine context in, [`IdealSwitch`] adapter, bridge
//! decision, nothing out — must not touch the allocator once the
//! adapter's reused buffers are warm. A counting global allocator
//! asserts it, counting per thread so concurrently running tests cannot
//! leak into the measurement.

use arppath::{ArpPathBridge, ArpPathConfig};
use arppath_netsim::{Command, Ctx, Device, NodeId, PortNo, SimTime};
use arppath_switch::IdealSwitch;
use arppath_wire::{ArpPacket, EthernetFrame, MacAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

/// Passes everything through to the system allocator, counting the
/// calling thread's allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local side effect
// that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Host `i`'s ARP request for host `i + 1`: a broadcast flood copy.
fn arp_request(i: u32) -> EthernetFrame {
    let mac = MacAddr::from_index(1, i);
    let req = ArpPacket::request(mac, Ipv4Addr::new(10, 0, 0, i as u8), Ipv4Addr::new(10, 0, 1, 0));
    EthernetFrame::arp_request(mac, req)
}

#[test]
fn race_losing_flood_copy_through_the_adapter_is_allocation_free() {
    const PORTS: usize = 8;
    const HOSTS: u32 = 64;
    let config = ArpPathConfig::default().autosize_for_stations(HOSTS as usize);
    let bridge = ArpPathBridge::new("sw", MacAddr::from_index(9, 9), PORTS, config);
    let mut sw = IdealSwitch::new(bridge);
    let ports_up = [true; PORTS];
    let mut commands: Vec<Command> = Vec::new();
    sw.on_start(&mut Ctx::new(SimTime::ZERO, NodeId(0), &ports_up, &mut commands));
    commands.clear();
    let mut call = |sw: &mut IdealSwitch<ArpPathBridge>, port: usize, frame: EthernetFrame| {
        let mut ctx = Ctx::new(SimTime(1_000), NodeId(0), &ports_up, &mut commands);
        sw.on_frame(PortNo(port), frame, &mut ctx);
        let sent = commands.len();
        commands.clear();
        sent
    };

    // Warm-up: every host's first copy wins on port 0 and floods out
    // of the other seven ports, and one rival copy per host loses —
    // the adapter's buffers reach their largest fan-out.
    for i in 1..=HOSTS {
        assert_eq!(call(&mut sw, 0, arp_request(i)), PORTS - 1, "first copy floods");
        assert_eq!(call(&mut sw, 1, arp_request(i)), 0, "rival copy loses");
    }

    // Measured: rival copies of every host's flood on the remaining
    // ports. The frames are built beforehand; dropping them frees.
    let copies: Vec<(usize, EthernetFrame)> =
        (2..PORTS).flat_map(|p| (1..=HOSTS).map(move |i| (p, arp_request(i)))).collect();
    let before = alloc_count();
    for (port, frame) in copies {
        assert_eq!(call(&mut sw, port, frame), 0, "rival copy loses");
    }
    let allocs = alloc_count() - before;
    let race_drops = sw.logic().ap_counters().race_drops;
    assert_eq!(race_drops, u64::from(HOSTS) * (PORTS as u64 - 1));
    assert_eq!(allocs, 0, "race-losing flood copies made {allocs} heap allocations");
}
