//! Path-table entries and their two-state FSM.

use arppath_netsim::PortNo;

/// The state of a path-table entry (paper §2.1.1–§2.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryState {
    /// Set by the first copy of a path-discovering broadcast (ARP
    /// Request / PathRequest). While locked, copies of the flood
    /// arriving on other ports are discarded — they lost the race.
    Locked,
    /// Confirmed by a path-establishing unicast (ARP Reply / PathReply)
    /// travelling the locked chain; long-lived, refreshed by use.
    Learnt,
}

/// One entry of the path table: where frames *toward* `mac` leave this
/// bridge — equivalently, the port on which `mac`'s winning frame
/// arrived. Port and state are all a forwarding decision reads (repair
/// waves resolve their races in the bridge's seen-waves table), so the
/// entry is 16 bytes and a `MacAddr → PathEntry` table bucket is one
/// cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEntry {
    /// Port toward the station.
    pub port: PortNo,
    /// Lock/learnt state.
    pub state: EntryState,
}

impl PathEntry {
    /// A fresh lock, set by the first copy of a discovery or repair
    /// flood.
    pub fn locked(port: PortNo) -> Self {
        PathEntry { port, state: EntryState::Locked }
    }

    /// A confirmed entry.
    pub fn learnt(port: PortNo) -> Self {
        PathEntry { port, state: EntryState::Learnt }
    }

    /// True while in the locked (race-window) state.
    pub fn is_locked(&self) -> bool {
        self.state == EntryState::Locked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_switch::DLeftTable;
    use arppath_wire::MacAddr;

    #[test]
    fn constructors_set_states() {
        assert!(PathEntry::locked(PortNo(1)).is_locked());
        assert!(!PathEntry::learnt(PortNo(1)).is_locked());
    }

    #[test]
    fn path_table_bucket_is_one_cache_line() {
        // A probe of one way reads one bucket: two MAC keys, two
        // expiries and two entries must fill exactly one aligned line.
        assert_eq!(std::mem::size_of::<PathEntry>(), 16);
        let layout = DLeftTable::<MacAddr, PathEntry>::BUCKET_LAYOUT;
        assert_eq!(layout.size(), 64);
        assert_eq!(layout.align(), 64);
    }
}
