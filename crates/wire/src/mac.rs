//! Ethernet MAC addresses.

use std::fmt;

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-zero address, used as a placeholder by the simulator.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Deterministically derive a locally-administered unicast MAC from a
    /// host identifier. The simulator gives every host a stable MAC this way.
    pub fn from_host_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        // 0x02 prefix = locally administered, unicast.
        MacAddr([0x02, 0x4d, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_colon_hex() {
        let m = MacAddr([0x02, 0x4d, 0x00, 0x00, 0x01, 0xff]);
        assert_eq!(m.to_string(), "02:4d:00:00:01:ff");
    }

    #[test]
    fn host_id_macs_are_stable_and_unique() {
        let a = MacAddr::from_host_id(7);
        let b = MacAddr::from_host_id(7);
        let c = MacAddr::from_host_id(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // A unicast address: the group bit of the first octet is clear.
        assert_eq!(a.0[0] & 0x01, 0);
    }
}
