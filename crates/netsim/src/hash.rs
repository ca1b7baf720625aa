//! A fixed hasher for the network's lookup-only maps.
//!
//! The host table ([`crate::net::Network`]) is queried several times per
//! packet and the socket index ([`crate::stack::HostStack`]) on every
//! TCP operation. Neither is ever iterated, so no hash order reaches an
//! output. Their keys come from the simulation: world hosts, the fake
//! endpoints a sandbox spawns for its guest's destinations, and socket
//! ids counted up per host. The guests are binaries the study generates
//! itself, and a key set built to collide could only slow a lookup,
//! never change its answer, so SipHash's per-process keys buy nothing
//! here. A multiply and a rotate per key do the job.

use std::hash::{BuildHasherDefault, Hasher};

/// Builds [`MulRotHasher`]s: every map built with it hashes alike, in
/// every process.
pub(crate) type FixedState = BuildHasherDefault<MulRotHasher>;

/// Odd 64-bit multiplier with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hashing of integer keys: each word written is added
/// to the state and the sum multiplied by `K`. The product's low bits
/// depend only on the key's low bits, so `finish` rotates its mixed high
/// bits down to where the table takes its bucket index.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulRotHasher(u64);

impl Hasher for MulRotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;
    use std::net::Ipv4Addr;

    /// Addresses that share their leading octets (one /22) and socket
    /// ids counting up from 1 land in distinct low bits, where a table
    /// takes its bucket index.
    #[test]
    fn consecutive_keys_spread_over_the_low_bits() {
        let low10 = |h: u64| h & 0x3ff;
        let ips: BTreeSet<u64> = (0..1024u32)
            .map(|i| low10(FixedState::default().hash_one(Ipv4Addr::from(0x0a01_0000 | i))))
            .collect();
        let socks: BTreeSet<u64> = (1..=1024u64)
            .map(|i| low10(FixedState::default().hash_one(i)))
            .collect();
        // A uniform hash fills ~63% of 1024 buckets with 1024 keys.
        assert!(ips.len() > 500, "{} of 1024", ips.len());
        assert!(socks.len() > 500, "{} of 1024", socks.len());
    }
}
