//! The pipeline's sub-seed streams: one function per stream, and the
//! inventory the seed-collision proptest audits.
//!
//! Each stream derives from the study seed through [`sub_seed`] under a
//! domain of its own, so no two streams share a generator. The domain
//! constants live in the workspace-wide `0x5eed_…` family whose
//! uniqueness `malnet-lint` checks across crates. The code that draws
//! a stream and [`seed_inventory`] call the same function.

use malnet_prng::{fnv1a, sub_seed};

use malnet_botgen::world::{World, PROBE_PORTS};
use malnet_intel::engines::engine_seed;
use malnet_intel::feeds::vendor_addr_seed;

use super::epochs::{day_plans, study_bound};
use super::{probe_config, PipelineOpts};
use crate::prober;

// Each stream's domain, used only by its function below. The contained
// net's is zero by historical accident (the first stream predates the
// domain registry) and pinned forever: changing it would shift every
// published dataset byte-for-byte.
const DOMAIN_CONTAINED_NET: u64 = 0;
const DOMAIN_CONTAINED_SANDBOX: u64 = 0x5eed_0000_0000_0001;
const DOMAIN_RESTRICTED: u64 = 0x5eed_0000_0000_0002;
const DOMAIN_RESTRICTED_NET: u64 = 0x5eed_0000_0000_0003;
const DOMAIN_WORLD_NET: u64 = 0x5eed_0000_0000_0006;
const DOMAIN_LIVENESS_NET: u64 = 0x5eed_0000_0000_0007;

/// Seed of sample `sample_id`'s contained-run network on `day`.
pub(super) fn contained_net_seed(master: u64, day: u32, sample_id: usize) -> u64 {
    sub_seed(master ^ DOMAIN_CONTAINED_NET, day, sample_id as u64)
}

/// Seed of sample `sample_id`'s contained sandbox (emulator jitter,
/// handshaker) on `day`.
pub(super) fn contained_sandbox_seed(master: u64, day: u32, sample_id: usize) -> u64 {
    sub_seed(master ^ DOMAIN_CONTAINED_SANDBOX, day, sample_id as u64)
}

/// Seed of sample `sample_id`'s restricted sandbox on `day`.
pub(super) fn restricted_sandbox_seed(master: u64, day: u32, sample_id: usize) -> u64 {
    sub_seed(master ^ DOMAIN_RESTRICTED, day, sample_id as u64)
}

/// Seed of sample `sample_id`'s restricted-session network on `day`: a
/// detached world network, with the epoch day net's topology and its
/// own RNG and responsiveness chains.
pub(super) fn restricted_net_seed(master: u64, day: u32, sample_id: usize) -> u64 {
    sub_seed(master ^ DOMAIN_RESTRICTED_NET, day, sample_id as u64)
}

/// Seed of the epochs' world network for `day`, which hosts B1's DNS
/// resolutions and day-0 probes. Keyed by day only, so every shard
/// layout derives the identical network.
pub(super) fn world_net_seed(master: u64, day: u32) -> u64 {
    sub_seed(master ^ DOMAIN_WORLD_NET, day, 0)
}

/// Seed of the liveness oracle's network for `addr` on `day` (the
/// address hashes in through [`fnv1a`]).
pub(super) fn liveness_net_seed(master: u64, day: u32, addr: &str) -> u64 {
    sub_seed(master ^ DOMAIN_LIVENESS_NET, day, fnv1a(addr.as_bytes()))
}

/// Every sub-seed stream a study over `(world, opts)` can draw, each
/// labelled by its coordinates: the four per-`(day, sample)` streams,
/// the per-sample AV-consensus stream, the per-day world networks, the
/// per-`(day, address)` liveness-oracle networks, the per-address
/// vendor-feed streams and the D-PC2 prober's streams — each round's
/// network, and an engagement sandbox for every listener index below
/// the round's target count (subnets × hosts per subnet × ports), which
/// bounds its listeners.
///
/// Input to the `sub_seed_domains_never_collide` proptest: two entries
/// with different labels must never share a seed — the domain-
/// separation property the epoch refactor leans on (a collision would
/// let one stream's draws echo into another, silently correlating
/// "independent" runs).
pub fn seed_inventory(world: &World, opts: &PipelineOpts) -> Vec<(String, u64)> {
    let seed = opts.seed;
    let mut out = Vec::new();
    for plan in &day_plans(world, opts) {
        let day = plan.day;
        out.push((format!("world_net/{day}"), world_net_seed(seed, day)));
        for &id in &plan.batch {
            let streams = [
                ("contained_net", contained_net_seed(seed, day, id)),
                ("contained_sandbox", contained_sandbox_seed(seed, day, id)),
                ("restricted", restricted_sandbox_seed(seed, day, id)),
                ("restricted_net", restricted_net_seed(seed, day, id)),
                ("av_engines", engine_seed(seed, day, id as u64)),
            ];
            out.extend(streams.map(|(name, s)| (format!("{name}/{day}/{id}"), s)));
        }
    }
    // Every address form a study can register or track: the C2s'
    // carried endpoints (IP or domain) and their host addresses.
    let mut addrs: Vec<String> = Vec::new();
    for c2 in &world.c2s {
        addrs.push(c2.endpoint.to_string());
        addrs.push(c2.host_ip.to_string());
    }
    addrs.sort_unstable();
    addrs.dedup();
    let bound = study_bound(world, opts);
    for addr in &addrs {
        out.push((format!("vendor_addr/{addr}"), vendor_addr_seed(seed, addr)));
        for day in 0..=bound {
            out.push((
                format!("liveness_net/{day}/{addr}"),
                liveness_net_seed(seed, day, addr),
            ));
        }
    }
    if opts.run_probing {
        let cfg = probe_config(world, opts);
        let targets = world.probe_subnets.len() * cfg.hosts_per_subnet as usize * PROBE_PORTS.len();
        for round in 0..cfg.rounds {
            let day = prober::round_day(world, &cfg, round);
            out.push((
                format!("round_net/{round}"),
                prober::round_net_seed(seed, day, round),
            ));
            for i in 0..targets {
                out.push((
                    format!("engage/{round}/{i}"),
                    prober::engage_seed(seed, round, i),
                ));
            }
        }
    }
    out
}
