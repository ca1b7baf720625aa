//! Phase B2: restricted DDoS-observation sessions (paper §2.5). A
//! sample with a live C2 runs again with egress only to its live C2s
//! and the world resolver, and its commands are extracted from the
//! session's capture.

use std::net::Ipv4Addr;

use malnet_telemetry::Telemetry;

use malnet_botgen::world::{World, WORLD_RESOLVER};
use malnet_netsim::time::SimDuration;
use malnet_protocols::Family;
use malnet_sandbox::process::DEFAULT_FD_CAP;
use malnet_sandbox::{AnalysisMode, EmuFaults, Sandbox, SandboxConfig};
use malnet_wire::pcap;

use super::epochs::apply_world_chaos;
use super::{seeds, PipelineOpts, BOT_IP};
use crate::ddos;

/// Instructions a restricted session may retire.
const RESTRICTED_BUDGET: u64 = 2_000_000_000;

/// One sample's pending restricted DDoS-observation session: emitted by
/// the B1 merge and consumed by the phase-B worker pool
/// ([`run_restricted_batch`]).
#[derive(Debug, Clone)]
pub(super) struct RestrictedJob {
    /// The sample's id in `world.samples`.
    pub(super) sample_id: usize,
    /// The sample's C2s that answered the day-0 liveness probe:
    /// `(addr, ip, family)` in candidate order.
    pub(super) live: Vec<(String, Ipv4Addr, Option<Family>)>,
}

/// Everything one restricted session produced, as plain data the epoch
/// merges in sample-id order (phase B3).
pub(super) struct RestrictedOutcome {
    /// The sample's id in `world.samples`.
    pub(super) sample_id: usize,
    /// Instructions the restricted run retired (feeds the reduce's
    /// heartbeat reconstruction).
    pub(super) instructions: u64,
    /// Per live C2: `(addr, ip, family, extracted commands)` in the
    /// job's candidate order.
    pub(super) evidence: Vec<(
        String,
        Ipv4Addr,
        Option<Family>,
        Vec<ddos::ExtractedCommand>,
    )>,
}

/// The sandbox of sample `sample_id`'s restricted session on `day`: the
/// one place the session's settings are chosen.
///
/// It runs against its **own detached network**
/// ([`World::network_for_day_detached`], from the session's own
/// sub-seed): same topology and day as the epoch's day network, but
/// private RNG state and private C2 responsiveness chains, so one
/// session's traffic can never perturb another's — the property that
/// makes the fan-out byte-deterministic (DESIGN.md §8). The day's fault
/// plan is applied to it, so chaos runs see the outage windows every
/// other view of the day sees. Egress is allowed to `live_ips` and the
/// world resolver only, the budget is two billion instructions, and the
/// kernel is honest: emulator faults target the contained run only.
pub fn restricted_sandbox(
    world: &World,
    opts: &PipelineOpts,
    day: u32,
    sample_id: usize,
    live_ips: impl IntoIterator<Item = Ipv4Addr>,
    tel: &Telemetry,
) -> Sandbox {
    let (mut net, _logs) =
        world.network_for_day_detached(day, seeds::restricted_net_seed(opts.seed, day, sample_id));
    net.set_telemetry(tel);
    apply_world_chaos(&opts.faults, world, &mut net, day, tel);
    let allowed = live_ips.into_iter().chain([WORLD_RESOLVER]).collect();
    Sandbox::new(
        net,
        SandboxConfig {
            bot_ip: BOT_IP,
            mode: AnalysisMode::Restricted { allowed },
            handshaker_threshold: None,
            instruction_budget: RESTRICTED_BUDGET,
            seed: seeds::restricted_sandbox_seed(opts.seed, day, sample_id),
            block_engine: opts.block_engine,
            fd_cap: DEFAULT_FD_CAP,
            emu_faults: EmuFaults::none(),
        },
    )
    .with_telemetry(tel)
}

/// Phase B2: run every pending restricted session, returning outcomes in
/// job (= sample-id) order. Each session runs in its
/// [`restricted_sandbox`], and one walk of its capture serves all of
/// its live C2s.
pub(super) fn run_restricted_batch(
    world: &World,
    opts: &PipelineOpts,
    day: u32,
    jobs: &[RestrictedJob],
    tel: &Telemetry,
) -> Vec<RestrictedOutcome> {
    // Workers re-attach their spans under the epoch's phase-B span.
    let parent = tel.current_span();
    crate::par::fan_out(jobs.len(), opts.parallelism, |i| {
        let job = &jobs[i];
        let session = {
            let _span = tel.span_under("pipeline.restricted_session", &parent);
            tel.add("pipeline.restricted_sessions", 1);
            let live_ips = job.live.iter().map(|(_, ip, _)| *ip);
            let mut sb = restricted_sandbox(world, opts, day, job.sample_id, live_ips, tel);
            sb.execute(
                &world.samples[job.sample_id].elf,
                SimDuration::from_secs(opts.restricted_secs),
            )
        };
        let _eavesdrop_span = tel.span_under("pipeline.ddos_eavesdrop", &parent);
        let c2s: Vec<(Ipv4Addr, Option<Family>)> =
            job.live.iter().map(|(_, ip, fam)| (*ip, *fam)).collect();
        let packets = pcap::packets(&session.pcap);
        let commands = ddos::extract_session(packets, BOT_IP, &c2s, opts.pps_threshold);
        let evidence = job
            .live
            .iter()
            .zip(commands)
            .map(|((addr, ip, fam), cmds)| {
                tel.add("pipeline.ddos_commands_seen", cmds.len() as u64);
                (addr.clone(), *ip, *fam, cmds)
            })
            .collect();
        RestrictedOutcome {
            sample_id: job.sample_id,
            instructions: session.instructions,
            evidence,
        }
    })
}
