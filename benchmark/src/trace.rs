//! Trace mode: the study rebuilt from each layer's public entry points,
//! timed from outside, then the per-sample layers replayed on the same
//! inputs.
//!
//! One trace rep runs
//!
//! 1. the untraced `Pipeline::run`, as the reference for the digest and
//!    for the tracing overhead;
//! 2. the composed study under `Telemetry::enabled()`: `run_day_epochs`,
//!    `merge_epoch_results`, the late feed re-query and `run_probing`
//!    with the pipeline's weapon pick. The program's own counters supply
//!    the work counts; every time comes from this file's spans;
//! 3. a replay of `contained_activation` and `malnet_xray::analyze` for
//!    every analyzed sample, and of every restricted session the study
//!    ran (`Sandbox::execute`, `Artifacts::packets`, `pcap::to_bytes`,
//!    `ddos::extract`), rebuilt from the datasets;
//! 4. `render::all` and `eval::evaluate` over the datasets.
//!
//! Self-checks tie the replay to the study: the composed digest equals
//! the untraced one, each replayed contained run retires its sample's
//! recorded instructions, and the replayed sessions, DDoS commands and
//! guest instructions match the study's counters.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use malnet_botgen::world::{World, WORLD_RESOLVER};
use malnet_core::datasets::Datasets;
use malnet_core::pipeline::{contained_activation, merge_epoch_results, run_day_epochs, BOT_IP};
use malnet_core::prober::{run_probing, ProbeConfig};
use malnet_core::{ddos, eval, FaultPlan, Pipeline, PipelineOpts};
use malnet_intel::VendorDb;
use malnet_netsim::net::Network;
use malnet_netsim::time::{SimDuration, SimTime};
use malnet_prng::sub_seed;
use malnet_protocols::Family;
use malnet_sandbox::{AnalysisMode, EmuFaults, Sandbox, SandboxConfig};
use malnet_telemetry::Telemetry;

use crate::{another_rep, digest, median, now, nproc, ratio, secs_since, setup, Measured, Metric};

/// `sub_seed` domain of a restricted session's sandbox. Mirrors the
/// private constant in `malnet_core::pipeline`.
const DOMAIN_RESTRICTED: u64 = 0x5eed_0000_0000_0002;
/// `sub_seed` domain of a restricted session's network (same mirror).
/// A wrong value moves the replayed guest instructions, which the
/// instruction self-check compares exactly.
const DOMAIN_RESTRICTED_NET: u64 = 0x5eed_0000_0000_0003;
/// Instruction budget of a restricted session (same mirror).
const RESTRICTED_BUDGET: u64 = 2_000_000_000;

/// One benchmark span: a timed call into a layer.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// Span name (a layer metric's stem, or a grouping span).
    pub(crate) name: &'static str,
    /// Start, in microseconds since the tracer started.
    pub(crate) start_us: f64,
    /// End, in microseconds since the tracer started.
    pub(crate) end_us: f64,
    /// Index of the enclosing span.
    pub(crate) parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn us(&self) -> f64 {
        now().duration_since(self.origin).as_secs_f64() * 1e6
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_us = self.us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its seconds.
    fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_us = self.us();
        self.spans[id].secs()
    }

    /// Run `f` inside a span and return its result with its seconds.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = std::hint::black_box(f());
        (out, self.exit(id))
    }
}

/// Per-layer values of one trace rep, in [`crate::workloads::PER_LAYER`]
/// order.
type Rep = Vec<(&'static str, f64)>;

/// Trace `w` at `seed` for about `budget` (at least one rep).
pub(crate) fn measure(w: &crate::workloads::Workload, seed: u64, budget: Duration) -> Measured {
    let mut tr = Tracer::new();
    let id = tr.enter("botgen.setup");
    let (world, generate_s) = setup(w);
    tr.exit(id);
    let opts = w.opts(seed, nproc());
    let mut m = Measured {
        samples_planned: world.samples.len() as u64,
        parallelism: opts.parallelism,
        ..Measured::default()
    };
    if !opts.faults.is_none() {
        m.notes.push(
            "chaos: the restricted replay runs, but its session, command and instruction \
             checks are informational; the liveness oracle's retries can mark a C2 live on a \
             day whose day-0 probe was lost, so jobs rebuilt from the datasets may differ"
                .to_string(),
        );
    }
    let start = now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rep_s = Vec::new();
    while another_rep(start, reps.len(), 1, median(&rep_s), budget) {
        let t = now();
        reps.push(trace_rep(&world, &opts, &mut tr, &mut m));
        rep_s.push(secs_since(t));
    }
    m.reps = reps.len();
    m.metrics.push(Metric::new("botgen.generate_s", generate_s));
    for (i, (name, _)) in reps[0].iter().enumerate() {
        m.metrics
            .push(Metric::new(name, reps.iter().map(|r| r[i].1).collect()));
    }
    m.spans = tr.spans;
    m
}

/// One analyzed sample's restricted DDoS-observation session, rebuilt
/// from the datasets.
struct Job {
    day: u32,
    sample_id: usize,
    /// Live C2s in candidate order: address, family.
    live: Vec<(Ipv4Addr, Option<Family>)>,
}

fn trace_rep(world: &World, opts: &PipelineOpts, tr: &mut Tracer, m: &mut Measured) -> Rep {
    let strict = opts.faults.is_none();
    let check = |ok: bool, what: String, m: &mut Measured| {
        if ok {
            return;
        }
        if strict {
            m.problems.push(what);
        } else {
            m.notes.push(format!("informational: {what}"));
        }
    };

    let ((reference, _), untraced_s) =
        tr.time("study.untraced", || Pipeline::new(opts.clone()).run(world));
    let reference = digest(&reference);

    let tel = Telemetry::enabled();
    let (study, traced_s, layer_s) = composed_study(world, opts, &tel, tr);
    let (data, vendors) = study;
    let report = tel.report();
    let counter = |name: &str| report.counter(name).unwrap_or(0) as f64;
    m.studies += 2;
    m.digest = reference;
    if digest(&data) != reference {
        m.problems
            .push("the composed study's datasets differ from Pipeline::run's".to_string());
    }

    let replay = tr.enter("replay");
    let tel_off = Telemetry::disabled();
    let id_of: BTreeMap<&str, usize> = world
        .samples
        .iter()
        .map(|s| (s.sha256.as_str(), s.id))
        .collect();
    let mut day_s: BTreeMap<u32, f64> = BTreeMap::new();
    let mut contained_ms = Vec::with_capacity(data.samples.len());
    let mut xray_s = 0.0;
    let mut jobs = Vec::new();
    let mut contained_instructions = 0u64;
    for rec in &data.samples {
        let Some(&id) = id_of.get(rec.sha256.as_str()) else {
            m.problems
                .push(format!("sample {} is not in the corpus", rec.sha256));
            continue;
        };
        let (out, s) = tr.time("pipeline.contained", || {
            contained_activation(world, opts, rec.day, id, &tel_off)
        });
        contained_ms.push(s * 1e3);
        *day_s.entry(rec.day).or_default() += s;
        contained_instructions += rec.instructions;
        if out.instructions != rec.instructions {
            m.problems.push(format!(
                "sample {id} day {}: contained replay retired {} instructions, the study {}",
                rec.day, out.instructions, rec.instructions
            ));
        }
        xray_s += tr
            .time("xray.analyze", || {
                malnet_xray::analyze(&world.samples[id].elf)
            })
            .1;
        if out.activated {
            let family = out
                .yara
                .as_deref()
                .and_then(|l| Family::ALL.into_iter().find(|f| f.label() == l));
            let live: Vec<(Ipv4Addr, Option<Family>)> = out
                .candidates
                .iter()
                .filter_map(|c| {
                    let c2 = data.c2s.get(&c.addr)?;
                    let ip = if c.dns { c2.ip } else { c.ip };
                    c2.live_days
                        .contains(&rec.day)
                        .then_some((ip, c.family_from_traffic.or(family)))
                })
                .collect();
            if !live.is_empty() {
                jobs.push(Job {
                    day: rec.day,
                    sample_id: id,
                    live,
                });
            }
        }
    }

    let mut restricted_s = Vec::with_capacity(jobs.len());
    let (mut parse_s, mut encode_s, mut extract_s) = (0.0, 0.0, 0.0);
    let (mut instructions, mut syscalls, mut records, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut commands, mut c2_packets) = (0u64, 0u64);
    for job in &jobs {
        let (art, exec_s) = tr.time("sandbox.restricted", || {
            restricted_sandbox(world, opts, job).execute(
                &world.samples[job.sample_id].elf,
                SimDuration::from_secs(opts.restricted_secs),
            )
        });
        let (packets, p_s) = tr.time("wire.pcap_parse", || art.packets());
        let (encoded, e_s) = tr.time("wire.pcap_encode", || malnet_wire::pcap::to_bytes(&packets));
        let mut x_s = 0.0;
        for (ip, family) in &job.live {
            let (cmds, s) = tr.time("ddos.extract", || {
                ddos::extract(&packets, BOT_IP, *ip, *family, opts.pps_threshold)
            });
            commands += cmds.len() as u64;
            x_s += s;
        }
        if strict && encoded != art.pcap {
            m.problems.push(format!(
                "sample {}: the capture does not re-encode to the same pcap bytes",
                job.sample_id
            ));
        }
        c2_packets += packets
            .iter()
            .filter(|(_, p)| job.live.iter().any(|(ip, _)| p.src == *ip || p.dst == *ip))
            .count() as u64;
        restricted_s.push(exec_s);
        (parse_s, encode_s, extract_s) = (parse_s + p_s, encode_s + e_s, extract_s + x_s);
        *day_s.entry(job.day).or_default() += exec_s + p_s + x_s;
        instructions += art.instructions;
        syscalls += art.syscalls;
        records += packets.len() as u64;
        bytes += art.pcap.len() as u64;
    }
    tr.exit(replay);

    let sessions = counter("pipeline.restricted_sessions");
    check(
        jobs.len() as f64 == sessions,
        format!(
            "replayed {} restricted sessions, the study ran {sessions}",
            jobs.len()
        ),
        m,
    );
    let seen = counter("pipeline.ddos_commands_seen");
    check(
        commands as f64 == seen,
        format!("replay extracted {commands} DDoS commands, the study saw {seen}"),
        m,
    );
    let counted = counter("sandbox.instructions_retired") - contained_instructions as f64;
    check(
        instructions as f64 == counted,
        format!(
            "replayed sessions retired {instructions} instructions, the study's counter {counted}"
        ),
        m,
    );

    let (_, render_s) = tr.time("analysis.render", || {
        malnet_bench::render::all(world, &data, &vendors, opts.late_query_day)
    });
    let (scores, evaluate_s) = tr.time("analysis.evaluate", || eval::evaluate(world, &data));

    let total_s: f64 = day_s.values().sum();
    let critical_s = day_s.values().copied().fold(0.0, f64::max);
    let restricted_total: f64 = restricted_s.iter().sum();
    let delivered = counter("netsim.packets_delivered");
    let dropped = counter("netsim.packets_dropped");
    vec![
        ("pipeline.epochs_s", layer_s.epochs),
        ("pipeline.reduce_s", layer_s.reduce),
        (
            "pipeline.contained_s",
            contained_ms.iter().sum::<f64>() / 1e3,
        ),
        ("pipeline.contained_p50_ms", percentile(&contained_ms, 0.50)),
        ("pipeline.contained_p99_ms", percentile(&contained_ms, 0.99)),
        ("pipeline.critical_day_share", ratio(critical_s, total_s)),
        ("pipeline.restricted_sessions", sessions),
        (
            "pipeline.liveness_probes",
            counter("pipeline.liveness_probes"),
        ),
        (
            "pipeline.liveness_retries",
            counter("pipeline.liveness_retries"),
        ),
        (
            "pipeline.failed_frac",
            ratio(data.health.rows.len() as f64, world.samples.len() as f64),
        ),
        ("sandbox.restricted_s", restricted_total),
        (
            "sandbox.restricted_max_s",
            restricted_s.iter().copied().fold(0.0, f64::max),
        ),
        (
            "sandbox.ns_per_instr",
            ratio(restricted_total * 1e9, instructions as f64),
        ),
        ("sandbox.guest_instructions", instructions as f64),
        ("sandbox.syscalls", syscalls as f64),
        ("wire.pcap_parse_s", parse_s),
        ("wire.pcap_encode_s", encode_s),
        ("wire.pcap_records", records as f64),
        ("wire.pcap_bytes", bytes as f64),
        ("ddos.extract_s", extract_s),
        ("ddos.commands", commands as f64),
        (
            "ddos.c2_packet_share",
            ratio(c2_packets as f64, records as f64),
        ),
        ("ddos.recall", scores.ddos_recall),
        ("xray.analyze_s", xray_s),
        ("prober.run_s", layer_s.prober),
        ("prober.probes_sent", counter("prober.probes_sent")),
        ("prober.syn_retries", counter("prober.syn_retries")),
        ("prober.engagements", counter("prober.engagements")),
        (
            "prober.engagement_ratio",
            ratio(
                counter("prober.engagements"),
                counter("prober.listeners_found"),
            ),
        ),
        ("netsim.packets_delivered", delivered),
        ("netsim.packets_dropped", dropped),
        ("netsim.drop_frac", ratio(dropped, delivered + dropped)),
        ("analysis.render_s", render_s),
        ("analysis.evaluate_s", evaluate_s),
        ("telemetry.trace_overhead_frac", traced_s / untraced_s - 1.0),
    ]
}

/// Times of the composed study's top-level layers.
struct LayerTimes {
    epochs: f64,
    reduce: f64,
    prober: f64,
}

/// `Pipeline::run`, rebuilt from its public pieces with a span around
/// each. Returns the datasets, the composed study's seconds and the
/// per-layer seconds.
fn composed_study(
    world: &World,
    opts: &PipelineOpts,
    tel: &Telemetry,
    tr: &mut Tracer,
) -> ((Datasets, VendorDb), f64, LayerTimes) {
    let study = tr.enter("study.traced");
    let (epochs, epochs_s) = tr.time("pipeline.epochs", || run_day_epochs(world, opts, tel));
    let ((mut data, vendors), reduce_s) = tr.time("pipeline.reduce", || {
        merge_epoch_results(world, opts, epochs, tel)
    });
    tr.time("pipeline.late_query", || {
        for rec in data.c2s.values_mut() {
            let v = vendors.query(&rec.addr, opts.late_query_day);
            rec.vt_late = v.is_malicious();
            rec.vt_late_vendors = v.count();
        }
    });
    let weapons = probe_weapons(world);
    let mut prober_s = 0.0;
    if opts.run_probing && !weapons.is_empty() {
        let cfg = ProbeConfig {
            rounds: opts.probe_rounds,
            hosts_per_subnet: opts.probe_hosts_per_subnet,
            syn_retries: opts.syn_retries,
            parallelism: opts.parallelism,
            block_engine: opts.block_engine,
            ..ProbeConfig::from_world(world)
        };
        let (probed, s) = tr.time("prober.run", || {
            run_probing(world, &weapons, &cfg, opts.seed, tel)
        });
        data.probed = probed;
        prober_s = s;
    }
    let traced_s = tr.exit(study);
    (
        (data, vendors),
        traced_s,
        LayerTimes {
            epochs: epochs_s,
            reduce: reduce_s,
            prober: prober_s,
        },
    )
}

/// The pipeline's probing weapons: one Mirai and one Gafgyt sample with
/// clean call-home behaviour.
fn probe_weapons(world: &World) -> Vec<Vec<u8>> {
    [Family::Mirai, Family::Gafgyt]
        .into_iter()
        .filter_map(|fam| {
            world.samples.iter().find(|s| {
                s.family == fam && !s.corrupted && s.spec.exploits.is_empty() && !s.spec.evasive
            })
        })
        .map(|s| s.elf.clone())
        .collect()
}

/// The sandbox of one restricted session, configured as the pipeline
/// configures it: a detached day network with the day's faults, egress
/// only to the live C2s and the world resolver.
fn restricted_sandbox(world: &World, opts: &PipelineOpts, job: &Job) -> Sandbox {
    let id = job.sample_id as u64;
    let (mut net, _logs) = world.network_for_day_detached(
        job.day,
        sub_seed(opts.seed ^ DOMAIN_RESTRICTED_NET, job.day, id),
    );
    apply_world_chaos(&opts.faults, world, &mut net, job.day);
    let mut allowed: Vec<Ipv4Addr> = job.live.iter().map(|(ip, _)| *ip).collect();
    allowed.push(WORLD_RESOLVER);
    Sandbox::new(
        net,
        SandboxConfig {
            bot_ip: BOT_IP,
            mode: AnalysisMode::Restricted { allowed },
            handshaker_threshold: None,
            instruction_budget: RESTRICTED_BUDGET,
            seed: sub_seed(opts.seed ^ DOMAIN_RESTRICTED, job.day, id),
            block_engine: opts.block_engine,
            fd_cap: malnet_sandbox::process::DEFAULT_FD_CAP,
            emu_faults: EmuFaults::none(),
        },
    )
}

/// The day's share of the fault plan on a world network: link faults,
/// DNS faults and scheduled C2 downtime, as the pipeline applies them.
fn apply_world_chaos(plan: &FaultPlan, world: &World, net: &mut Network, day: u32) {
    if plan.is_none() {
        return;
    }
    net.faults = plan.world_link(day);
    net.dns_faults = plan.dns_faults(day);
    for c2 in world.c2s.iter().filter(|c| c.alive_on(day)) {
        if let Some((start, dur)) = plan.downtime_window(day, c2.host_ip) {
            let down_at = SimTime::from_day(day, start);
            net.schedule_host_state(c2.host_ip, down_at, false);
            net.schedule_host_state(c2.host_ip, down_at + SimDuration::from_secs(dur), true);
        }
    }
}

/// Nearest-rank percentile `q` of `values`; 0 when empty.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}
