//! Phase A: contained activation (paper §2.1, §2.4) — one sample's
//! labels, static triage, contained sandbox run and the extractions
//! that depend only on it — and the D-Health classification of the
//! run's exit.

use std::panic::AssertUnwindSafe;

use malnet_telemetry::Telemetry;

use malnet_botgen::exploitdb;
use malnet_botgen::world::World;
use malnet_intel::{avclass2_label, yara_label};
use malnet_netsim::net::Network;
use malnet_netsim::time::{SimDuration, SimTime};
use malnet_sandbox::{AnalysisMode, EmuFaultTally, ExitReason, Sandbox, SandboxConfig};

use super::{seeds, PipelineOpts, BOT_IP};
use crate::c2detect::detect_c2;
use crate::datasets::{ExploitRecord, HealthKind, TriageRecord};

/// Everything the contained-activation stage (phase A) produces for one
/// sample. Plain data: safe to compute on a worker thread and ship back
/// to the merge stage (`fan_out` requires it to be `Send`).
#[derive(Debug, Clone, PartialEq)]
pub struct ContainedOutcome {
    /// The analyzed sample's id in `world.samples`.
    pub sample_id: usize,
    /// YARA family label of the binary.
    pub yara: Option<String>,
    /// AVClass2 family label of the binary.
    pub avclass: Option<String>,
    /// Did the sample activate (run and speak) in the sandbox?
    pub activated: bool,
    /// Classified exploit payloads captured by the handshaker.
    pub exploits: Vec<ExploitRecord>,
    /// C2 candidates extracted from the capture (empty for P2P samples).
    pub candidates: Vec<crate::c2detect::C2Candidate>,
    /// Instructions the emulator retired.
    pub instructions: u64,
    /// Phase-0 static triage result.
    pub triage: TriageRecord,
    /// Why the contained run stopped — input to D-Health accounting
    /// ([`exit_class`], [`degraded_kind`]).
    pub exit: ExitReason,
    /// Injected-fault context active during this sample's contained run
    /// (empty outside chaos runs).
    pub fault_context: Vec<String>,
    /// Syscall-boundary faults actually injected into the contained run
    /// (all-zero outside chaos runs) — when the run degraded, this is
    /// what reclassifies it as [`HealthKind::EmuFault`].
    pub emu_faults: EmuFaultTally,
}

/// A phase-A casualty: the worker analyzing this sample panicked. The
/// pipeline quarantines it into D-Health instead of aborting the study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// The sample's id in `world.samples`.
    pub sample_id: usize,
    /// Panic message (best effort).
    pub detail: String,
    /// Injected-fault context, when the panic was chaos-forced.
    pub fault_context: Vec<String>,
}

/// Phase A of per-sample analysis: the contained sandbox run and every
/// derivation that depends only on it.
///
/// This is a pure function of `(world, opts, day, sample_id)`: the run
/// executes against a fresh, isolated [`Network`] seeded by its own
/// sub-seed stream, touches no pipeline state, and so can execute on
/// any thread in any order. The pipeline fans these out when
/// [`PipelineOpts::parallelism`] > 1.
pub fn contained_activation(
    world: &World,
    opts: &PipelineOpts,
    day: u32,
    sample_id: usize,
    tel: &Telemetry,
) -> ContainedOutcome {
    let plan = &opts.faults;
    if plan.forced_panic(day, sample_id) {
        tel.add("chaos.forced_panics", 1);
        // Deliberate: the chaos layer's injected crash. lint: panic-ok
        panic!("chaos: forced phase-A worker panic (day {day}, sample {sample_id})");
    }
    let sample = &world.samples[sample_id];
    let mut fault_context: Vec<String> = Vec::new();
    // Binary mutation (truncation / bit flip) models a corrupted feed
    // download; the analysis sees the mutated bytes end to end.
    let mutated = plan.mutate_binary(day, sample_id, &sample.elf);
    let elf: &[u8] = match &mutated {
        Some((bytes, desc)) => {
            tel.add("chaos.binaries_mutated", 1);
            fault_context.push(desc.clone());
            bytes
        }
        None => &sample.elf,
    };
    let yara_hit = yara_label(elf);
    let yara = yara_hit.map(str::to_string);
    let avclass = avclass2_label(yara_hit).map(str::to_string);

    // --- phase 0: static triage (no instruction executed) ---
    let triage = {
        let _triage_span = tel.span("pipeline.static_triage");
        static_triage(elf, day, &sample.sha256, tel)
    };

    // --- contained activation: C2 + exploit extraction ---
    let mut contained_net = Network::new(
        SimTime::from_day(day, 0),
        seeds::contained_net_seed(opts.seed, day, sample_id),
    );
    contained_net.set_telemetry(tel);
    if !plan.is_none() {
        let link = plan.contained_link(day, sample_id);
        if link.loss > 0.0 || link.corrupt > 0.0 {
            fault_context.push(format!(
                "contained link loss={:.4} corrupt={:.4}",
                link.loss, link.corrupt
            ));
            contained_net.faults = link;
        }
        // The sandbox's fake resolver is a DnsService like any other:
        // the day's DNS fault policy applies to it too. Decisions draw
        // from the contained net's per-sample RNG, so they are a pure
        // function of (fault_seed, day, sample_id).
        let dns = plan.dns_faults(day);
        if dns.any() {
            fault_context.push(format!(
                "dns drop={:.4} servfail={:.4} nxdomain={:.4}",
                dns.drop_rate, dns.servfail_rate, dns.nxdomain_rate
            ));
            contained_net.dns_faults = dns;
        }
    }
    // Emulator fault sub-plan: syscall-boundary chaos injected inside
    // the guest's kernel view (short I/O, EINTR, ENOMEM, fd-cap
    // squeeze). Inert — and RNG-free — unless the plan enables it.
    let emu = plan.emu_faults(day, sample_id);
    if !emu.is_none() {
        fault_context.push(format!(
            "emu faults armed: short={:.4} eintr={:.4} enomem={:.4} fd_cap={}",
            emu.short_rate,
            emu.eintr_rate,
            emu.enomem_rate,
            emu.fd_cap
                .map_or_else(|| "default".to_string(), |c| c.to_string()),
        ));
    }
    let mut sb = Sandbox::new(
        contained_net,
        SandboxConfig {
            bot_ip: BOT_IP,
            mode: AnalysisMode::Contained,
            handshaker_threshold: Some(opts.handshaker_threshold),
            instruction_budget: 400_000_000,
            seed: seeds::contained_sandbox_seed(opts.seed, day, sample_id),
            block_engine: opts.block_engine,
            fd_cap: malnet_sandbox::process::DEFAULT_FD_CAP,
            emu_faults: emu,
        },
    )
    .with_telemetry(tel);
    let art = sb.execute(elf, SimDuration::from_secs(opts.contained_secs));
    drop(sb);
    if art.emu_faults.any() {
        fault_context.push(art.emu_faults.describe());
    }
    let activated = !matches!(art.exit, ExitReason::Fault(_))
        && art.syscalls > 0
        && !matches!(art.exit, ExitReason::Exited(126 | 127));

    // Exploits (D-Exploits).
    let mut exploits = Vec::new();
    for cap in &art.exploits {
        let vulns = exploitdb::classify(&cap.payload);
        if vulns.is_empty() {
            continue;
        }
        let dl = exploitdb::extract_downloader(&cap.payload);
        exploits.push(ExploitRecord {
            sha256: sample.sha256.clone(),
            day,
            vulns,
            port: cap.port,
            downloader: dl.as_ref().map(|(ip, _)| *ip),
            loader: dl.map(|(_, l)| l),
            payload: cap.payload.clone(),
        });
    }

    // C2 candidates — skip P2P-labelled samples (§2.3a).
    let is_p2p = matches!(yara_hit, Some("mozi" | "hajime"));
    let candidates = if is_p2p {
        Vec::new()
    } else {
        detect_c2(&art, BOT_IP)
    };

    if activated {
        tel.add("pipeline.samples_activated", 1);
    }
    tel.add("pipeline.c2_candidates", candidates.len() as u64);
    tel.add("pipeline.exploits_classified", exploits.len() as u64);

    ContainedOutcome {
        sample_id,
        yara,
        avclass,
        activated,
        exploits,
        candidates,
        instructions: art.instructions,
        triage,
        exit: art.exit,
        fault_context,
        emu_faults: art.emu_faults,
    }
}

/// The text form of an exit reason: a D-Health row's detail and its
/// `quarantine` event's.
pub(super) fn exit_label(exit: &ExitReason) -> String {
    match exit {
        ExitReason::Exited(code) => format!("exited({code})"),
        ExitReason::Fault(msg) => format!("fault: {msg}"),
        ExitReason::Deadline => "deadline".to_string(),
        ExitReason::Budget => "budget".to_string(),
    }
}

/// Coarse class of an exit reason — the D-Health `exit_counts` key.
pub fn exit_class(exit: &ExitReason) -> &'static str {
    match exit {
        ExitReason::Exited(_) => "exited",
        ExitReason::Fault(_) => "fault",
        ExitReason::Budget => "budget",
        ExitReason::Deadline => "deadline",
    }
}

/// D-Health classification of a contained run's exit: which
/// degradation row (if any) the run earns. Total over every
/// [`ExitReason`] — `crates/core/tests/health_classification.rs` walks
/// each variant.
///
/// A degraded run (`fault` or `budget`) that had syscall-boundary
/// faults injected (`emu_injected`) is attributed to the emulator fault
/// domain ([`HealthKind::EmuFault`]) rather than blamed on the binary:
/// the casualty's proximate cause is chaos we inflicted. Clean exits and
/// deadlines are never reclassified — running out the clock is normal
/// bot behaviour, faults or not.
pub fn degraded_kind(exit: &ExitReason, emu_injected: bool) -> Option<HealthKind> {
    match exit {
        ExitReason::Fault(_) | ExitReason::Budget if emu_injected => Some(HealthKind::EmuFault),
        ExitReason::Fault(_) => Some(HealthKind::SandboxFault),
        ExitReason::Budget => Some(HealthKind::BudgetExhausted),
        ExitReason::Exited(_) | ExitReason::Deadline => None,
    }
}

/// Run `malnet-xray` over one binary and fold the result into a
/// [`TriageRecord`]. Pure (no RNG, no simulated clock) and
/// per-sample-independent, so it parallelizes with the rest of phase A.
fn static_triage(elf: &[u8], day: u32, sha256: &str, tel: &Telemetry) -> TriageRecord {
    let rep = malnet_xray::analyze(elf);
    tel.add("xray.samples_triaged", 1);
    tel.add("xray.endpoints_extracted", rep.endpoints.len() as u64);
    if !rep.valid_elf {
        tel.add("xray.invalid_elf", 1);
    }
    let mut candidates: Vec<String> = rep.c2_candidates().map(|e| e.addr.clone()).collect();
    candidates.sort_unstable();
    candidates.dedup();
    TriageRecord {
        sha256: sha256.to_string(),
        day,
        valid_elf: rep.valid_elf,
        lints: rep.lints.iter().map(|l| l.code.to_string()).collect(),
        net_capable: rep.text.net_capable(),
        bytecode_records: rep.bytecode_records,
        bytecode_skipped: rep.bytecode_skipped,
        candidates,
        endpoints: rep.endpoints.len(),
    }
}

/// Run phase A for a day's batch on [`PipelineOpts::parallelism`]
/// workers, returning outcomes in batch order whatever the schedule.
///
/// A panic inside any sample's contained run is caught on the worker
/// and returned as a [`Quarantined`] casualty in that sample's place in
/// the batch — the rest of the batch is unaffected and the pipeline's
/// merge stage records the casualty in D-Health instead of aborting the
/// study.
///
/// Public so a test can drive the contained stage in isolation
/// (`tests/telemetry_report.rs` quarantines one sample of a batch);
/// pipeline callers go through [`Pipeline::run`](super::Pipeline::run).
pub fn run_contained_batch(
    world: &World,
    opts: &PipelineOpts,
    day: u32,
    batch: &[usize],
    tel: &Telemetry,
) -> Vec<Result<ContainedOutcome, Quarantined>> {
    // Workers re-attach their per-sample spans under the epoch's
    // phase-A span (or wherever the caller sits — a direct caller with
    // no span open degrades to a root span).
    let parent = tel.current_span();
    crate::par::fan_out(batch.len(), opts.parallelism, |i| {
        let id = batch[i];
        let _span = tel.span_under("pipeline.contained_sample", &parent);
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            contained_activation(world, opts, day, id, tel)
        }))
        .map_err(|payload| Quarantined {
            sample_id: id,
            detail: panic_message(payload.as_ref()),
            fault_context: if opts.faults.forced_panic(day, id) {
                vec!["forced worker panic".to_string()]
            } else {
                Vec::new()
            },
        })
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
