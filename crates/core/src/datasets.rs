//! The five datasets of Table 1, as the pipeline produces them.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use malnet_protocols::{AttackCommand, Family, TargetProtocol};

use malnet_botgen::exploitdb::VulnId;

/// One collected sample (D-Samples row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRecord {
    /// Feed hash.
    pub sha256: String,
    /// Publish/collection day.
    pub day: u32,
    /// YARA-derived family label.
    pub yara_family: Option<String>,
    /// AVClass2-derived label (with its known MIPS quirks).
    pub avclass_family: Option<String>,
    /// AV engines flagging the file.
    pub av_detections: u32,
    /// Did the binary activate in the sandbox?
    pub activated: bool,
    /// C2 addresses this sample referred to (D-C2s keys).
    pub c2_addrs: Vec<String>,
    /// Guest instructions executed during analysis (diagnostics).
    pub instructions: u64,
}

/// One C2 address (D-C2s row), aggregated over every sample and day that
/// touched it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct C2Record {
    /// Address (IP string or domain).
    pub addr: String,
    /// Resolved/contacted IP.
    pub ip: Ipv4Addr,
    /// Port.
    pub port: u16,
    /// DNS-named?
    pub dns: bool,
    /// Hosting ASN (from the AS registry).
    pub asn: Option<u32>,
    /// Day the pipeline first saw it.
    pub first_seen_day: u32,
    /// Distinct sample hashes referring to it.
    pub samples: Vec<String>,
    /// Days the address answered a liveness probe.
    pub live_days: Vec<u32>,
    /// Flagged malicious by the feeds on the discovery day?
    pub vt_day0: bool,
    /// Number of vendors flagging it on the discovery day.
    pub vt_day0_vendors: usize,
    /// Flagged malicious at the final re-query?
    pub vt_late: bool,
    /// Number of vendors flagging it at the final re-query.
    pub vt_late_vendors: usize,
    /// Traffic matched a known C2 protocol (manual-verification stand-in).
    pub protocol_verified: bool,
    /// Families whose samples referred to it.
    pub families: Vec<Family>,
}

impl C2Record {
    /// Observed lifespan in days: last live − first live + 1; 0 when the
    /// server was never seen alive.
    pub fn observed_lifespan(&self) -> u32 {
        match (self.live_days.iter().min(), self.live_days.iter().max()) {
            (Some(a), Some(b)) => b - a + 1,
            _ => 0,
        }
    }
}

/// The D-PC2 probing matrix for one discovered server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbedC2 {
    /// Server address.
    pub ip: Ipv4Addr,
    /// Probed port.
    pub port: u16,
    /// One entry per probe: (probe index, engaged?).
    pub probes: Vec<(u32, bool)>,
}

impl ProbedC2 {
    /// Count of engaged probes.
    pub fn responses(&self) -> usize {
        self.probes.iter().filter(|(_, r)| *r).count()
    }
}

/// One extracted exploit (D-Exploits row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploitRecord {
    /// Sample hash.
    pub sha256: String,
    /// Collection day.
    pub day: u32,
    /// Vulnerabilities evidenced by the payload.
    pub vulns: Vec<VulnId>,
    /// Attacked port.
    pub port: u16,
    /// Downloader address in the payload.
    pub downloader: Option<Ipv4Addr>,
    /// Loader filename in the payload.
    pub loader: Option<String>,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// How a DDoS command was detected (§2.5 methods a and b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdosDetection {
    /// Decoded by a family protocol profiler.
    Profiler,
    /// Caught by the ≥100-pps behavioural heuristic.
    Behavioral,
    /// Found by both.
    Both,
}

/// One observed DDoS command (D-DDOS row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdosRecord {
    /// Sample hash.
    pub sha256: String,
    /// Bot family.
    pub family: Family,
    /// Issuing C2 address.
    pub c2_addr: String,
    /// Issuing C2 IP.
    pub c2_ip: Ipv4Addr,
    /// Day observed.
    pub day: u32,
    /// The decoded command.
    pub command: AttackCommand,
    /// Detection method.
    pub detection: DdosDetection,
    /// Peak packets-per-second measured toward the target.
    pub measured_pps: u64,
    /// Verified (bot actually flooded the commanded target)?
    pub verified: bool,
    /// Target protocol classification (Figure 10).
    pub target_protocol: TargetProtocol,
    /// Was the C2 flagged by the feeds on the attack day?
    pub c2_known_to_feeds: bool,
}

/// Phase-0 static triage result for one sample (D-Triage row): what
/// `malnet-xray` learned from the raw ELF bytes before the sandbox ran
/// a single instruction. Observation-only: nothing downstream branches
/// on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriageRecord {
    /// Sample hash.
    pub sha256: String,
    /// Analysis day.
    pub day: u32,
    /// Did the ELF parse?
    pub valid_elf: bool,
    /// Structural lint codes raised (sorted as reported).
    pub lints: Vec<String>,
    /// Were network syscalls reachable from the entry point?
    pub net_capable: bool,
    /// Embedded bytecode records decoded.
    pub bytecode_records: usize,
    /// Embedded bytecode records skipped as undecodable.
    pub bytecode_skipped: usize,
    /// Statically recovered C2 candidate addresses (same key convention
    /// as D-C2s), sorted and deduplicated.
    pub candidates: Vec<String>,
    /// Total endpoints recovered (C2 + resolver + peer).
    pub endpoints: usize,
}

/// Why a sample landed in D-Health instead of (or in addition to) the
/// regular datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthKind {
    /// The phase-A worker panicked; the sample was quarantined and the
    /// study continued without it.
    WorkerPanic,
    /// The contained sandbox reported a CPU fault (segfault, illegal
    /// instruction, unloadable/malformed ELF).
    SandboxFault,
    /// The contained sandbox exhausted its instruction budget (guest
    /// hung in a compute loop).
    BudgetExhausted,
    /// The contained run degraded (fault or budget exhaustion) while
    /// syscall-boundary faults were being injected into it — the
    /// casualty is attributed to the emulator fault domain, with the
    /// injected-fault tally in `fault_context`.
    EmuFault,
}

/// One graceful-degradation event (D-Health row): a sample the pipeline
/// could not fully profile, with enough context to audit why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthRecord {
    /// Sample hash.
    pub sha256: String,
    /// Study day the event occurred.
    pub day: u32,
    /// What went wrong.
    pub kind: HealthKind,
    /// Exit reason / panic message detail.
    pub detail: String,
    /// Injected-fault context active for this sample (empty outside
    /// chaos runs).
    pub fault_context: Vec<String>,
}

/// The D-Health section: graceful-degradation accounting for a run.
///
/// `rows` holds the samples that could not be fully profiled;
/// `exit_counts` tallies every contained-run exit reason (including the
/// healthy ones), so the section doubles as a run health report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthData {
    /// Quarantine/degradation events in merge (sample-id) order.
    pub rows: Vec<HealthRecord>,
    /// Contained-run exit reasons, coarsely classified, with counts.
    pub exit_counts: BTreeMap<String, u64>,
}

impl HealthData {
    /// Number of quarantined samples (worker panics), as opposed to
    /// degraded-but-profiled ones.
    pub fn quarantined(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.kind == HealthKind::WorkerPanic)
            .count()
    }
}

/// The full output of a pipeline run (Table 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Datasets {
    /// D-Samples.
    pub samples: Vec<SampleRecord>,
    /// D-C2s keyed by address.
    pub c2s: BTreeMap<String, C2Record>,
    /// D-PC2.
    pub probed: Vec<ProbedC2>,
    /// D-Exploits.
    pub exploits: Vec<ExploitRecord>,
    /// D-DDOS.
    pub ddos: Vec<DdosRecord>,
    /// D-Health: graceful-degradation accounting (quarantined samples,
    /// sandbox faults, budget exhaustion).
    pub health: HealthData,
    /// D-Triage: phase-0 static triage observations, one row per
    /// D-Samples row (quarantined samples have neither).
    pub triage: Vec<TriageRecord>,
}

impl Datasets {
    /// D-PC2 traffic-measurement count (paper: 64 per C2 over two weeks
    /// of 4-hour probes, i.e. probes actually delivered).
    pub fn probe_measurements(&self) -> usize {
        self.probed.iter().map(|p| p.probes.len()).sum()
    }

    /// Samples from which at least one exploit was extracted.
    pub fn exploit_sample_count(&self) -> usize {
        let mut shas: Vec<&str> = self.exploits.iter().map(|e| e.sha256.as_str()).collect();
        shas.sort_unstable();
        shas.dedup();
        shas.len()
    }

    /// A canonical, byte-stable serialization of every dataset.
    ///
    /// Row order is already canonical — the pipeline merges per-sample
    /// results in sample-id order and `c2s` is a `BTreeMap` — so a plain
    /// structured dump is reproducible. Two pipeline runs are equivalent
    /// iff their dumps are byte-identical; the parallel-determinism suite
    /// compares these across `parallelism` settings.
    pub fn canonical_dump(&self) -> String {
        let mut out = String::new();
        out.push_str("== D-Samples ==\n");
        for r in &self.samples {
            out.push_str(&format!("{r:?}\n"));
        }
        out.push_str("== D-C2s ==\n");
        for (addr, r) in &self.c2s {
            out.push_str(&format!("{addr} => {r:?}\n"));
        }
        out.push_str("== D-PC2 ==\n");
        for r in &self.probed {
            out.push_str(&format!("{r:?}\n"));
        }
        out.push_str("== D-Exploits ==\n");
        for r in &self.exploits {
            out.push_str(&format!("{r:?}\n"));
        }
        out.push_str("== D-DDOS ==\n");
        for r in &self.ddos {
            out.push_str(&format!("{r:?}\n"));
        }
        out.push_str("== D-Health ==\n");
        for r in &self.health.rows {
            out.push_str(&format!("{r:?}\n"));
        }
        for (reason, n) in &self.health.exit_counts {
            out.push_str(&format!("exit {reason} = {n}\n"));
        }
        // D-Triage stays LAST: the recorded datasets digests hash this
        // layout, and the determinism suite reads the triage rows as
        // everything after the section header.
        out.push_str("== D-Triage ==\n");
        for r in &self.triage {
            out.push_str(&format!("{r:?}\n"));
        }
        out
    }

    /// Table 1 summary line.
    pub fn table1(&self) -> String {
        format!(
            "D-Samples: {} | D-C2s: {} | D-PC2: {} measurements over {} servers | \
             D-Exploits: {} samples ({} payloads) | D-DDOS: {} commands",
            self.samples.len(),
            self.c2s.len(),
            self.probe_measurements(),
            self.probed.len(),
            self.exploit_sample_count(),
            self.exploits.len(),
            self.ddos.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_lifespan_rules() {
        let mut r = C2Record {
            addr: "1.2.3.4".into(),
            ip: Ipv4Addr::new(1, 2, 3, 4),
            port: 23,
            dns: false,
            asn: None,
            first_seen_day: 10,
            samples: vec![],
            live_days: vec![],
            vt_day0: false,
            vt_day0_vendors: 0,
            vt_late: false,
            vt_late_vendors: 0,
            protocol_verified: false,
            families: vec![],
        };
        assert_eq!(r.observed_lifespan(), 0);
        r.live_days = vec![10];
        assert_eq!(r.observed_lifespan(), 1);
        r.live_days = vec![10, 11, 14];
        assert_eq!(r.observed_lifespan(), 5);
    }

    #[test]
    fn dataset_counters() {
        let mut d = Datasets::default();
        d.exploits.push(ExploitRecord {
            sha256: "a".into(),
            day: 1,
            vulns: vec![],
            port: 80,
            downloader: None,
            loader: None,
            payload: vec![],
        });
        d.exploits.push(ExploitRecord {
            sha256: "a".into(),
            day: 1,
            vulns: vec![],
            port: 8080,
            downloader: None,
            loader: None,
            payload: vec![],
        });
        assert_eq!(d.exploit_sample_count(), 1);
        d.probed.push(ProbedC2 {
            ip: Ipv4Addr::new(1, 1, 1, 1),
            port: 23,
            probes: vec![(0, true), (1, false)],
        });
        assert_eq!(d.probe_measurements(), 2);
        assert!(d.table1().contains("D-Samples: 0"));
    }
}
