//! Renderers: one per paper artefact, printing measured values beside
//! the paper's reported ones.

use std::fmt::Write as _;

use malnet_botgen::world::World;
use malnet_core::analysis;
use malnet_core::datasets::Datasets;
use malnet_core::eval;
use malnet_intel::VendorDb;
use malnet_netsim::time::STUDY_WEEKS;
use malnet_protocols::Family;

/// Table 1: dataset sizes.
pub fn table1(data: &Datasets) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table 1: datasets ==");
    let _ = writeln!(out, "{:<12} {:>10} {:>10}", "dataset", "paper", "measured");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10}",
        "D-Samples",
        1447,
        data.samples.len()
    );
    let _ = writeln!(out, "{:<12} {:>10} {:>10}", "D-C2s", 1160, data.c2s.len());
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10}  ({} servers)",
        "D-PC2",
        448,
        data.probe_measurements(),
        data.probed.len()
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10}",
        "D-Exploits",
        197,
        data.exploit_sample_count()
    );
    let _ = writeln!(out, "{:<12} {:>10} {:>10}", "D-DDOS", 42, data.ddos.len());
    out
}

/// Table 2: top-10 C2-hosting ASes.
pub fn table2(world: &World, data: &Datasets) -> String {
    let (rows, share) = analysis::table2(data, &world.asdb, 10);
    let mut out = String::new();
    let _ = writeln!(out, "== Table 2: top ASes hosting C2 IPs ==");
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>4} {:>8} {:>9} {:>5}",
        "AS Name", "ASN", "CC", "Hosting", "AntiDDoS", "C2s"
    );
    for r in rows {
        let anti = match r.anti_ddos {
            Some(true) => "Yes",
            Some(false) => "No",
            None => "N/A",
        };
        let _ = writeln!(
            out,
            "{:<26} {:>8} {:>4} {:>8} {:>9} {:>5}",
            r.name,
            r.asn,
            r.country,
            if r.hosting { "Yes" } else { "No" },
            anti,
            r.c2_count
        );
    }
    let _ = writeln!(
        out,
        "top-10 share of all C2s: measured {:.1}% (paper 69.7%)",
        share * 100.0
    );
    out
}

/// Table 3: unreported C2 servers.
pub fn table3(data: &Datasets) -> String {
    let t = analysis::table3(data);
    let mut out = String::new();
    let _ = writeln!(out, "== Table 3: C2s unknown to threat-intel feeds ==");
    let _ = writeln!(
        out,
        "{:<10} {:>16} {:>16}",
        "type", "same-day (paper)", "late (paper)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7.1}% (15.3%) {:>8.1}% (3.3%)",
        "All", t.all_day0, t.all_late
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7.1}% (13.3%) {:>8.1}% (1.5%)",
        "IP-based", t.ip_day0, t.ip_late
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7.1}% (57.6%) {:>8.1}% (35.0%)",
        "DNS-based", t.dns_day0, t.dns_late
    );
    out
}

/// Table 4: exploited vulnerabilities.
pub fn table4(data: &Datasets) -> String {
    let rows = analysis::table4(data);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table 4: exploited vulnerabilities (distinct samples) =="
    );
    let _ = writeln!(
        out,
        "{:<4} {:<18} {:<34} {:>7} {:>9}",
        "ID", "CVE/exploit", "device", "paper", "measured"
    );
    for (v, n) in rows {
        let info = v.info();
        let _ = writeln!(
            out,
            "{:<4} {:<18} {:<34} {:>7} {:>9}",
            info.group,
            info.cve.unwrap_or("(no CVE)"),
            &info.device[..info.device.len().min(34)],
            info.paper_samples,
            n
        );
    }
    out
}

/// Table 5: probing ports.
pub fn table5() -> String {
    format!(
        "== Table 5: probing ports ==\n{:?}\n(paper: identical — configuration constant)\n",
        malnet_botgen::world::PROBE_PORTS
    )
}

/// Table 7: per-vendor C2 detections.
pub fn table7(vendors: &VendorDb, data: &Datasets, late_day: u32) -> String {
    let rows = analysis::table7(vendors, data, late_day, 20);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table 7: top vendors by C2 IPs flagged (of {} IP-based C2s) ==",
        data.c2s.values().filter(|r| !r.dns).count()
    );
    let _ = writeln!(
        out,
        "(paper: counts over a 1000-C2 set, 0xSI_f33d 799 … G-Data 324)"
    );
    for (name, n) in rows {
        let _ = writeln!(out, "  {name:<28} {n:>6}");
    }
    let _ = writeln!(
        out,
        "vendors flagging ≥1 C2: {} (paper: 44 of 89)",
        vendors.active_vendor_count()
    );
    out
}

/// Figure 1: weekly heatmap of C2 activity per AS.
pub fn fig1(world: &World, data: &Datasets) -> String {
    let hm = analysis::fig1(data, &world.asdb);
    let mut out = hm.render(
        "== Figure 1: weekly C2 activity across top ASes (31 study weeks) ==",
        STUDY_WEEKS,
        10,
    );
    let _ = writeln!(
        out,
        "(paper: top-4 ASes consistently dark; activity peak at week 28)"
    );
    out
}

/// Figures 2 and 3: lifespan CDFs.
pub fn fig2_fig3(data: &Datasets) -> String {
    let ip = analysis::lifespan_cdf(data, false);
    let dns = analysis::lifespan_cdf(data, true);
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 2: observed lifespan of C2 IPs ==");
    let _ = writeln!(
        out,
        "P(lifespan <= 1 day) = {:.1}% (paper ~80%), mean = {:.1} d (paper ~4), max = {} (paper ~45)",
        ip.at(1) * 100.0,
        ip.mean(),
        ip.max()
    );
    let _ = writeln!(out, "{}", ip.render("C2 IP lifespan (days)"));
    let _ = writeln!(out, "== Figure 3: observed lifespan of C2 domains ==");
    let _ = writeln!(
        out,
        "P(<=1 day) = {:.1}%, mean = {:.1} d, n = {} (paper: qualitatively similar to IPs)",
        dns.at(1) * 100.0,
        dns.mean(),
        dns.len()
    );
    out
}

/// Figure 4: probing responsiveness raster + elusiveness stats.
pub fn fig4(data: &Datasets) -> String {
    let f = analysis::fig4(data, 6);
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 4: C2 responsiveness to probing (D-PC2) ==");
    for p in &data.probed {
        let raster: String = p
            .probes
            .iter()
            .map(|(_, e)| if *e { '#' } else { '.' })
            .collect();
        let _ = writeln!(out, "  {:>15}:{:<5} |{raster}|", p.ip.to_string(), p.port);
    }
    let _ = writeln!(
        out,
        "servers: {} (paper 7); silent-after-success: {:.1}% (paper 91%); \
         any full-response day: {} (paper: never); response rate {:.1}%",
        f.servers, f.silent_after_success, f.any_full_day, f.response_rate
    );
    out
}

/// Figures 5–7: sharing and vendor CDFs.
pub fn fig5_fig6_fig7(data: &Datasets) -> String {
    let ip = analysis::sharing_cdf(data, false);
    let dns = analysis::sharing_cdf(data, true);
    let vend = analysis::fig7(data);
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 5: distinct samples per C2 IP ==");
    let _ = writeln!(
        out,
        "P(=1 sample) = {:.1}% (paper ~40%); P(>10) = {:.1}% (paper ~20%); max = {} (paper ~18)",
        ip.at(1) * 100.0,
        (1.0 - ip.at(10)) * 100.0,
        ip.max()
    );
    let _ = writeln!(out, "== Figure 6: distinct samples per C2 domain ==");
    let _ = writeln!(
        out,
        "P(=1) = {:.1}%, max = {}, n = {} (paper: similar to IPs)",
        dns.at(1) * 100.0,
        dns.max(),
        dns.len()
    );
    let _ = writeln!(out, "== Figure 7: vendors flagging a known C2 ==");
    let _ = writeln!(
        out,
        "P(<=2 vendors) = {:.1}% (paper ~25%); median = {}; max = {}",
        vend.at(2) * 100.0,
        vend.quantile(0.5),
        vend.max()
    );
    out
}

/// Figure 8: per-vulnerability daily usage.
pub fn fig8(data: &Datasets) -> String {
    let series = analysis::fig8(data);
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 8: samples/day per exploit group ==");
    for (group, days) in &series {
        let total: u64 = days.values().sum();
        let peak = days.values().max().copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "  v{group:<2} days-active={:<4} total={total:<5} peak/day={peak}",
            days.len()
        );
    }
    let _ = writeln!(
        out,
        "(paper: four vulnerabilities—GPON pair, D-Link HNAP, MVPower—dominate consistently)"
    );
    out
}

/// Figure 9: loader filename frequencies.
pub fn fig9(data: &Datasets) -> String {
    let c = analysis::fig9(data);
    let mut out = c.render_bars("== Figure 9: loader filename frequencies ==");
    let _ = writeln!(
        out,
        "(paper: t8UsA2.sh 14, Tsunamix6 ~12, ddns.sh ~10, 8UsA.sh ~8, wget.sh ~6, zyxel.sh ~4, jaws.sh ~2)"
    );
    out
}

/// Figure 10: DDoS attacks by protocol.
pub fn fig10(data: &Datasets) -> String {
    let c = analysis::fig10(data);
    let total = c.total().max(1);
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 10: DDoS attacks by target protocol ==");
    for (proto, n) in c.sorted() {
        let _ = writeln!(
            out,
            "  {proto:<5} {n:>4}  ({:.0}%)",
            n as f64 * 100.0 / total as f64
        );
    }
    let _ = writeln!(out, "(paper: UDP 74% dominant; rest TCP/DNS/ICMP)");
    out
}

/// Figure 11: attack type × family.
pub fn fig11(data: &Datasets) -> String {
    let m = analysis::fig11(data);
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 11: attack types by family ==");
    for fam in [Family::Mirai, Family::Gafgyt, Family::Daddyl33t] {
        let mut parts: Vec<String> = Vec::new();
        let mut total = 0;
        for ((f, meth), n) in &m {
            if *f == fam {
                parts.push(format!("{meth}×{n}"));
                total += n;
            }
        }
        let _ = writeln!(
            out,
            "  {:<10} total={:<3} {}",
            fam.label(),
            total,
            parts.join(", ")
        );
    }
    let _ = writeln!(
        out,
        "(paper: Mirai most attacks; Daddyl33t second and most diverse; Gafgyt fewest)"
    );
    out
}

/// Figure 12: targets by AS type.
pub fn fig12(world: &World, data: &Datasets) -> String {
    let f = analysis::fig12(data, &world.asdb);
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 12: DDoS targets by AS type ==");
    let _ = writeln!(
        out,
        "target ASes: {} (paper 23) across {} countries (paper 11)",
        f.as_count, f.countries
    );
    for (kind, share) in &f.kind_share {
        let _ = writeln!(out, "  {kind:<10} {share:.0}%");
    }
    let _ = writeln!(
        out,
        "gaming-specialised ASes: {:.0}% (paper 18%); paper shares: ISP 45%, Hosting 36%, rest business",
        f.gaming_share
    );
    out
}

/// Figure 13: C2 spread across ASes.
pub fn fig13(data: &Datasets) -> String {
    let (cdf, n) = analysis::fig13(data);
    format!(
        "== Figure 13: C2 spread across ASes ==\nASes hosting C2s: {n} (paper 128); \
         max C2s in one AS: {}; P(AS hosts 1 C2) = {:.0}%\n",
        cdf.max(),
        cdf.at(1) * 100.0
    )
}

/// §3.1/§3.2/§5 headline statistics.
pub fn stats(data: &Datasets) -> String {
    let h = analysis::headline(data);
    let mut out = String::new();
    let _ = writeln!(out, "== Headline statistics ==");
    let _ = writeln!(
        out,
        "downloaders: {} distinct, {} co-located with C2s (paper: 47, 35)",
        h.downloaders, h.downloaders_also_c2
    );
    let _ = writeln!(
        out,
        "samples with all C2s dead on day 0: {:.1}% (paper 60%)",
        h.day0_dead_rate
    );
    let _ = writeln!(
        out,
        "mean observed C2 lifespan: {:.1} d (paper ~4); attack C2s: {:.1} d (paper ~10)",
        h.mean_lifespan, h.attack_c2_mean_lifespan
    );
    let _ = writeln!(
        out,
        "DDoS: {} commands from {} C2s to {} samples (paper 42/17/20)",
        h.ddos_commands, h.ddos_c2s, h.ddos_samples
    );
    let _ = writeln!(
        out,
        "targets hit by >1 attack type: {:.0}% (paper 25%); attack C2s unknown to feeds: {} (paper 2)",
        h.multi_type_targets, h.unknown_attack_c2s
    );
    out
}

/// Instrument evaluation vs ground truth.
pub fn evaluation(world: &World, data: &Datasets) -> String {
    format!(
        "== Instrument evaluation vs ground truth ==\n{}\n\
         (paper: ~90% activation rate; CnCHunter ~90% C2 precision)\n",
        eval::evaluate(world, data)
    )
}

/// What a renderer reads: one study's world, datasets and vendor
/// feeds, and the day of the late threat-intel query (Table 7).
pub struct Study<'a> {
    /// The generated world.
    pub world: &'a World,
    /// The study's datasets.
    pub data: &'a Datasets,
    /// Vendor-feed state after the study.
    pub vendors: &'a VendorDb,
    /// Day of the late threat-intel query.
    pub late_day: u32,
}

/// One renderer and the artefact names that select it.
pub struct Artefact {
    /// Names for `repro --only`; one renderer prints all of Figures 2–3
    /// and all of Figures 5–7, so it answers to each of their names.
    pub names: &'static [&'static str],
    /// The renderer.
    pub render: fn(&Study) -> String,
}

/// Every artefact, in paper order. [`all`] prints each once; `repro
/// --only <name>` prints the one [`find`] returns.
pub const ARTEFACTS: &[Artefact] = &[
    Artefact {
        names: &["table1"],
        render: |s| table1(s.data),
    },
    Artefact {
        names: &["table2"],
        render: |s| table2(s.world, s.data),
    },
    Artefact {
        names: &["table3"],
        render: |s| table3(s.data),
    },
    Artefact {
        names: &["table4"],
        render: |s| table4(s.data),
    },
    Artefact {
        names: &["table5"],
        render: |_| table5(),
    },
    Artefact {
        names: &["table7"],
        render: |s| table7(s.vendors, s.data, s.late_day),
    },
    Artefact {
        names: &["fig1"],
        render: |s| fig1(s.world, s.data),
    },
    Artefact {
        names: &["fig2", "fig3"],
        render: |s| fig2_fig3(s.data),
    },
    Artefact {
        names: &["fig4"],
        render: |s| fig4(s.data),
    },
    Artefact {
        names: &["fig5", "fig6", "fig7"],
        render: |s| fig5_fig6_fig7(s.data),
    },
    Artefact {
        names: &["fig8"],
        render: |s| fig8(s.data),
    },
    Artefact {
        names: &["fig9"],
        render: |s| fig9(s.data),
    },
    Artefact {
        names: &["fig10"],
        render: |s| fig10(s.data),
    },
    Artefact {
        names: &["fig11"],
        render: |s| fig11(s.data),
    },
    Artefact {
        names: &["fig12"],
        render: |s| fig12(s.world, s.data),
    },
    Artefact {
        names: &["fig13"],
        render: |s| fig13(s.data),
    },
    Artefact {
        names: &["stats"],
        render: |s| stats(s.data),
    },
    Artefact {
        names: &["evaluation"],
        render: |s| evaluation(s.world, s.data),
    },
];

/// The artefact `name` selects, if any.
pub fn find(name: &str) -> Option<&'static Artefact> {
    ARTEFACTS.iter().find(|a| a.names.contains(&name))
}

/// Every artefact name, in paper order.
pub fn names() -> impl Iterator<Item = &'static str> {
    ARTEFACTS.iter().flat_map(|a| a.names.iter().copied())
}

/// Everything, in paper order.
pub fn all(world: &World, data: &Datasets, vendors: &VendorDb, late_day: u32) -> String {
    let study = Study {
        world,
        data,
        vendors,
        late_day,
    };
    let mut out = String::new();
    for artefact in ARTEFACTS {
        out.push_str(&(artefact.render)(&study));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name listed twice would select only its first artefact.
    #[test]
    fn every_name_selects_one_artefact() {
        let names: Vec<&str> = names().collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is listed twice");
        }
        assert_eq!(find("fig3").map(|a| a.names), Some(&["fig2", "fig3"][..]));
    }
}
