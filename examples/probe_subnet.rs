//! The active-probing study in miniature (paper §2.3b / Figure 4).
//!
//! Generates a small world (whose probing theatre contains six suspicious
//! /24s and seven elusive C2 servers), weaponizes two corpus samples, and
//! sweeps the subnets for two virtual days on the paper's 4-hour cadence.
//! Prints the per-server response raster and the elusiveness statistics.
//!
//! Run: `cargo run --release --example probe_subnet`

use malnet::botgen::world::{Calibration, World, WorldConfig, PROBE_PORTS};
use malnet::core::analysis;
use malnet::core::datasets::Datasets;
use malnet::core::prober::{self, run_probing, ProbeConfig};

fn main() {
    let world = World::generate(WorldConfig {
        seed: 77,
        n_samples: 80,
        cal: Calibration::default(),
    });
    println!(
        "probing theatre: {} subnets, ports {:?}, window starts day {}",
        world.probe_subnets.len(),
        PROBE_PORTS,
        world.probe_start_day
    );

    // Weaponize one Mirai and one Gafgyt sample (clean call-home).
    let weapons = prober::weapons(&world);
    println!("weaponized samples: {}", weapons.len());

    let cfg = ProbeConfig {
        rounds: 12, // two days at 6 probes/day
        hosts_per_subnet: 100,
        ..ProbeConfig::from_world(&world)
    };
    let tel = malnet::telemetry::Telemetry::enabled();
    let probed = run_probing(&world, &weapons, &cfg, 1, &tel);
    let report = tel.report();
    println!(
        "probes sent: {}, listeners found: {}, engagements: {}",
        report.counter("prober.probes_sent").unwrap_or(0),
        report.counter("prober.listeners_found").unwrap_or(0),
        report.counter("prober.engagements").unwrap_or(0),
    );

    let data = Datasets {
        probed,
        ..Default::default()
    };
    println!("\nresponse raster (# = engaged, . = silent):");
    for p in &data.probed {
        let raster: String = p
            .probes
            .iter()
            .map(|(_, e)| if *e { '#' } else { '.' })
            .collect();
        println!("  {:>15}:{:<5} |{raster}|", p.ip.to_string(), p.port);
    }
    let f = analysis::fig4(&data, 6);
    println!(
        "\nservers found: {}; probe measurements: {}\n\
         silent after a successful probe: {:.1}% (paper: 91%)\n\
         any server answering a full day of probes: {} (paper: never)",
        f.servers, f.measurements, f.silent_after_success, f.any_full_day
    );
}
