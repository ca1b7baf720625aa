//! Ablation sweeps for the design knobs DESIGN.md calls out.
//!
//! * handshaker threshold (paper: 20 distinct addresses per port)
//! * behavioural DDoS threshold (paper: 100 pps)
//! * probe cadence (paper: 4 hours)
//! * AV corroboration bar (paper: 5 engines)
//!
//! Usage: `cargo run -p malnet-bench --release --bin ablations -- [--samples N]`

use malnet_bench::parse_args;
use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::prober::{self, run_probing, ProbeConfig};
use malnet_core::{Pipeline, PipelineOpts};
use malnet_intel::engines::EngineModel;

fn main() {
    let opts = parse_args();
    let samples = opts.samples.unwrap_or(120); // ablations sweep many runs; keep each small
    let world = World::generate(WorldConfig {
        seed: opts.seed,
        n_samples: samples,
        cal: Calibration::default(),
    });

    println!("== Ablation 1: handshaker threshold (paper: 20) ==");
    println!(
        "{:>10} {:>18} {:>14}",
        "threshold", "exploit samples", "payloads"
    );
    for threshold in [1usize, 5, 20, 60, 200] {
        let p = PipelineOpts {
            handshaker_threshold: threshold,
            max_samples: Some(samples),
            run_probing: false,
            restricted_secs: 60, // exploits only; skip long sessions
            ..PipelineOpts::fast()
        };
        let (data, _) = Pipeline::new(p).run(&world);
        println!(
            "{:>10} {:>18} {:>14}",
            threshold,
            data.exploit_sample_count(),
            data.exploits.len()
        );
    }
    println!("(higher thresholds delay victim impersonation until more of the pool is scanned;\n past the pool size, no exploits are ever captured)");

    println!("\n== Ablation 2: behavioural DDoS threshold (paper: 100 pps) ==");
    println!(
        "{:>10} {:>10} {:>22}",
        "pps", "commands", "behavioural detections"
    );
    for pps in [10u64, 50, 100, 300, 1000] {
        let p = PipelineOpts {
            pps_threshold: pps,
            max_samples: Some(samples),
            run_probing: false,
            ..PipelineOpts::fast()
        };
        let (data, _) = Pipeline::new(p).run(&world);
        let behavioural = data
            .ddos
            .iter()
            .filter(|d| {
                matches!(
                    d.detection,
                    malnet_core::datasets::DdosDetection::Behavioral
                        | malnet_core::datasets::DdosDetection::Both
                )
            })
            .count();
        println!("{:>10} {:>10} {:>22}", pps, data.ddos.len(), behavioural);
    }
    println!(
        "(below bot flood rates the heuristic corroborates the profiler; above them it goes blind)"
    );

    println!("\n== Ablation 3: probe cadence (paper: 6/day = 4 h) ==");
    let weapons = prober::weapons(&world);
    println!(
        "{:>12} {:>8} {:>10} {:>16}",
        "probes/day", "servers", "responses", "resp/probe-day"
    );
    for per_day in [1u32, 2, 6, 12] {
        let cfg = ProbeConfig {
            rounds: per_day * 4, // four virtual days each
            rounds_per_day: per_day,
            hosts_per_subnet: 40,
            ..ProbeConfig::from_world(&world)
        };
        let probed = run_probing(
            &world,
            &weapons,
            &cfg,
            opts.seed,
            &malnet_telemetry::Telemetry::disabled(),
        );
        let responses: usize = probed.iter().map(|p| p.responses()).sum();
        println!(
            "{:>12} {:>8} {:>10} {:>16.2}",
            per_day,
            probed.len(),
            responses,
            responses as f64 / 4.0
        );
    }
    println!(
        "(sparse cadences miss elusive servers entirely — the paper's case for persistent probing)"
    );

    println!("\n== Ablation 4: AV corroboration bar (paper: 5 engines) ==");
    println!("{:>6} {:>12}", "bar", "corpus kept");
    let model = EngineModel::new(opts.seed);
    let detections: Vec<u32> = (0..2000)
        .map(|id| model.detections_for_malware(0, id))
        .collect();
    for bar in [1u32, 3, 5, 10, 30, 50] {
        let kept = detections.iter().filter(|&&d| d >= bar).count();
        println!(
            "{:>6} {:>11.1}%",
            bar,
            kept as f64 * 100.0 / detections.len() as f64
        );
    }
    println!(
        "(5 engines keeps ~98% of true malware; aggressive bars shed fresh low-consensus samples)"
    );
}
