//! Chart the pipeline's degradation frontier: sweep a `fault_seed` ×
//! fault-intensity grid of emulator-only fault plans
//! ([`FaultPlan::emu_sweep`]) over the fast study, score every cell
//! against ground truth (C2 recall/precision, C2-lifetime error,
//! activation rate via `malnet_core::eval`), and write the
//! `malnet.chaos_sweep` v1 artifact to `results/chaos_sweep.json`
//! (documented in EXPERIMENTS.md) through [`write_artifact`], which
//! re-reads it before this binary checks the grid.
//!
//! Two hard gates, both enforced here (CI runs this on every push):
//!
//! * the **zero cell** — every `intensity 0.0` cell must be
//!   byte-identical (canonical dump) to a chaos-free baseline run,
//!   proving the emulator fault domain draws nothing when disabled;
//! * the **frontier must exist** — the top-intensity cells must have
//!   actually injected faults (a sweep that perturbs nothing charts
//!   nothing).
//!
//! Sweep progress goes to `results/events_chaos_sweep.jsonl` as a
//! `malnet.events` v1 stream (one heartbeat + one `sweep_cell` rollup
//! per cell), observable live with
//! `study_watch --follow --events results/events_chaos_sweep.jsonl`
//! and self-validated here after the run.
//!
//! Usage:
//! `cargo run -p malnet-bench --release --bin chaos_sweep -- [--samples N] [--seed S] [--fault-seed N]`

use std::fmt::Write as _;

use malnet_bench::{exit_on_failures, parse_chaos_args, write_artifact};
use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::chaos::FaultPlan;
use malnet_core::datasets::HealthKind;
use malnet_core::eval::{c2_lifetime_error, evaluate};
use malnet_core::{Datasets, Pipeline, PipelineOpts};
use malnet_prng::fnv1a;
use malnet_telemetry::{json, EventSink, Field};

/// Schema identifier and version of the sweep artifact.
const SCHEMA: &str = "malnet.chaos_sweep";
const VERSION: u64 = 1;

/// Default first fault seed of the sweep (`--fault-seed` overrides);
/// the second seed is derived so the grid always has two rows.
const FAULT_SEED: u64 = 7;
/// Offset to the sweep's second fault seed.
const SEED_STRIDE: u64 = 14;
/// Fault-intensity axis: `0.0` (the gated zero cell) up to the full
/// `emu_sweep` rates. Kept in per-mille so the values are exact.
const INTENSITY_MILLE: &[u64] = &[0, 350, 700, 1000];

/// One scored sweep cell.
struct Cell {
    fault_seed: u64,
    intensity: f64,
    c2_recall: f64,
    c2_precision: f64,
    lifetime_error: f64,
    activation_rate: f64,
    profiled: usize,
    degradation_rows: usize,
    emu_fault_rows: usize,
    /// FNV-1a of the canonical dataset dump: two equal hashes in the
    /// artifact are two byte-identical runs.
    dump_hash: u64,
    matches_baseline: bool,
}

fn run_cell(world: &World, seed: u64, samples: usize, plan: FaultPlan) -> Datasets {
    let popts = PipelineOpts {
        seed,
        parallelism: 2,
        max_samples: Some(samples),
        faults: plan,
        syn_retries: 1,
        ..PipelineOpts::fast()
    };
    let (data, _vendors) = Pipeline::new(popts).run(world);
    data
}

fn emu_fault_rows(data: &Datasets) -> usize {
    data.health
        .rows
        .iter()
        .filter(|r| r.kind == HealthKind::EmuFault)
        .count()
}

fn main() {
    let (opts, fault_seed) = parse_chaos_args();
    let samples = opts.samples.unwrap_or(48); // CI-sized corpus; still hits every stage
    let first_seed = fault_seed.unwrap_or(FAULT_SEED);
    let fault_seeds = [first_seed, first_seed.wrapping_add(SEED_STRIDE)];
    let intensities: Vec<f64> = INTENSITY_MILLE.iter().map(|&m| m as f64 / 1000.0).collect();

    let world = World::generate(WorldConfig {
        seed: opts.seed,
        n_samples: samples,
        cal: Calibration::default(),
    });

    // --- the chaos-free baseline every zero cell must reproduce ---
    let baseline = run_cell(&world, opts.seed, samples, FaultPlan::none());
    let baseline_dump = baseline.canonical_dump();
    let baseline_hash = fnv1a(baseline_dump.as_bytes());
    let baseline_eval = evaluate(&world, &baseline);
    let baseline_lifetime = c2_lifetime_error(&world, &baseline);
    println!(
        "baseline: {} profiled, recall {:.1}%, precision {:.1}%, lifetime err {:.2}d (dump {baseline_hash:#018x})",
        baseline.samples.len(),
        baseline_eval.c2_recall,
        baseline_eval.c2_precision,
        baseline_lifetime,
    );

    // --- the sweep, streamed as malnet.events v1 ---
    let events_path = std::path::Path::new("results/events_chaos_sweep.jsonl");
    let sink = EventSink::create(events_path).expect("create sweep event stream");
    sink.emit(
        "study_start",
        None,
        &[
            ("seed", Field::U(opts.seed)),
            ("samples", Field::U(samples as u64)),
            (
                "sweep_cells",
                Field::U((fault_seeds.len() * intensities.len()) as u64),
            ),
        ],
    );
    let mut cells: Vec<Cell> = Vec::new();
    let mut samples_done: u64 = 0;
    for &fs in &fault_seeds {
        for (i, &intensity) in intensities.iter().enumerate() {
            let plan = FaultPlan::emu_sweep(fs, intensity);
            let data = run_cell(&world, opts.seed, samples, plan);
            let dump = data.canonical_dump();
            let hash = fnv1a(dump.as_bytes());
            let ev = evaluate(&world, &data);
            let cell = Cell {
                fault_seed: fs,
                intensity,
                c2_recall: ev.c2_recall,
                c2_precision: ev.c2_precision,
                lifetime_error: c2_lifetime_error(&world, &data),
                activation_rate: ev.activation_rate,
                profiled: data.samples.len(),
                degradation_rows: data.health.rows.len(),
                emu_fault_rows: emu_fault_rows(&data),
                dump_hash: hash,
                matches_baseline: dump == baseline_dump,
            };
            samples_done += data.samples.len() as u64;
            sink.emit(
                "heartbeat",
                None,
                &[("samples_completed", Field::U(samples_done))],
            );
            sink.emit(
                "rollup",
                Some("sweep_cell"),
                &[
                    ("fault_seed", Field::U(fs)),
                    ("intensity_mille", Field::U(INTENSITY_MILLE[i])),
                    ("profiled", Field::U(cell.profiled as u64)),
                    ("degradation_rows", Field::U(cell.degradation_rows as u64)),
                    ("emu_fault_rows", Field::U(cell.emu_fault_rows as u64)),
                    (
                        "recall_bp",
                        Field::U((cell.c2_recall * 100.0).round() as u64),
                    ),
                    (
                        "precision_bp",
                        Field::U((cell.c2_precision * 100.0).round() as u64),
                    ),
                    (
                        "lifetime_err_millidays",
                        Field::U((cell.lifetime_error * 1000.0).round() as u64),
                    ),
                ],
            );
            println!(
                "cell seed={fs} intensity={intensity:.2}: recall {:>5.1}% precision {:>5.1}% \
                 lifetime err {:>5.2}d | {} degradation rows ({} emu) {}",
                cell.c2_recall,
                cell.c2_precision,
                cell.lifetime_error,
                cell.degradation_rows,
                cell.emu_fault_rows,
                if cell.matches_baseline {
                    "[= baseline]"
                } else {
                    ""
                },
            );
            cells.push(cell);
        }
    }
    sink.finish();

    // --- gates ---
    let mut failures: Vec<String> = Vec::new();
    for c in &cells {
        if c.intensity == 0.0 && (!c.matches_baseline || c.dump_hash != baseline_hash) {
            failures.push(format!(
                "zero-rate cell (fault_seed {}) diverged from the chaos-free \
                 baseline: dump {:#018x} != {baseline_hash:#018x} — the emulator \
                 fault domain is not inert at rate zero",
                c.fault_seed, c.dump_hash
            ));
        }
    }
    let top = intensities.last().copied().unwrap_or(1.0);
    if !cells
        .iter()
        .any(|c| c.intensity == top && !c.matches_baseline)
    {
        failures.push(format!(
            "no top-intensity ({top}) cell diverged from baseline — injection inert, \
             the sweep charts nothing"
        ));
    }

    // --- assemble malnet.chaos_sweep v1 ---
    let mut out = String::new();
    let _ = write!(out, "{{\"schema\":\"{SCHEMA}\",\"version\":{VERSION},");
    let _ = write!(
        out,
        "\"samples\":{},\"seed\":{},\"fault_seeds\":[{},{}],",
        samples, opts.seed, fault_seeds[0], fault_seeds[1]
    );
    out.push_str("\"intensities\":[");
    for (i, x) in intensities.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push_str("],");
    let _ = write!(
        out,
        "\"baseline\":{{\"dump_fnv64\":{baseline_hash},\"profiled\":{},\
         \"c2_recall\":{},\"c2_precision\":{},\"c2_lifetime_error\":{},\
         \"activation_rate\":{}}},",
        baseline.samples.len(),
        baseline_eval.c2_recall,
        baseline_eval.c2_precision,
        baseline_lifetime,
        baseline_eval.activation_rate,
    );
    out.push_str("\"cells\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"fault_seed\":{},\"intensity\":{},\"c2_recall\":{},\
             \"c2_precision\":{},\"c2_lifetime_error\":{},\"activation_rate\":{},\
             \"profiled\":{},\"degradation_rows\":{},\"emu_fault_rows\":{},\
             \"dump_fnv64\":{},\"matches_baseline\":{}}}",
            c.fault_seed,
            c.intensity,
            c.c2_recall,
            c.c2_precision,
            c.lifetime_error,
            c.activation_rate,
            c.profiled,
            c.degradation_rows,
            c.emu_fault_rows,
            c.dump_hash,
            c.matches_baseline,
        );
    }
    out.push_str("]}");

    // --- self-validation: artifact ---
    let path = std::path::Path::new("results/chaos_sweep.json");
    match write_artifact(path, &out, SCHEMA, VERSION) {
        Err(e) => failures.push(e),
        Ok(v) => {
            let seeds = v
                .get("fault_seeds")
                .and_then(|a| a.as_array())
                .map_or(0, <[_]>::len);
            let rates = v
                .get("intensities")
                .and_then(|a| a.as_array())
                .map_or(0, <[_]>::len);
            if seeds < 2 || rates < 3 {
                failures.push(format!(
                    "grid too small: {seeds} seeds × {rates} intensities (need ≥2 × ≥3)"
                ));
            }
            let n_cells = v
                .get("cells")
                .and_then(|a| a.as_array())
                .map_or(0, <[_]>::len);
            if n_cells != seeds * rates {
                failures.push(format!(
                    "cells round-trip mismatch: {n_cells} cells for a {seeds}×{rates} grid"
                ));
            }
            if let Some(arr) = v.get("cells").and_then(|a| a.as_array()) {
                for c in arr {
                    let recall = c
                        .get("c2_recall")
                        .and_then(json::Value::as_f64)
                        .unwrap_or(-1.0);
                    if !(0.0..=100.0).contains(&recall) {
                        failures.push(format!("cell has out-of-range c2_recall {recall}"));
                    }
                }
            }
        }
    }

    // --- self-validation: event stream ---
    let stream = std::fs::read_to_string(events_path).expect("re-read sweep event stream");
    match malnet_telemetry::events::validate_stream(&stream) {
        Err(e) => failures.push(format!("sweep event stream invalid: {e}")),
        Ok(summary) => {
            if summary.heartbeats != cells.len() as u64 {
                failures.push(format!(
                    "sweep stream has {} heartbeats for {} cells",
                    summary.heartbeats,
                    cells.len()
                ));
            }
            let rollups = summary
                .rollups
                .iter()
                .filter(|(k, _)| k == "sweep_cell")
                .count();
            if rollups != cells.len() {
                failures.push(format!(
                    "sweep stream has {rollups} sweep_cell rollups for {} cells",
                    cells.len()
                ));
            }
        }
    }

    exit_on_failures(&failures);

    // --- the frontier, charted ---
    println!("\ndegradation frontier (seed-averaged):");
    println!("intensity | recall | precision | lifetime err | emu rows");
    for &intensity in &intensities {
        let row: Vec<&Cell> = cells.iter().filter(|c| c.intensity == intensity).collect();
        let n = row.len() as f64;
        let recall = row.iter().map(|c| c.c2_recall).sum::<f64>() / n;
        let precision = row.iter().map(|c| c.c2_precision).sum::<f64>() / n;
        let lifetime = row.iter().map(|c| c.lifetime_error).sum::<f64>() / n;
        let emu: usize = row.iter().map(|c| c.emu_fault_rows).sum();
        let bar = "#".repeat((recall / 5.0).round() as usize);
        println!(
            "   {intensity:>5.2}  | {recall:>5.1}% | {precision:>8.1}% | {lifetime:>9.2}d | {emu:>8} {bar}"
        );
    }
    println!(
        "chaos sweep OK: {} cells, zero cells byte-identical to baseline ({baseline_hash:#018x})",
        cells.len()
    );
}
