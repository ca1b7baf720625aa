//! # malnet-bench — table/figure regeneration and benchmarks
//!
//! The `repro` binary regenerates the paper's tables and figures from
//! one full pipeline run and prints them next to the paper's reported
//! values: all of them in paper order, or one with `--only <name>`
//! (the names and renderers are [`render::ARTEFACTS`]). Component
//! benches (`benches/components.rs`, on the in-repo [`timing`]
//! harness) measure the performance of every pipeline component; the
//! `ablations` binary sweeps the design knobs DESIGN.md calls out; the
//! `run_report`, `chaos_run`, `chaos_sweep`, `static_xval` and
//! `lint_report` binaries write and self-validate the `results/`
//! artifacts, and `study_watch` follows or validates an event stream.
//!
//! The study binaries take the common flags of [`parse_args`]. `repro`
//! defaults to the paper's 1447 samples at seed 22, the others to a
//! CI-sized corpus; smaller corpora run in seconds and preserve the
//! shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod render;
pub mod timing;

use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::{Datasets, Pipeline, PipelineOpts};
use malnet_intel::VendorDb;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Corpus size.
    pub samples: usize,
    /// Seed.
    pub seed: u64,
    /// Use fast (reduced-duration) pipeline settings.
    pub fast: bool,
    /// Chaos fault seed override (`--fault-seed N`); the chaos binaries
    /// fall back to their own fixed default when absent.
    pub fault_seed: Option<u64>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            samples: 1447,
            seed: 22,
            fast: false,
            fault_seed: None,
        }
    }
}

/// The common flags, as printed on a usage error.
const USAGE: &str = "usage: [--samples N] [--seed S] [--fast] [--fault-seed N]";

/// Parse `--samples N --seed S --fast --fault-seed N` from argv; on an
/// unknown flag or a missing or malformed value, print the error and
/// [`USAGE`] and exit 2.
pub fn parse_args() -> RunOpts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args_from(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2)
    })
}

/// Parse the common flags from `args` (argv without the program name).
pub fn parse_args_from(args: &[String]) -> Result<RunOpts, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: malformed value {v:?}"))
    }
    let mut opts = RunOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--samples" => opts.samples = value(arg, it.next())?,
            "--seed" => opts.seed = value(arg, it.next())?,
            "--fault-seed" => opts.fault_seed = Some(value(arg, it.next())?),
            "--fast" => opts.fast = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Generate the world and run the full pipeline once.
pub fn run_study(opts: &RunOpts) -> (World, Datasets, VendorDb) {
    let world = World::generate(WorldConfig {
        seed: opts.seed,
        n_samples: opts.samples,
        cal: Calibration::default(),
    });
    let popts = if opts.fast {
        PipelineOpts {
            seed: opts.seed,
            ..PipelineOpts::fast()
        }
    } else {
        PipelineOpts {
            seed: opts.seed,
            // The paper's parameters, scaled to what the discrete-event
            // simulation needs: a 7-minute contained run reaches the
            // handshaker threshold; restricted sessions must outlast the
            // latest scheduled command (28 min + attack duration).
            contained_secs: 420,
            restricted_secs: 4200,
            probe_rounds: 84,
            probe_hosts_per_subnet: 120,
            ..Default::default()
        }
    };
    let (data, vendors) = Pipeline::new(popts).run(&world);
    (world, data, vendors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOpts, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args_from(&args)
    }

    #[test]
    fn every_flag_parses() {
        let opts = parse(&[
            "--samples",
            "60",
            "--seed",
            "5",
            "--fast",
            "--fault-seed",
            "9",
        ])
        .unwrap();
        assert_eq!(opts.samples, 60);
        assert_eq!(opts.seed, 5);
        assert!(opts.fast);
        assert_eq!(opts.fault_seed, Some(9));
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.samples, defaults.seed), (1447, 22));
        assert!(!defaults.fast && defaults.fault_seed.is_none());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["--sample", "60"]).unwrap_err();
        assert!(err.contains("--sample"), "{err}");
        assert!(parse(&["60"]).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        for flag in ["--samples", "--seed", "--fault-seed"] {
            let err = parse(&["--fast", flag]).unwrap_err();
            assert!(err.contains("needs a value"), "{err}");
        }
    }

    #[test]
    fn malformed_value_is_an_error() {
        assert!(parse(&["--samples", "sixty"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        // A flag is not a value.
        assert!(parse(&["--samples", "--fast"]).is_err());
    }
}
