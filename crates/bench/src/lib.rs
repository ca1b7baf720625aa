//! # malnet-bench — table/figure regeneration and the study binaries
//!
//! The `repro` binary regenerates the paper's tables and figures from
//! one full pipeline run and prints them next to the paper's reported
//! values: all of them in paper order, or one with `--only <name>`
//! (the names and renderers are [`render::ARTEFACTS`]). The
//! `ablations` binary sweeps the design knobs DESIGN.md calls out; the
//! `run_report`, `chaos_run`, `chaos_sweep`, `static_xval` and
//! `lint_report` binaries write their `results/` artifacts through
//! [`write_artifact`] and then check their own content, and
//! `study_watch` follows or validates an event stream.
//! The study benchmark (`benchmark/`) measures performance end to end;
//! `tests/perf_gates.rs` keeps two component costs gated.
//!
//! The study binaries take the common flags of [`parse_args`]; the
//! chaos binaries also take `--fault-seed N` ([`parse_chaos_args`]).
//! `repro` defaults to the paper's 1447 samples at seed 22, the others
//! to a CI-sized corpus; smaller corpora run in seconds and preserve
//! the shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod render;

use std::path::Path;

use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::{Datasets, Pipeline, PipelineOpts};
use malnet_intel::VendorDb;
use malnet_telemetry::json::{self, Value};

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Corpus size; `None` when `--samples` is absent, and each binary
    /// names its own default.
    pub samples: Option<usize>,
    /// Seed.
    pub seed: u64,
    /// Use fast (reduced-duration) pipeline settings.
    pub fast: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            samples: None,
            seed: 22,
            fast: false,
        }
    }
}

/// The common flags, as printed on a usage error.
const USAGE: &str = "usage: [--samples N] [--seed S] [--fast]";

/// Parse `--samples N --seed S --fast` from argv; on an unknown flag or
/// a missing or malformed value, print the error and the usage line and
/// exit 2.
pub fn parse_args() -> RunOpts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args_from(&args).unwrap_or_else(|e| usage_error(&e, USAGE))
}

/// [`parse_args`] for the chaos binaries, which also take
/// `--fault-seed N`: the seed of their fault plan, `None` when absent.
pub fn parse_chaos_args() -> (RunOpts, Option<u64>) {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = take_flag(&mut args, "--fault-seed").and_then(|seed| {
        let seed = seed.map(|v| parse_value("--fault-seed", &v)).transpose()?;
        Ok((parse_args_from(&args)?, seed))
    });
    parsed.unwrap_or_else(|e| usage_error(&e, &format!("{USAGE} [--fault-seed N]")))
}

/// Print a command-line error and the usage line, and exit 2.
pub fn usage_error(err: &str, usage: &str) -> ! {
    eprintln!("{err}\n{usage}");
    std::process::exit(2)
}

/// Take `flag` and its value out of `args`, so that the common flags
/// parse from what is left: how a binary adds a flag of its own.
/// `Ok(None)` when the flag is absent.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.remove(at);
    if at == args.len() {
        return Err(format!("{flag} needs a value"));
    }
    Ok(Some(args.remove(at)))
}

fn parse_value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: malformed value {v:?}"))
}

/// Parse the common flags from `args` (argv without the program name).
pub fn parse_args_from(args: &[String]) -> Result<RunOpts, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        parse_value(flag, v.ok_or_else(|| format!("{flag} needs a value"))?)
    }
    let mut opts = RunOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--samples" => opts.samples = Some(value(arg, it.next())?),
            "--seed" => opts.seed = value(arg, it.next())?,
            "--fast" => opts.fast = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Generate the world and run the full pipeline once, over the paper's
/// 1447 samples unless `--samples` says otherwise.
pub fn run_study(opts: &RunOpts) -> (World, Datasets, VendorDb) {
    let world = World::generate(WorldConfig {
        seed: opts.seed,
        n_samples: opts.samples.unwrap_or(1447),
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

/// Write a versioned JSON artifact and check it as read back: create
/// the directory, write `text` to `path`, re-read and parse the file,
/// and require its `schema` and `version` fields. Returns the parsed
/// document for the binary's own content checks.
pub fn write_artifact(
    path: &Path,
    text: &str,
    schema: &str,
    version: u64,
) -> Result<Value, String> {
    let at = path.display();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {at}: {e}"))?;
    let reread = std::fs::read_to_string(path).map_err(|e| format!("cannot re-read {at}: {e}"))?;
    let v = json::parse(&reread).map_err(|e| format!("{at} is not valid JSON: {e}"))?;
    if v.get("schema").and_then(Value::as_str) != Some(schema) {
        return Err(format!("{at}: schema field missing or not {schema:?}"));
    }
    if v.get("version").and_then(Value::as_u64) != Some(version) {
        return Err(format!("{at}: version field missing or not {version}"));
    }
    println!("wrote {at} ({} bytes)", text.len());
    Ok(v)
}

/// Print every failure and exit 1 if there is one.
pub fn exit_on_failures(failures: &[String]) {
    if failures.is_empty() {
        return;
    }
    for f in failures {
        eprintln!("FAIL: {f}");
    }
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_artifact_rejects_a_wrong_schema_and_unparseable_text() {
        let dir = std::env::temp_dir().join(format!("malnet-artifact-{}", std::process::id()));
        let path = dir.join("nested/a.json");
        let good = r#"{"schema":"malnet.x","version":2,"n":7}"#;
        let v = write_artifact(&path, good, "malnet.x", 2).expect("valid artifact");
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good);
        let err = write_artifact(&path, good, "malnet.y", 2).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let err = write_artifact(&path, good, "malnet.x", 1).unwrap_err();
        assert!(err.contains("version"), "{err}");
        let err = write_artifact(&path, r#"{"schema":"malnet.x","#, "malnet.x", 2).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn parse(args: &[&str]) -> Result<RunOpts, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args_from(&args)
    }

    #[test]
    fn every_flag_parses() {
        let opts = parse(&["--samples", "60", "--seed", "5", "--fast"]).unwrap();
        assert_eq!(opts.samples, Some(60));
        assert_eq!(opts.seed, 5);
        assert!(opts.fast);
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.samples, defaults.seed), (None, 22));
        assert!(!defaults.fast);
        // The paper's size is a value like any other, not "absent": a
        // binary with a CI-sized default still runs 1447 when asked.
        assert_eq!(parse(&["--samples", "1447"]).unwrap().samples, Some(1447));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["--sample", "60"]).unwrap_err();
        assert!(err.contains("--sample"), "{err}");
        assert!(parse(&["60"]).is_err());
        // Only the chaos binaries take `--fault-seed`, out of argv
        // before the common parse.
        let err = parse(&["--fault-seed", "9"]).unwrap_err();
        assert!(err.contains("--fault-seed"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        for flag in ["--samples", "--seed"] {
            let err = parse(&["--fast", flag]).unwrap_err();
            assert!(err.contains("needs a value"), "{err}");
        }
        let mut args = vec!["--fast".to_string(), "--fault-seed".to_string()];
        let err = take_flag(&mut args, "--fault-seed").unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn take_flag_leaves_the_common_flags() {
        let mut args: Vec<String> = ["--fast", "--fault-seed", "9", "--seed", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(take_flag(&mut args, "--fault-seed"), Ok(Some("9".into())));
        assert_eq!(args, ["--fast", "--seed", "5"]);
        assert_eq!(take_flag(&mut args, "--fault-seed"), Ok(None));
    }

    #[test]
    fn malformed_value_is_an_error() {
        assert!(parse(&["--samples", "sixty"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        // A flag is not a value.
        assert!(parse(&["--samples", "--fast"]).is_err());
    }
}
