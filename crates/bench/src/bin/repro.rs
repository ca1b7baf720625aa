//! Regenerates the paper's tables and figures from one full pipeline
//! run: every artefact in paper order, or with `--only <name>` one of
//! them (`table1` … `table5`, `table7`, `fig1` … `fig13`, `stats`,
//! `evaluation`).
//!
//! Usage: `cargo run -p malnet-bench --release --bin repro -- [--only <name>] [--samples N] [--seed S] [--fast]`

use malnet_bench::{parse_args_from, render, run_study};
use malnet_core::PipelineOpts;

const USAGE: &str = "usage: repro [--only <name>] [--samples N] [--seed S] [--fast]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = take_only(&mut args).and_then(|only| Ok((only, parse_args_from(&args)?)));
    let (only, opts) = parsed.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2)
    });
    let (world, data, vendors) = run_study(&opts);
    let late_day = PipelineOpts::default().late_query_day;
    let out = match only {
        Some(artefact) => (artefact.render)(&render::Study {
            world: &world,
            data: &data,
            vendors: &vendors,
            late_day,
        }),
        None => render::all(&world, &data, &vendors, late_day),
    };
    print!("{out}");
}

/// Take `--only <name>` out of `args` and look the name up, so the
/// common flags parse from what is left and a bad name fails before
/// any study runs.
fn take_only(args: &mut Vec<String>) -> Result<Option<&'static render::Artefact>, String> {
    let Some(at) = args.iter().position(|a| a == "--only") else {
        return Ok(None);
    };
    args.remove(at);
    if at == args.len() {
        return Err("--only needs a value".into());
    }
    let name = args.remove(at);
    match render::find(&name) {
        Some(artefact) => Ok(Some(artefact)),
        None => Err(format!(
            "unknown artefact {name:?}; valid: {}",
            render::names().collect::<Vec<_>>().join(", ")
        )),
    }
}
