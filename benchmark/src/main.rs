//! `benchmark`: the MalNet study benchmark.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! benchmark compare A.json B.json
//! ```
//!
//! One invocation runs one workload ([`workloads::WORKLOADS`]) in one
//! process. It prints every metric as `name value unit`, then, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! * `--trace 0` (run mode, [`run`]) times whole studies through
//!   `Pipeline::run` with telemetry off and reports the end-to-end
//!   metrics.
//! * `--trace 1` (trace mode, [`trace`]) rebuilds the same study from
//!   each layer's public entry points, times every call from outside,
//!   then replays the per-sample layers on the same inputs, and reports
//!   the per-layer metrics.
//!
//! Both modes check the study's output and exit 1 when a check fails.
//! `--out` writes every per-rep value to a `malnet.benchmark` v1 file,
//! and `compare` exits 1 when two such files' end-to-end medians differ
//! by more than a metric's bound ([`record`]). Usage errors exit 2.

mod record;
mod run;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use malnet_core::Datasets;
use workloads::{Spec, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
       benchmark compare A.json B.json
workloads: paper_study, fast_study, paper_study_par, chaos_study";

/// One measuring invocation, as parsed from the command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Measure(Args),
    Compare(PathBuf, PathBuf),
    Help,
}

/// Parse the arguments after the program name. Strict by design: an
/// unknown flag, subcommand or workload, a repeated flag, a missing or
/// malformed value all fail.
fn parse_args(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            return match &args[1..] {
                [a, b] => Ok(Command::Compare(PathBuf::from(a), PathBuf::from(b))),
                _ => Err("compare takes exactly two files".to_string()),
            }
        }
        Some("-h" | "--help") if args.len() == 1 => return Ok(Command::Help),
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let fresh = match flag.as_str() {
            "--workload" => workload
                .replace(
                    Workload::named(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
                .is_none(),
            "--seed" => seed.replace(number(flag, value)?).is_none(),
            "--seconds" => {
                let s = number(flag, value)?;
                if s == 0 {
                    return Err("`--seconds` must be at least 1".to_string());
                }
                seconds.replace(s).is_none()
            }
            "--trace" => match value.as_str() {
                "0" => trace.replace(false).is_none(),
                "1" => trace.replace(true).is_none(),
                _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
            },
            "--out" => out.replace(PathBuf::from(value)).is_none(),
            _ => return Err(format!("unknown flag `{flag}`")),
        };
        if !fresh {
            return Err(format!("`{flag}` given twice"));
        }
    }
    Ok(Command::Measure(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(RUN_SECONDS),
        trace: trace.unwrap_or(false),
        out,
    }))
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}` takes a whole number, not `{value}`"))
}

/// One metric's per-rep values; its reported value is their median.
#[derive(Debug, Clone)]
pub(crate) struct Metric {
    /// Name, as in [`workloads::END_TO_END`] or [`workloads::PER_LAYER`].
    pub(crate) name: &'static str,
    /// One value per rep (a single value for counts that cannot vary).
    pub(crate) values: Vec<f64>,
}

impl Metric {
    /// A metric from per-rep values.
    pub(crate) fn new(name: &'static str, values: Vec<f64>) -> Self {
        Metric { name, values }
    }

    /// The reported value.
    pub(crate) fn median(&self) -> f64 {
        median(&self.values)
    }
}

/// What one mode measured.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    /// Every metric of the mode's table, in table order.
    pub(crate) metrics: Vec<Metric>,
    /// Studies run (timed reps plus reference studies).
    pub(crate) studies: u64,
    /// Samples each study plans to analyze.
    pub(crate) samples_planned: u64,
    /// Timed reps.
    pub(crate) reps: usize,
    /// Worker threads the study used.
    pub(crate) parallelism: usize,
    /// Datasets digest shared by every study of the run.
    pub(crate) digest: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub(crate) problems: Vec<String>,
    /// Informational lines printed before the metrics.
    pub(crate) notes: Vec<String>,
    /// The benchmark's spans (trace mode).
    pub(crate) spans: Vec<trace::Span>,
}

/// The wall clock. Every timing in the benchmark reads it here.
pub(crate) fn now() -> Instant {
    // The benchmark times each layer from outside. lint: clock-ok
    Instant::now()
}

/// Seconds since `start`.
pub(crate) fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}

/// Run `f` and return its result with its wall time in seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = std::hint::black_box(f());
    (out, secs_since(start))
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub(crate) fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The digest every output check compares.
pub(crate) fn digest(data: &Datasets) -> u64 {
    malnet_prng::fnv1a(data.canonical_dump().as_bytes())
}

/// Generate the workload's corpus repeatedly and return the last world
/// with the per-generation time of each set-up sample. A sample repeats
/// the generation until [`SETUP_SAMPLE_SECS`] have passed, so the
/// 3 ms fast corpus is timed over many generations.
pub(crate) fn setup(w: &Workload) -> (malnet_botgen::world::World, Vec<f64>) {
    let mut per_generation = Vec::with_capacity(SETUP_SAMPLES);
    let mut world = None;
    for _ in 0..SETUP_SAMPLES {
        let mut spent = 0.0;
        let mut generations = 0u32;
        while generations == 0 || spent < SETUP_SAMPLE_SECS {
            let (w, s) = timed(|| w.world());
            spent += s;
            generations += 1;
            world = Some(w);
        }
        per_generation.push(spent / f64::from(generations));
    }
    (world.expect("SETUP_SAMPLES is positive"), per_generation)
}

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;
/// Minimum generation time one set-up sample accumulates.
const SETUP_SAMPLE_SECS: f64 = 0.2;

/// Host CPU count (every result that depends on threads reports it).
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Keep timing reps while another rep of `typical` seconds still fits in
/// `budget`, after at least `min_reps`.
pub(crate) fn another_rep(
    start: Instant,
    reps: usize,
    min_reps: usize,
    typical: f64,
    budget: Duration,
) -> bool {
    reps < min_reps || secs_since(start) + typical <= budget.as_secs_f64()
}

fn measure(args: &Args) -> Measured {
    let budget = Duration::from_secs(args.seconds);
    let mut m = if args.trace {
        trace::measure(args.workload, args.seed, budget)
    } else {
        run::measure(args.workload, args.seed, budget)
    };
    if m.parallelism < args.workload.parallelism {
        m.notes.push(format!(
            "{} asks for {} workers; this host has {} CPU(s), so the study ran on {}",
            args.workload.name,
            args.workload.parallelism,
            nproc(),
            m.parallelism
        ));
    }
    let table: &[Spec] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = m.metrics.iter().map(|x| x.name).collect();
    let expected: Vec<&str> = table.iter().map(|s| s.name).collect();
    if names != expected {
        m.problems.push(format!(
            "metrics {names:?} do not match the table {expected:?}"
        ));
    }
    for metric in &m.metrics {
        if metric.values.is_empty() || metric.values.iter().any(|v| !v.is_finite()) {
            m.problems.push(format!(
                "{} has no finite value: {:?}",
                metric.name, metric.values
            ));
        }
    }
    m
}

/// The result line: every metric's median with its unit.
fn result_json(m: &Measured) -> String {
    let correct = m.problems.is_empty();
    let attempted = (m.studies * m.samples_planned).max(1);
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|x| {
            let unit = workloads::spec(x.name).map_or("", |s| s.unit);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                x.name,
                finite(x.median())
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        if correct { 0 } else { attempted },
        metrics.join(", ")
    )
}

/// A JSON-safe number (JSON has no NaN or infinity).
pub(crate) fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Silence the worker panics `chaos_study` forces on purpose (the
/// pipeline quarantines them); any other panic keeps the default report.
fn quiet_forced_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let forced = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("chaos: forced"));
        if !forced {
            default(info);
        }
    }));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Command::Measure(args)) => args,
        Ok(Command::Compare(a, b)) => std::process::exit(record::compare(&a, &b)),
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    quiet_forced_panics();
    let mut m = measure(&args);
    if let Some(path) = &args.out {
        if let Err(e) = record::write(path, &args, &m) {
            m.problems.push(format!("--out {}: {e}", path.display()));
        }
    }
    for note in &m.notes {
        println!("# {note}");
    }
    println!(
        "# workload {} seed {} mode {} reps {} nproc {} parallelism {} digest {:016x}",
        args.workload.name,
        args.seed,
        if args.trace { "trace" } else { "run" },
        m.reps,
        nproc(),
        m.parallelism,
        m.digest
    );
    for x in &m.metrics {
        let unit = workloads::spec(x.name).map_or("", |s| s.unit);
        println!("{} {} {unit}", x.name, finite(x.median()));
    }
    for p in &m.problems {
        eprintln!("benchmark: CHECK FAILED: {p}");
    }
    println!("{}", result_json(&m));
    if !m.problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_telemetry::json::{self, Value};

    fn parse(line: &str) -> Result<Command, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn cli_accepts_the_driver_form_and_rejects_typos() {
        let Ok(Command::Measure(a)) =
            parse("--workload fast_study --seed 3 --seconds 7 --trace 1 --out x.json")
        else {
            panic!("driver form rejected");
        };
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("fast_study", 3, 7, true)
        );
        assert_eq!(a.out, Some(PathBuf::from("x.json")));
        let Ok(Command::Measure(d)) = parse("--workload chaos_study") else {
            panic!("defaults rejected");
        };
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, RUN_SECONDS, false)
        );
        assert_eq!(
            parse("compare a.json b.json"),
            Ok(Command::Compare("a.json".into(), "b.json".into()))
        );
        for bad in [
            "",
            "--workload fast_studdy",
            "--workload fast_study --sed 3",
            "--workload fast_study --seed",
            "--workload fast_study --seed x",
            "--workload fast_study --seed -1",
            "--workload fast_study --seconds 0",
            "--workload fast_study --trace 2",
            "--workload fast_study --seed 1 --seed 2",
            "--workload fast_study extra",
            "run --workload fast_study",
            "frobnicate",
            "compare a.json",
            "compare a.json b.json c.json",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` was accepted");
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for s in &all {
            assert!(
                !s.name.is_empty()
                    && s.name.len() <= 64
                    && s.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && s.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {}",
                s.name
            );
            assert!(matches!(s.better, "lower" | "higher"), "{}", s.name);
            assert_eq!(
                all.iter().filter(|o| o.name == s.name).count(),
                1,
                "{}",
                s.name
            );
        }
        assert!(END_TO_END.iter().any(|s| s.name == "setup_s"));
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn specs_match(listed: &Value, table: &[Spec]) {
        let listed = listed.as_array().expect("metric list");
        assert_eq!(listed.len(), table.len());
        for (l, s) in listed.iter().zip(table) {
            assert_eq!(l.get("name").and_then(Value::as_str), Some(s.name));
            assert_eq!(
                l.get("unit").and_then(Value::as_str),
                Some(s.unit),
                "{}",
                s.name
            );
            assert_eq!(
                l.get("better").and_then(Value::as_str),
                Some(s.better),
                "{}",
                s.name
            );
            assert_eq!(
                l.get("bound").and_then(Value::as_f64),
                s.bound,
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = benchmark_json();
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        let listed: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Value::as_str).expect("name"),
                    w.get("why").and_then(Value::as_str).expect("why"),
                )
            })
            .collect();
        let table: Vec<(&str, &str)> = workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(listed, table);
        specs_match(doc.get("end_to_end").expect("end_to_end"), &END_TO_END);
        specs_match(doc.get("per_layer").expect("per_layer"), &PER_LAYER);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
    }

    /// The fast study shrunk to 8 samples. Its seed is not the default
    /// one, so the recorded digest of the 48-sample corpus is not checked.
    fn tiny() -> &'static Workload {
        Box::leak(Box::new(Workload {
            samples: 8,
            ..*Workload::named("fast_study").expect("fast_study")
        }))
    }

    fn args(trace: bool) -> Args {
        Args {
            workload: tiny(),
            seed: DEFAULT_SEED + 1,
            seconds: 1,
            trace,
            out: None,
        }
    }

    #[test]
    fn run_mode_emits_every_end_to_end_metric_and_passes_its_checks() {
        let m = measure(&args(false));
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        assert!(m.reps >= run::MIN_REPS);
        let line = result_json(&m);
        let v = json::parse(&line).expect("result line parses");
        for s in &END_TO_END {
            assert!(
                v.get("metrics").and_then(|x| x.get(s.name)).is_some(),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn trace_mode_emits_every_layer_metric_and_passes_its_self_checks() {
        let a = args(true);
        let m = measure(&a);
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        assert!(!m.spans.is_empty());
        let doc = record::validate(&record::render(&a, &m)).expect("the record validates");
        assert!(record::compare_docs(&doc, &doc));
    }
}
