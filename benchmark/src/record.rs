//! The `malnet.benchmark` v1 record written by `--out`, and `compare`.
//!
//! ```text
//! {"schema": "malnet.benchmark", "version": 1, "workload": "fast_study",
//!  "seed": 22, "mode": "run", "reps": 15, "nproc": 2, "parallelism": 1,
//!  "digest": "23b3e79a10a7d08d", "correct": true,
//!  "metrics": [{"name": "study_s", "unit": "s", "better": "lower",
//!               "bound": 0.25, "values": [...], "median": 1.31}, ...],
//!  "spans": [{"name": "pipeline.epochs", "start_us": 12.5,
//!             "end_us": 981234.0, "parent": 3}, ...]}
//! ```
//!
//! `bound` is `null` for per-layer metrics, and `spans` is empty in run
//! mode.

use std::fmt::Write as _;
use std::path::Path;

use malnet_telemetry::json::{self, Value};
use malnet_xray::report::json_escape;

use crate::{finite, nproc, workloads, Args, Measured};

const SCHEMA: &str = "malnet.benchmark";
const VERSION: u64 = 1;

/// Serialize one run.
pub(crate) fn render(args: &Args, m: &Measured) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"version\":{VERSION},\"workload\":\"{}\",\"seed\":{},\
         \"mode\":\"{}\",\"reps\":{},\"nproc\":{},\"parallelism\":{},\"digest\":\"{:016x}\",\
         \"correct\":{},\"metrics\":[",
        args.workload.name,
        args.seed,
        if args.trace { "trace" } else { "run" },
        m.reps,
        nproc(),
        m.parallelism,
        m.digest,
        m.problems.is_empty(),
    );
    for (i, x) in m.metrics.iter().enumerate() {
        let spec = workloads::spec(x.name);
        let values: Vec<String> = x.values.iter().map(|v| finite(*v).to_string()).collect();
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{},\
             \"values\":[{}],\"median\":{}}}",
            if i > 0 { "," } else { "" },
            x.name,
            spec.map_or("", |s| s.unit),
            spec.map_or("", |s| s.better),
            spec.and_then(|s| s.bound)
                .map_or("null".to_string(), |b| b.to_string()),
            values.join(","),
            finite(x.median()),
        );
    }
    out.push_str("],\"spans\":[");
    for (i, s) in m.spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{}}}",
            if i > 0 { "," } else { "" },
            json_escape(s.name),
            s.start_us,
            s.end_us,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    out.push_str("]}\n");
    out
}

/// Parse a record and check its shape: schema and version, a known
/// workload and mode, and for every metric a name from the tables, at
/// least one finite value and a finite median.
pub(crate) fn validate(text: &str) -> Result<Value, String> {
    let doc = json::parse(text)?;
    let str_of = |key: &str| doc.get(key).and_then(Value::as_str);
    if str_of("schema") != Some(SCHEMA)
        || doc.get("version").and_then(Value::as_u64) != Some(VERSION)
    {
        return Err(format!("not a {SCHEMA} v{VERSION} record"));
    }
    let workload = str_of("workload").unwrap_or("");
    if workloads::Workload::named(workload).is_none() {
        return Err(format!("unknown workload `{workload}`"));
    }
    if !matches!(str_of("mode"), Some("run" | "trace")) {
        return Err("mode must be run or trace".to_string());
    }
    for key in ["seed", "reps", "nproc", "parallelism"] {
        doc.get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("missing `{key}`"))?;
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_array)
        .ok_or("missing `metrics`")?;
    for x in metrics {
        let name = x.get("name").and_then(Value::as_str).unwrap_or("");
        workloads::spec(name).ok_or(format!("unknown metric `{name}`"))?;
        let values = x
            .get("values")
            .and_then(Value::as_array)
            .filter(|v| !v.is_empty())
            .ok_or(format!("{name}: no values"))?;
        if values.iter().any(|v| v.as_f64().is_none())
            || x.get("median").and_then(Value::as_f64).is_none()
        {
            return Err(format!("{name}: a value is not a number"));
        }
    }
    doc.get("spans")
        .and_then(Value::as_array)
        .ok_or("missing `spans`")?;
    Ok(doc)
}

/// Write the record to `path`, then read it back and validate it.
pub(crate) fn write(path: &Path, args: &Args, m: &Measured) -> Result<(), String> {
    std::fs::write(path, render(args, m)).map_err(|e| e.to_string())?;
    let back = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    validate(&back).map(|_| ())
}

/// Compare two records' end-to-end medians and print one line per
/// metric. True when every bounded metric of `a` is in `b` and the
/// medians differ by at most the bound, as a share of `a`'s median.
pub(crate) fn compare_docs(a: &Value, b: &Value) -> bool {
    let field = |d: &Value, k: &str| d.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    if field(a, "workload") != field(b, "workload") || field(a, "mode") != field(b, "mode") {
        println!("records are of different workloads or modes");
        return false;
    }
    let metrics = |d: &Value| -> Vec<(String, f64, Option<f64>)> {
        d.get("metrics")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|x| {
                (
                    x.get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    x.get("median").and_then(Value::as_f64).unwrap_or(f64::NAN),
                    x.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    };
    let theirs = metrics(b);
    let mut ok = true;
    for (name, ma, bound) in metrics(a) {
        let Some(bound) = bound else { continue };
        let Some((_, mb, _)) = theirs.iter().find(|(n, _, _)| *n == name) else {
            println!("{name}: missing from the second record");
            ok = false;
            continue;
        };
        let change = (mb - ma) / ma;
        let within = change.abs() <= bound;
        ok &= within;
        println!(
            "{name} {ma} -> {mb} ({:+.2}%, bound {:.0}%) {}",
            change * 100.0,
            bound * 100.0,
            if within { "ok" } else { "DIFFERS" }
        );
    }
    ok
}

/// `benchmark compare A B`: exit code 0 when the records agree within
/// every bound, 1 when they do not, 2 when one cannot be read.
pub(crate) fn compare(a: &Path, b: &Path) -> i32 {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| validate(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(da), Ok(db)) => {
            if compare_docs(&da, &db) {
                0
            } else {
                1
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            2
        }
    }
}
