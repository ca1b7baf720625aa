//! Watch (or validate) a live `malnet.events` v1 stream.
//!
//! The pipeline streams lifecycle events to `results/events.jsonl` as a
//! study runs (see `malnet_telemetry::events` and EXPERIMENTS.md);
//! `study_watch` is the consumer:
//!
//! * **Default**: read the stream once and render a progress summary —
//!   days completed, samples analyzed, instructions retired, per-day
//!   rollup table, quarantine/chaos tallies.
//! * **`--follow`**: tail the file, re-rendering as new complete lines
//!   arrive, until the stream's `stream_end` line lands (the one place
//!   in the workspace that legitimately sleeps on a wall clock; the
//!   bench crate is `lint_report`'s clock-exempt zone). The tail is
//!   **stateful** ([`StreamTail`]): each tick reads only the bytes
//!   appended since the last one and folds them incrementally, so a
//!   long study costs O(stream) in total. A torn trailing line
//!   (observed between the sink's write and flush) is carried, not
//!   folded, until its newline arrives; a shrinking file (truncation /
//!   rotation) resets the tail and starts over.
//! * **`--validate`**: strict mode for CI — the stream must be complete
//!   and well-formed ([`validate_stream`]). With `--report PATH`,
//!   folding the stream must also reconstruct that report's counters
//!   and rollup rows exactly ([`fold_matches_report`]); a report that
//!   cannot be read is a failure.
//!
//! Both watching modes fold with the validator's checks: a stream that
//! breaks one prints the violation and exits 1. `--validate` exits 1 on
//! any violation; a usage error exits 2, as do `--report` without
//! `--validate` and `--follow` with it, which would otherwise be ignored.
//!
//! Usage:
//! `study_watch [--events PATH] [--validate [--report PATH] | --follow]`

use std::io::{Read, Seek, SeekFrom};

use malnet_telemetry::events::{fold_matches_report, validate_stream, StreamSummary, StreamTail};
use malnet_telemetry::RunReport;

struct Args {
    events: String,
    report: Option<String>,
    validate: bool,
    follow: bool,
}

/// Print `error` and the usage line, and exit 2.
fn usage_error(error: &str) -> ! {
    eprintln!(
        "{error}\n\
         usage: study_watch [--events PATH] [--validate [--report PATH] | --follow]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        events: "results/events.jsonl".to_string(),
        report: None,
        validate: false,
        follow: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut path = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a path")))
        };
        match arg.as_str() {
            "--events" => args.events = path(),
            "--report" => args.report = Some(path()),
            "--validate" => args.validate = true,
            "--follow" => args.follow = true,
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if args.report.is_some() && !args.validate {
        usage_error("--report needs --validate");
    }
    if args.follow && args.validate {
        usage_error("--follow and --validate exclude each other");
    }
    args
}

/// Render a one-screen progress summary of a (possibly still growing)
/// stream. `complete` is whether `stream_end` has arrived.
fn render(summary: &StreamSummary, complete: bool) {
    let state = if complete { "complete" } else { "running" };
    println!(
        "study {state}: {} event(s), {} day(s) started, {} sample(s) completed",
        summary.events,
        summary.days.len(),
        summary.samples_completed
    );
    let counter = |name: &str| {
        summary
            .final_counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    if let Some(instr) = counter("sandbox.instructions_retired") {
        println!("  instructions retired: {instr}");
    }
    if let Some(vtime) = counter("sandbox.vtime_secs") {
        println!("  simulated sandbox time: {vtime} s");
    }
    if summary.quarantines > 0 || summary.chaos_events > 0 {
        println!(
            "  quarantines: {}, chaos events: {}",
            summary.quarantines, summary.chaos_events
        );
    }
    let day_rows: Vec<&(String, Vec<(String, u64)>)> = summary
        .rollups
        .iter()
        .filter(|(key, _)| key == "day")
        .collect();
    if !day_rows.is_empty() {
        println!("  last day rollups:");
        for (_, fields) in day_rows.iter().rev().take(5).rev() {
            let row: Vec<String> = fields.iter().map(|(n, v)| format!("{n}={v}")).collect();
            println!("    {}", row.join(" "));
        }
    }
}

/// Read the bytes appended to `path` since `offset` and feed them into
/// the tail. Returns the new offset. A file shorter than `offset`
/// (truncated or rotated mid-watch) resets the tail and re-reads from
/// the start, so the watcher converges on the new stream instead of
/// folding a stale suffix.
fn tail_step(path: &str, tail: &mut StreamTail, offset: u64) -> u64 {
    let Ok(mut f) = std::fs::File::open(path) else {
        return offset; // not created yet — keep waiting
    };
    let len = f.metadata().map(|m| m.len()).unwrap_or(0);
    let mut offset = offset;
    if len < offset {
        *tail = StreamTail::new();
        offset = 0;
    }
    if len == offset {
        return offset;
    }
    if f.seek(SeekFrom::Start(offset)).is_err() {
        return offset;
    }
    let mut fresh = String::new();
    let Ok(n) = f.read_to_string(&mut fresh) else {
        return offset; // torn read; retry next tick
    };
    tail.push(&fresh);
    offset + n as u64
}

/// Print `msg` as a failure and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1)
}

/// Render the tail, and fail on the violation that stopped it, if any.
fn render_tail(tail: &StreamTail, events: &str) {
    render(tail.summary(), tail.is_complete());
    if let Some(e) = tail.error() {
        fail(&format!(
            "{events} is not a valid malnet.events stream: {e}"
        ));
    }
}

fn main() {
    let args = parse_args();
    if args.validate {
        let text = std::fs::read_to_string(&args.events)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", args.events)));
        let summary = validate_stream(&text).unwrap_or_else(|e| {
            fail(&format!(
                "{} is not a valid malnet.events stream: {e}",
                args.events
            ))
        });
        render(&summary, true);
        if let Some(path) = &args.report {
            let report = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))
                .and_then(|text| {
                    RunReport::from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
                })
                .unwrap_or_else(|e| fail(&e));
            if let Err(e) = fold_matches_report(&summary, &report) {
                fail(&e);
            }
            println!(
                "fold OK: stream reconstructs {} counter(s) and {} rollup row(s) of {path}",
                summary.final_counters.len(),
                summary.rollups.len(),
            );
        }
        println!("stream OK: {} ({} events)", args.events, summary.events);
        return;
    }

    if args.follow {
        // Live tail: poll for appended bytes until stream_end. Each
        // tick folds only the new bytes (see `tail_step`). Wall-clock
        // sleeping is fine here — the watcher observes the study, it is
        // not part of it.
        let mut tail = StreamTail::new();
        let mut offset = 0u64;
        loop {
            offset = tail_step(&args.events, &mut tail, offset);
            render_tail(&tail, &args.events);
            if tail.is_complete() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(500));
        }
    }

    let text = std::fs::read_to_string(&args.events)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", args.events)));
    let mut tail = StreamTail::new();
    tail.push(&text);
    tail.flush_partial();
    render_tail(&tail, &args.events);
}
