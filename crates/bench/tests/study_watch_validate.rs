//! End-to-end tests for `study_watch`'s command line and failure paths.
//!
//! The consistency contract (`fold_matches_report`) says folding the
//! `malnet.events` stream must reconstruct the final report's counters
//! and rollup rows exactly. These tests build a small real stream and
//! report through the telemetry API, then corrupt the stream in ways
//! that keep it *structurally* valid — so only the cross-check can
//! catch them — and assert the watcher exits non-zero. A structurally
//! broken stream must fail every mode, and the cross-check runs only
//! against a report named with `--report`.

use std::path::{Path, PathBuf};
use std::process::Output;

use malnet_telemetry::{EventSink, Field, Telemetry};

/// Build a two-day stream plus matching report under a fresh directory,
/// returning `(events_path, report_path)`.
fn write_study(dir: &Path) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let events = dir.join("events.jsonl");
    let report = dir.join("run_report.json");
    let sink = EventSink::create(&events).unwrap();
    let tel = Telemetry::enabled_with_events(sink);
    tel.event("day_start", None, &[("day", Field::U(0))]);
    tel.add("sandbox.instructions_retired", 4100);
    tel.add("analysis.samples", 3);
    tel.rollup("day", &[("day", 0), ("samples", 3)]);
    tel.event("day_start", None, &[("day", Field::U(1))]);
    tel.add("sandbox.instructions_retired", 1700);
    tel.add("analysis.samples", 2);
    tel.rollup("day", &[("day", 1), ("samples", 2)]);
    tel.counters_event();
    tel.finish_events();
    std::fs::write(&report, tel.report().to_json()).unwrap();
    (events, report)
}

fn run_validate(events: &Path, report: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_study_watch"))
        .arg("--events")
        .arg(events)
        .arg("--report")
        .arg(report)
        .arg("--validate")
        .output()
        .expect("spawn study_watch")
}

fn run_watch(events: &Path, args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_study_watch"))
        .arg("--events")
        .arg(events)
        .args(args)
        .output()
        .expect("spawn study_watch")
}

/// A scratch directory unique to this test binary + test name. Inside
/// the target dir so ordinary cleanup sweeps it away.
fn scratch(test: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp/study_watch_validate")
        .join(format!("{}-{}", std::process::id(), test))
}

/// `--follow` must keep watching an incomplete stream (including one
/// whose last line is torn mid-JSON) and exit cleanly once the
/// remainder — ending in `stream_end` — is appended. This drives the
/// stateful `StreamTail` path end to end: the watcher only ever reads
/// the appended bytes, so the torn line is carried across ticks and
/// folded exactly once when its terminator lands.
#[test]
fn follow_tails_a_growing_stream_to_completion() {
    use std::io::Write;

    let dir = scratch("follow-grows");
    std::fs::create_dir_all(&dir).unwrap();
    let sink = EventSink::in_memory();
    let tel = Telemetry::enabled_with_events(sink.clone());
    for day in 0..6u64 {
        tel.event("day_start", None, &[("day", Field::U(day))]);
        tel.event(
            "heartbeat",
            None,
            &[("day", Field::U(day)), ("samples_completed", Field::U(day))],
        );
        tel.rollup("day", &[("day", day), ("samples", 1)]);
    }
    tel.counters_event();
    tel.finish_events();
    let text = sink.contents().unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let split = lines.len() / 2;

    // First write: half the stream plus a torn fragment of the next line.
    let events = dir.join("events.jsonl");
    let (torn_head, torn_tail) = lines[split].split_at(lines[split].len() / 2);
    let mut first = lines[..split].join("\n");
    first.push('\n');
    first.push_str(torn_head);
    std::fs::write(&events, &first).unwrap();

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_study_watch"))
        .arg("--events")
        .arg(&events)
        .arg("--follow")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn study_watch --follow");
    // Give the watcher a couple of poll ticks on the incomplete stream:
    // it must still be running (no stream_end yet).
    std::thread::sleep(std::time::Duration::from_millis(1500));
    assert!(
        child.try_wait().unwrap().is_none(),
        "watcher exited before stream_end arrived"
    );

    // Append the rest: the torn line's terminator, then everything up
    // to and including stream_end.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&events)
        .unwrap();
    writeln!(f, "{torn_tail}").unwrap();
    for line in &lines[split + 1..] {
        writeln!(f, "{line}").unwrap();
    }
    drop(f);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never saw stream_end"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    };
    assert!(status.success(), "watcher exited {status:?}");
    let mut stdout = String::new();
    use std::io::Read;
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    assert!(
        stdout.contains("study complete"),
        "final render missing: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag missing its path, or an unknown flag, is a usage error: exit
/// 2 with the usage line, not a panic.
#[test]
fn missing_path_or_unknown_flag_exits_2() {
    for args in [
        &["--events"][..],
        &["--validate", "--report"],
        &["--event", "x"],
        &["--validate", "--stream-only"],
        // Flags that would otherwise be accepted and silently ignored.
        &["--report", "/nonexistent.json"],
        &["--follow", "--validate"],
        &["--validate", "--follow"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_study_watch"))
            .args(args)
            .output()
            .expect("spawn study_watch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: study_watch"), "{args:?}: {stderr}");
    }
}

#[test]
fn pristine_stream_validates_against_its_report() {
    let dir = scratch("pristine");
    let (events, report) = write_study(&dir);
    let out = run_validate(&events, &report);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\nstdout: {stdout}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("fold OK"), "stdout: {stdout}");
}

#[test]
fn tampered_counter_snapshot_fails_the_fold() {
    let dir = scratch("tampered-counter");
    let (events, report) = write_study(&dir);
    // Raise one value in the final counters snapshot. The stream stays
    // structurally valid (a single snapshot has nothing to be monotone
    // against), but the fold no longer reconstructs the report.
    let text = std::fs::read_to_string(&events).unwrap();
    let tampered = text.replace("\"analysis.samples\":5", "\"analysis.samples\":6");
    assert_ne!(text, tampered, "tamper target not found in stream");
    std::fs::write(&events, tampered).unwrap();
    let out = run_validate(&events, &report);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does not reconstruct the report's counters"),
        "stderr: {stderr}"
    );
}

#[test]
fn dropped_rollup_row_fails_the_fold() {
    let dir = scratch("dropped-rollup");
    let (events, report) = write_study(&dir);
    // Delete the day-1 rollup line, then repair the evidence: renumber
    // every remaining seq and fix stream_end's declared event count so
    // validate_stream has nothing to object to. Only the report
    // cross-check can notice the missing row.
    let text = std::fs::read_to_string(&events).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| !(l.contains("\"event\":\"rollup\"") && l.contains("\"day\":1")))
        .collect();
    assert_eq!(kept.len(), text.lines().count() - 1, "no rollup dropped");
    let total = kept.len();
    let mut rewritten = String::new();
    for (i, line) in kept.iter().enumerate() {
        let rest = line
            .split_once(',')
            .map(|(_, rest)| rest)
            .expect("event line has fields");
        rewritten.push_str(&format!("{{\"seq\":{i},{rest}"));
        rewritten.push('\n');
    }
    let old_end = format!("\"events\":{}", total + 1);
    let new_end = format!("\"events\":{total}");
    assert!(rewritten.contains(&old_end), "stream_end count not found");
    let rewritten = rewritten.replace(&old_end, &new_end);
    std::fs::write(&events, rewritten).unwrap();
    let out = run_validate(&events, &report);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does not reconstruct the report's rollups"),
        "stderr: {stderr}"
    );
}

#[test]
fn validate_without_report_checks_the_stream_only() {
    let dir = scratch("stream-only");
    let (events, report) = write_study(&dir);
    // The report is there but not named: no cross-check, so a report
    // the stream does not narrate cannot fail the run.
    std::fs::write(&report, "not a report").unwrap();
    let out = run_watch(&events, &["--validate"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("stream OK"), "stdout: {stdout}");
    assert!(!stdout.contains("fold OK"), "stdout: {stdout}");
}

#[test]
fn validate_with_a_missing_report_exits_1() {
    let dir = scratch("missing-report");
    let (events, report) = write_study(&dir);
    std::fs::remove_file(&report).unwrap();
    let out = run_validate(&events, &report);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "stderr: {stderr}");
}

/// Watching a structurally broken stream prints the first violation
/// and exits 1, once or with `--follow`, instead of rendering a frozen
/// prefix forever.
#[test]
fn broken_stream_fails_the_watcher() {
    let dir = scratch("broken");
    let (events, _) = write_study(&dir);
    // Drop the second line: a sequence gap at line 2.
    let text = std::fs::read_to_string(&events).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, l)| l)
        .collect();
    std::fs::write(&events, kept.join("\n") + "\n").unwrap();
    for args in [&[][..], &["--follow"], &["--validate"]] {
        let out = run_watch(&events, args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("line 2: sequence gap"),
            "{args:?}: {stderr}"
        );
    }
}
