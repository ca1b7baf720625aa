//! The live `malnet.events` v1 stream: append-only JSONL observability.
//!
//! A [`RunReport`] is a *post-hoc* snapshot — useless for a paper-scale
//! study (1447 samples over 31 weeks) that should be observable while it
//! runs. An [`EventSink`] is the streaming complement: the pipeline
//! appends one JSON object per line as lifecycle milestones pass —
//! study/day/phase boundaries, per-day rollup rows, quarantine and chaos
//! events, progress heartbeats, and full counter snapshots at day
//! boundaries — and a watcher (`study_watch`) tails the file to render
//! live progress.
//!
//! ## Determinism contract
//!
//! Every event is emitted on the **coordinator thread at a deterministic
//! point** (a day boundary, a merge step in sample-id order, a probing
//! day-group join), and every payload field is derived from deterministic
//! state: simulation counters, sequence numbers, dataset sizes. The only
//! wall-clock value that ever reaches the stream is the `wall_us` field
//! of the day rollup row, which arrives pre-computed from
//! [`Telemetry::stopwatch`] — this module itself never reads a clock
//! (enforced by `lint_report`'s event-payload rule). Consequences:
//!
//! * attaching a sink cannot perturb a single output byte (the
//!   determinism suite diffs streaming on/off across parallelism
//!   1/2/8/64 × chaos), and
//! * the stream itself is byte-identical across parallelism levels once
//!   `wall_us` is masked.
//!
//! ## Consistency contract (the fold)
//!
//! [`validate_stream`] checks the stream's well-formedness (contiguous
//! sequence numbers, one `stream_start`/`stream_end` pair, strictly
//! increasing days, balanced phases, monotone counter snapshots) and
//! folds it into a [`StreamSummary`]; [`fold_matches_report`] then
//! asserts the headline property: the last counter snapshot and the
//! accumulated rollup rows reconstruct the final [`RunReport`]'s
//! counters and rollups **exactly**. A stream that drifts from the
//! report it narrates fails CI.
//!
//! [`Telemetry::stopwatch`]: crate::Telemetry::stopwatch
//! [`RunReport`]: crate::RunReport

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

use crate::json::{self, Value};
use crate::report::json_str;
use crate::RunReport;

/// The schema identifier on the stream's `stream_start` line.
pub const EVENTS_SCHEMA: &str = "malnet.events";
/// The current stream schema version.
pub const EVENTS_VERSION: u64 = 1;

/// One event payload field: unsigned integers (counters, day numbers,
/// sizes) or short strings (phase names, hashes, fault details).
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// An unsigned integer field.
    U(u64),
    /// A string field (escaped on write).
    S(&'a str),
}

/// A parsed field value from [`parse_event_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer field.
    U64(u64),
    /// A string field.
    Str(String),
}

impl FieldValue {
    /// The integer payload, if any.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(n) => Some(*n),
            FieldValue::Str(_) => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            FieldValue::U64(_) => None,
        }
    }
}

/// One parsed line of a `malnet.events` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Zero-based, contiguous sequence number.
    pub seq: u64,
    /// Event kind (`stream_start`, `day_start`, `rollup`, ...).
    pub kind: String,
    /// Rollup key (`rollup` events only).
    pub key: Option<String>,
    /// Payload fields in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Look up a field's integer value.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_u64())
    }

    /// Look up a field's string value.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_str())
    }
}

#[derive(Debug)]
enum SinkOut {
    /// Collect lines in memory (tests, the determinism suite).
    Memory(Vec<u8>),
    /// Append to a file, flushing per line so a tailer sees complete
    /// lines promptly.
    File(std::io::BufWriter<std::fs::File>),
}

#[derive(Debug)]
struct SinkState {
    seq: u64,
    finished: bool,
    out: SinkOut,
}

/// An append-only `malnet.events` v1 JSONL writer. Cheap to clone
/// (shared state), `Send + Sync`; normally attached to a live registry
/// via [`Telemetry::enabled_with_events`].
///
/// Construction emits the `stream_start` header line; [`EventSink::finish`]
/// emits `stream_end` and seals the stream (later emissions are dropped).
/// I/O errors are swallowed: observability must never abort a study.
///
/// [`Telemetry::enabled_with_events`]: crate::Telemetry::enabled_with_events
#[derive(Debug, Clone)]
pub struct EventSink {
    inner: Arc<Mutex<SinkState>>,
}

impl EventSink {
    fn new(out: SinkOut) -> Self {
        let sink = EventSink {
            inner: Arc::new(Mutex::new(SinkState {
                seq: 0,
                finished: false,
                out,
            })),
        };
        sink.emit(
            "stream_start",
            None,
            &[
                ("schema", Field::S(EVENTS_SCHEMA)),
                ("version", Field::U(EVENTS_VERSION)),
            ],
        );
        sink
    }

    /// A sink that buffers the stream in memory; read it back with
    /// [`EventSink::contents`].
    pub fn in_memory() -> Self {
        Self::new(SinkOut::Memory(Vec::new()))
    }

    /// A sink that streams to `path` (truncating any previous stream).
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::File::create(path)?;
        Ok(Self::new(SinkOut::File(std::io::BufWriter::new(file))))
    }

    /// Append one event line. Dropped silently once the stream is
    /// finished.
    pub fn emit(&self, kind: &str, key: Option<&str>, fields: &[(&str, Field<'_>)]) {
        let mut state = self.inner.lock().unwrap();
        if state.finished {
            return;
        }
        let mut line = String::with_capacity(96);
        let _ = write!(line, "{{\"seq\":{},\"event\":{}", state.seq, json_str(kind));
        if let Some(key) = key {
            let _ = write!(line, ",\"key\":{}", json_str(key));
        }
        line.push_str(",\"fields\":{");
        for (i, (name, value)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            match value {
                Field::U(n) => {
                    let _ = write!(line, "{}:{n}", json_str(name));
                }
                Field::S(s) => {
                    let _ = write!(line, "{}:{}", json_str(name), json_str(s));
                }
            }
        }
        line.push_str("}}\n");
        state.seq += 1;
        match &mut state.out {
            SinkOut::Memory(buf) => buf.extend_from_slice(line.as_bytes()),
            SinkOut::File(w) => {
                let _ = w.write_all(line.as_bytes());
                let _ = w.flush();
            }
        }
    }

    /// Emit the terminal `stream_end` line (carrying the total line
    /// count) and seal the stream. Idempotent.
    pub fn finish(&self) {
        let total = {
            let state = self.inner.lock().unwrap();
            if state.finished {
                return;
            }
            state.seq + 1
        };
        self.emit("stream_end", None, &[("events", Field::U(total))]);
        self.inner.lock().unwrap().finished = true;
    }

    /// The buffered stream of an in-memory sink (`None` for file sinks).
    pub fn contents(&self) -> Option<String> {
        match &self.inner.lock().unwrap().out {
            SinkOut::Memory(buf) => Some(String::from_utf8_lossy(buf).into_owned()),
            SinkOut::File(_) => None,
        }
    }
}

/// Parse one stream line into an [`Event`].
pub fn parse_event_line(line: &str) -> Result<Event, String> {
    let v = json::parse(line)?;
    let seq = v
        .get("seq")
        .and_then(Value::as_u64)
        .ok_or("missing \"seq\"")?;
    let kind = v
        .get("event")
        .and_then(Value::as_str)
        .ok_or("missing \"event\"")?
        .to_string();
    let key = v.get("key").and_then(Value::as_str).map(str::to_string);
    let Some(Value::Obj(members)) = v.get("fields") else {
        return Err("missing \"fields\" object".to_string());
    };
    let mut fields = Vec::with_capacity(members.len());
    for (name, value) in members {
        let parsed = match value {
            Value::Int(n) => FieldValue::U64(*n),
            Value::Str(s) => FieldValue::Str(s.clone()),
            other => {
                return Err(format!(
                    "field {name:?} is neither u64 nor string: {other:?}"
                ))
            }
        };
        fields.push((name.clone(), parsed));
    }
    Ok(Event {
        seq,
        kind,
        key,
        fields,
    })
}

/// The fold of a validated stream: everything a consumer needs to
/// reconstruct the run's final counters and rollups, plus tallies of the
/// lifecycle events seen along the way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total lines (== the `stream_end` line's `events` field).
    pub events: u64,
    /// `day_start` days, strictly increasing.
    pub days: Vec<u64>,
    /// The last counter snapshot (name-sorted), i.e. the fold of every
    /// `counters` event — must equal the final report's counters.
    pub final_counters: Vec<(String, u64)>,
    /// Accumulated `rollup` rows in arrival order — must equal the final
    /// report's rollups.
    pub rollups: Vec<(String, Vec<(String, u64)>)>,
    /// `heartbeat` events seen.
    pub heartbeats: u64,
    /// `quarantine` events seen.
    pub quarantines: u64,
    /// `chaos` events seen.
    pub chaos_events: u64,
    /// Samples completed per the last heartbeat.
    pub samples_completed: u64,
}

/// Validate a complete stream and fold it into a [`StreamSummary`].
///
/// Checks: every line parses; sequence numbers are contiguous from 0;
/// the first event is a v1 `stream_start` and the last a `stream_end`
/// whose `events` count matches; nothing follows `stream_end`;
/// `day_start` days strictly increase; every `phase_end` closes the
/// innermost open `phase_start` of the same name and none stay open;
/// counter snapshots are monotone (no counter ever decreases or
/// disappears); heartbeat progress is monotone; rollup rows carry no
/// duplicate field names and day-keyed rows strictly increase.
pub fn validate_stream(text: &str) -> Result<StreamSummary, String> {
    let mut summary = StreamSummary::default();
    let mut expected_seq = 0u64;
    let mut phase_stack: Vec<String> = Vec::new();
    let mut last_counters: Vec<(String, u64)> = Vec::new();
    let mut last_day_rollup: Option<u64> = None;
    let mut ended = false;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if ended {
            return Err(format!("line {lineno}: event after stream_end"));
        }
        let ev = parse_event_line(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if ev.seq != expected_seq {
            return Err(format!(
                "line {lineno}: sequence gap (expected seq {expected_seq}, got {})",
                ev.seq
            ));
        }
        expected_seq += 1;
        if i == 0 {
            if ev.kind != "stream_start" {
                return Err(format!("line 1: expected stream_start, got {:?}", ev.kind));
            }
            if ev.str("schema") != Some(EVENTS_SCHEMA) {
                return Err("line 1: wrong or missing schema".to_string());
            }
            if ev.u64("version") != Some(EVENTS_VERSION) {
                return Err("line 1: wrong or missing version".to_string());
            }
            continue;
        }
        match ev.kind.as_str() {
            "stream_start" => {
                return Err(format!("line {lineno}: duplicate stream_start"));
            }
            "stream_end" => {
                let declared = ev
                    .u64("events")
                    .ok_or(format!("line {lineno}: stream_end lacks \"events\""))?;
                if declared != expected_seq {
                    return Err(format!(
                        "line {lineno}: stream_end declares {declared} events, stream has {expected_seq}"
                    ));
                }
                if !phase_stack.is_empty() {
                    return Err(format!(
                        "line {lineno}: stream ended with open phase(s) {phase_stack:?}"
                    ));
                }
                ended = true;
            }
            "day_start" => {
                let day = ev
                    .u64("day")
                    .ok_or(format!("line {lineno}: day_start lacks \"day\""))?;
                if summary.days.last().is_some_and(|&prev| day <= prev) {
                    return Err(format!(
                        "line {lineno}: day_start {day} does not increase (last {:?})",
                        summary.days.last()
                    ));
                }
                summary.days.push(day);
            }
            "phase_start" => {
                let phase = ev
                    .str("phase")
                    .ok_or(format!("line {lineno}: phase_start lacks \"phase\""))?;
                phase_stack.push(phase.to_string());
            }
            "phase_end" => {
                let phase = ev
                    .str("phase")
                    .ok_or(format!("line {lineno}: phase_end lacks \"phase\""))?;
                match phase_stack.pop() {
                    Some(open) if open == phase => {}
                    open => {
                        return Err(format!(
                            "line {lineno}: phase_end {phase:?} closes {open:?}"
                        ))
                    }
                }
            }
            "counters" => {
                let mut snapshot: Vec<(String, u64)> = Vec::with_capacity(ev.fields.len());
                for (name, value) in &ev.fields {
                    let n = value
                        .as_u64()
                        .ok_or(format!("line {lineno}: counter {name:?} is not an integer"))?;
                    snapshot.push((name.clone(), n));
                }
                for (name, prev) in &last_counters {
                    match snapshot.iter().find(|(n, _)| n == name) {
                        None => {
                            return Err(format!(
                                "line {lineno}: counter {name:?} vanished from the snapshot"
                            ))
                        }
                        Some((_, now)) if now < prev => {
                            return Err(format!(
                                "line {lineno}: counter {name:?} decreased ({prev} -> {now})"
                            ))
                        }
                        Some(_) => {}
                    }
                }
                last_counters = snapshot;
            }
            "heartbeat" => {
                summary.heartbeats += 1;
                let done = ev.u64("samples_completed").ok_or(format!(
                    "line {lineno}: heartbeat lacks \"samples_completed\""
                ))?;
                if done < summary.samples_completed {
                    return Err(format!(
                        "line {lineno}: heartbeat progress went backwards ({} -> {done})",
                        summary.samples_completed
                    ));
                }
                summary.samples_completed = done;
            }
            "rollup" => {
                let key = ev
                    .key
                    .clone()
                    .ok_or(format!("line {lineno}: rollup lacks \"key\""))?;
                let mut fields: Vec<(String, u64)> = Vec::with_capacity(ev.fields.len());
                for (name, value) in &ev.fields {
                    if fields.iter().any(|(n, _)| n == name) {
                        return Err(format!(
                            "line {lineno}: rollup has duplicate field {name:?}"
                        ));
                    }
                    let n = value.as_u64().ok_or(format!(
                        "line {lineno}: rollup field {name:?} is not an integer"
                    ))?;
                    fields.push((name.clone(), n));
                }
                if key == "day" {
                    let day = ev
                        .u64("day")
                        .ok_or(format!("line {lineno}: day rollup lacks \"day\""))?;
                    if last_day_rollup.is_some_and(|prev| day <= prev) {
                        return Err(format!(
                            "line {lineno}: day rollup {day} does not increase (last {last_day_rollup:?})"
                        ));
                    }
                    last_day_rollup = Some(day);
                }
                summary.rollups.push((key, fields));
            }
            "quarantine" => summary.quarantines += 1,
            "chaos" => summary.chaos_events += 1,
            // Forward compatibility: unknown lifecycle kinds
            // (study_start, probe_day, ...) are structural no-ops.
            _ => {}
        }
    }
    if !ended {
        return Err(format!(
            "stream not terminated: {expected_seq} event(s), no stream_end"
        ));
    }
    summary.events = expected_seq;
    summary.final_counters = last_counters;
    Ok(summary)
}

/// The consistency contract: the stream's fold must reconstruct the
/// final report's counters and rollup rows exactly — same names, same
/// values, same order (both sides are name-sorted for counters and
/// arrival-ordered for rollups).
pub fn fold_matches_report(summary: &StreamSummary, report: &RunReport) -> Result<(), String> {
    if summary.final_counters != report.counters {
        let diff: Vec<String> = report
            .counters
            .iter()
            .filter(|pair| !summary.final_counters.contains(pair))
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        return Err(format!(
            "stream fold does not reconstruct the report's counters \
             (stream has {}, report has {}; report-only entries: {})",
            summary.final_counters.len(),
            report.counters.len(),
            diff.join(", ")
        ));
    }
    if summary.rollups != report.rollups {
        return Err(format!(
            "stream fold does not reconstruct the report's rollups \
             (stream has {} rows, report has {})",
            summary.rollups.len(),
            report.rollups.len()
        ));
    }
    Ok(())
}

/// Incremental, stateful fold of a growing `malnet.events` stream —
/// the engine behind `study_watch --follow`.
///
/// The legacy follower re-read and re-folded the entire events file on
/// every 500 ms poll tick, which is O(n²) work over a study's lifetime
/// (a day-432 stream was folded hundreds of times per minute near the
/// end). `StreamTail` consumes only newly appended bytes: feed it
/// chunks split at **any** boundary — including mid-line; the sink
/// flushes whole lines, but a reader can still observe a torn tail
/// between the write and the flush — and it folds exactly the complete
/// lines, carrying an unterminated tail until its newline arrives.
///
/// The fold is the lenient watcher fold, not the strict one: no
/// structural checks (CI's `--validate` path uses [`validate_stream`]
/// on the finished file), and the first complete line that fails to
/// parse poisons the tail — folding stops for good, matching the old
/// break-on-first-bad-line behaviour.
#[derive(Debug, Clone, Default)]
pub struct StreamTail {
    /// Bytes of an unterminated trailing line, held until its newline.
    carry: String,
    summary: StreamSummary,
    complete: bool,
    poisoned: bool,
}

impl StreamTail {
    /// A fresh tail with nothing folded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the next chunk of the stream. Complete lines fold
    /// immediately; a trailing partial line is carried (the summary
    /// does not change) until a later chunk terminates it.
    pub fn push(&mut self, chunk: &str) {
        let mut rest = chunk;
        while let Some(nl) = rest.find('\n') {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..];
            if self.carry.is_empty() {
                self.fold_line(head);
            } else {
                let mut line = std::mem::take(&mut self.carry);
                line.push_str(head);
                self.fold_line(&line);
            }
        }
        self.carry.push_str(rest);
    }

    /// Fold the carried partial line, if any, as though it were
    /// complete. For one-shot reads of a file that does not end in a
    /// newline; a follower should *not* call this (the next chunk may
    /// still be coming).
    pub fn flush_partial(&mut self) {
        if !self.carry.is_empty() {
            let line = std::mem::take(&mut self.carry);
            self.fold_line(&line);
        }
    }

    /// The fold so far. Only complete, parsed lines are reflected.
    pub fn summary(&self) -> &StreamSummary {
        &self.summary
    }

    /// Has `stream_end` been folded?
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Did a complete line fail to parse? Once poisoned, further pushes
    /// are ignored and the summary is frozen at the last good line.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn fold_line(&mut self, line: &str) {
        if self.poisoned {
            return;
        }
        let Ok(ev) = parse_event_line(line) else {
            self.poisoned = true;
            return;
        };
        self.summary.events += 1;
        match ev.kind.as_str() {
            "stream_end" => self.complete = true,
            "day_start" => self.summary.days.extend(ev.u64("day")),
            "heartbeat" => {
                self.summary.heartbeats += 1;
                if let Some(done) = ev.u64("samples_completed") {
                    self.summary.samples_completed = done;
                }
            }
            "counters" => {
                self.summary.final_counters = ev
                    .fields
                    .iter()
                    .filter_map(|(n, v)| v.as_u64().map(|v| (n.clone(), v)))
                    .collect();
            }
            "rollup" => {
                if let Some(key) = ev.key.clone() {
                    let fields = ev
                        .fields
                        .iter()
                        .filter_map(|(n, v)| v.as_u64().map(|v| (n.clone(), v)))
                        .collect();
                    self.summary.rollups.push((key, fields));
                }
            }
            "quarantine" => self.summary.quarantines += 1,
            "chaos" => self.summary.chaos_events += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn field_u(n: u64) -> Field<'static> {
        Field::U(n)
    }

    #[test]
    fn sink_emits_versioned_contiguous_lines() {
        let sink = EventSink::in_memory();
        sink.emit("day_start", None, &[("day", field_u(0))]);
        sink.emit(
            "quarantine",
            None,
            &[("sha256", Field::S("ab\"c")), ("day", field_u(0))],
        );
        sink.finish();
        let text = sink.contents().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = parse_event_line(lines[0]).unwrap();
        assert_eq!(first.kind, "stream_start");
        assert_eq!(first.str("schema"), Some(EVENTS_SCHEMA));
        let q = parse_event_line(lines[2]).unwrap();
        assert_eq!(q.seq, 2);
        assert_eq!(q.str("sha256"), Some("ab\"c"));
        let end = parse_event_line(lines[3]).unwrap();
        assert_eq!(end.kind, "stream_end");
        assert_eq!(end.u64("events"), Some(4));
        // Sealed: later emissions are dropped, finish is idempotent.
        sink.emit("day_start", None, &[]);
        sink.finish();
        assert_eq!(sink.contents().unwrap(), text);
    }

    #[test]
    fn validate_accepts_a_well_formed_stream() {
        let sink = EventSink::in_memory();
        sink.emit("study_start", None, &[("seed", field_u(22))]);
        for day in [0u64, 3, 7] {
            sink.emit("day_start", None, &[("day", field_u(day))]);
            sink.emit("phase_start", None, &[("phase", Field::S("phase_a"))]);
            sink.emit("phase_end", None, &[("phase", Field::S("phase_a"))]);
            sink.emit(
                "heartbeat",
                None,
                &[
                    ("day", field_u(day)),
                    ("samples_completed", field_u(day + 1)),
                ],
            );
            sink.emit(
                "rollup",
                Some("day"),
                &[("day", field_u(day)), ("samples", field_u(2))],
            );
            sink.emit(
                "counters",
                None,
                &[("a.x", field_u(day * 2)), ("b.y", field_u(day + 5))],
            );
        }
        sink.finish();
        let summary = validate_stream(&sink.contents().unwrap()).expect("valid");
        assert_eq!(summary.days, vec![0, 3, 7]);
        assert_eq!(summary.heartbeats, 3);
        assert_eq!(summary.samples_completed, 8);
        assert_eq!(summary.rollups.len(), 3);
        assert_eq!(
            summary.final_counters,
            vec![("a.x".to_string(), 14), ("b.y".to_string(), 12)]
        );
    }

    #[test]
    fn validate_rejects_malformed_streams() {
        // Unterminated.
        let sink = EventSink::in_memory();
        sink.emit("day_start", None, &[("day", field_u(0))]);
        let text = sink.contents().unwrap();
        assert!(validate_stream(&text)
            .unwrap_err()
            .contains("not terminated"));

        // Sequence gap (drop a middle line).
        let sink = EventSink::in_memory();
        sink.emit("day_start", None, &[("day", field_u(0))]);
        sink.emit("day_start", None, &[("day", field_u(1))]);
        sink.finish();
        let full = sink.contents().unwrap();
        let cut: Vec<&str> = full
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| l)
            .collect();
        assert!(validate_stream(&cut.join("\n"))
            .unwrap_err()
            .contains("sequence gap"));

        // Non-increasing days.
        let sink = EventSink::in_memory();
        sink.emit("day_start", None, &[("day", field_u(4))]);
        sink.emit("day_start", None, &[("day", field_u(4))]);
        sink.finish();
        assert!(validate_stream(&sink.contents().unwrap())
            .unwrap_err()
            .contains("does not increase"));

        // Unbalanced phases.
        let sink = EventSink::in_memory();
        sink.emit("phase_start", None, &[("phase", Field::S("phase_a"))]);
        sink.emit("phase_end", None, &[("phase", Field::S("phase_b"))]);
        sink.finish();
        assert!(validate_stream(&sink.contents().unwrap())
            .unwrap_err()
            .contains("phase_end"));

        // A counter going backwards.
        let sink = EventSink::in_memory();
        sink.emit("counters", None, &[("a", field_u(5))]);
        sink.emit("counters", None, &[("a", field_u(3))]);
        sink.finish();
        assert!(validate_stream(&sink.contents().unwrap())
            .unwrap_err()
            .contains("decreased"));

        // Day rollups that repeat a day.
        let sink = EventSink::in_memory();
        sink.emit("rollup", Some("day"), &[("day", field_u(2))]);
        sink.emit("rollup", Some("day"), &[("day", field_u(2))]);
        sink.finish();
        assert!(validate_stream(&sink.contents().unwrap())
            .unwrap_err()
            .contains("day rollup"));
    }

    #[test]
    fn telemetry_integration_folds_back_to_the_report() {
        let sink = EventSink::in_memory();
        let tel = Telemetry::enabled_with_events(sink.clone());
        tel.counter("pipeline.samples_analyzed").add(9);
        tel.counter("sandbox.instructions_retired").add(u64::MAX);
        tel.rollup("day", &[("day", 0), ("samples", 9)]);
        tel.counters_event();
        tel.finish_events();
        let summary = validate_stream(&sink.contents().unwrap()).expect("valid stream");
        fold_matches_report(&summary, &tel.report()).expect("fold reconstructs report");
    }

    #[test]
    fn fold_mismatches_are_reported() {
        let sink = EventSink::in_memory();
        let tel = Telemetry::enabled_with_events(sink.clone());
        tel.counter("a").add(1);
        tel.counters_event();
        tel.counter("a").add(1); // report moves after the last snapshot
        tel.finish_events();
        let summary = validate_stream(&sink.contents().unwrap()).unwrap();
        let err = fold_matches_report(&summary, &tel.report()).unwrap_err();
        assert!(err.contains("counters"), "{err}");
    }

    /// A large synthetic study stream: `days` day blocks, each with a
    /// heartbeat, rollup, counters snapshot and some lifecycle noise.
    fn synthetic_stream(days: u64) -> String {
        let sink = EventSink::in_memory();
        sink.emit("study_start", None, &[("seed", field_u(7))]);
        for day in 0..days {
            sink.emit("day_start", None, &[("day", field_u(day))]);
            sink.emit("phase_start", None, &[("phase", Field::S("phase_a"))]);
            sink.emit("phase_end", None, &[("phase", Field::S("phase_a"))]);
            if day % 5 == 0 {
                sink.emit(
                    "quarantine",
                    None,
                    &[("sha256", Field::S("feed\"back")), ("day", field_u(day))],
                );
            }
            if day % 7 == 0 {
                sink.emit(
                    "chaos",
                    None,
                    &[("day", field_u(day)), ("kind", Field::S("c2_downtime"))],
                );
            }
            sink.emit(
                "rollup",
                Some("day"),
                &[("day", field_u(day)), ("samples", field_u(day % 9))],
            );
            sink.emit(
                "heartbeat",
                None,
                &[
                    ("day", field_u(day)),
                    ("samples_completed", field_u(day * 3)),
                ],
            );
            sink.emit(
                "counters",
                None,
                &[
                    ("pipeline.samples_analyzed", field_u(day * 3)),
                    ("sandbox.instructions_retired", field_u(day * 1_000_001)),
                ],
            );
        }
        sink.finish();
        sink.contents().unwrap()
    }

    /// The stateful tail must produce the same fold as a single batch
    /// push, no matter how the byte stream is chunked — including
    /// chunks that tear lines mid-JSON. This is the regression test for
    /// the `study_watch --follow` O(n²) re-fold fix: the follower now
    /// feeds only appended bytes through this incremental path.
    #[test]
    fn stream_tail_fold_is_chunking_invariant() {
        let text = synthetic_stream(400);
        assert!(text.len() > 100_000, "stream not large: {}", text.len());
        let mut batch = StreamTail::new();
        batch.push(&text);
        assert!(batch.is_complete());
        assert!(!batch.is_poisoned());
        assert_eq!(batch.summary().days.len(), 400);

        // The stream is ASCII JSON, so any byte split is a char split.
        for chunk in [1usize, 3, 7, 64, 509, 4096] {
            let mut tail = StreamTail::new();
            for part in text.as_bytes().chunks(chunk) {
                tail.push(std::str::from_utf8(part).unwrap());
            }
            assert_eq!(tail.summary(), batch.summary(), "chunk size {chunk}");
            assert!(tail.is_complete(), "chunk size {chunk}");
            assert!(!tail.is_poisoned(), "chunk size {chunk}");
        }

        // And the batch fold agrees with the strict validator's.
        let strict = validate_stream(&text).expect("valid");
        assert_eq!(batch.summary(), &strict);
    }

    /// A flushed-but-torn trailing line must not perturb the fold: the
    /// summary is frozen until the line's newline arrives, then the
    /// line folds exactly once.
    #[test]
    fn stream_tail_carries_partial_lines() {
        let text = synthetic_stream(10);
        let lines: Vec<&str> = text.lines().collect();
        let mut tail = StreamTail::new();
        let head = lines[..3].join("\n");
        tail.push(&head);
        tail.push("\n");
        let folded = tail.summary().clone();
        // Push half of the next line: nothing may change.
        let (torn_a, torn_b) = lines[3].split_at(lines[3].len() / 2);
        tail.push(torn_a);
        assert_eq!(tail.summary(), &folded, "torn line leaked into the fold");
        // Terminating it folds the line exactly once.
        tail.push(torn_b);
        tail.push("\n");
        assert_eq!(tail.summary().events, folded.events + 1);
        // A one-shot reader may force the carry out instead.
        let mut oneshot = StreamTail::new();
        oneshot.push(lines[0]);
        assert_eq!(oneshot.summary().events, 0);
        oneshot.flush_partial();
        assert_eq!(oneshot.summary().events, 1);
    }

    /// A complete line that does not parse poisons the tail: the fold
    /// freezes at the last good line (the legacy watcher's
    /// break-on-first-bad-line semantics, made permanent).
    #[test]
    fn stream_tail_poisons_on_garbage() {
        let text = synthetic_stream(4);
        let mut tail = StreamTail::new();
        tail.push(&text);
        let good = tail.summary().clone();
        let mut poisoned = StreamTail::new();
        poisoned.push(&text);
        poisoned.push("not json at all\n");
        poisoned.push(&text);
        assert!(poisoned.is_poisoned());
        assert_eq!(poisoned.summary(), &good, "post-poison lines folded");
    }

    #[test]
    fn file_sink_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("malnet-events-{}", std::process::id()));
        let path = dir.join("events.jsonl");
        let sink = EventSink::create(&path).expect("create sink");
        assert!(sink.contents().is_none());
        sink.emit("day_start", None, &[("day", Field::U(0))]);
        sink.finish();
        let text = std::fs::read_to_string(&path).expect("read back");
        let summary = validate_stream(&text).expect("valid");
        assert_eq!(summary.events, 3);
        assert_eq!(summary.days, vec![0]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
