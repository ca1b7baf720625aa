//! The live `malnet.events` v1 stream: append-only JSONL observability.
//!
//! A [`RunReport`] is a *post-hoc* snapshot — useless for a paper-scale
//! study (1447 samples over 31 weeks) that should be observable while it
//! runs. An [`EventSink`] is the streaming complement: the pipeline
//! appends one JSON object per line as lifecycle milestones pass —
//! study and day boundaries, per-day rollup rows, quarantine and chaos
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
//! One line fold checks the stream's well-formedness (contiguous
//! sequence numbers, one `stream_start`/`stream_end` pair, strictly
//! increasing days, monotone counter snapshots, well-formed rollup rows)
//! and folds it into a [`StreamSummary`]. [`validate_stream`] runs it
//! over a finished stream; [`StreamTail`] runs it over a growing one and
//! stops at the same first violation. [`fold_matches_report`] then
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
/// sizes) or short strings (hashes, fault kinds and details).
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
    /// Lines folded (on a complete stream, the `stream_end` line's
    /// `events` field).
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

/// The one line fold behind [`validate_stream`] and [`StreamTail`]: it
/// checks the next line against everything before it and folds it into
/// the summary. A line that fails a check leaves the fold untouched.
///
/// Checks: every line parses; sequence numbers are contiguous from 0;
/// the first event is a v1 `stream_start` and a `stream_end`'s `events`
/// count matches; nothing follows `stream_end`; `day_start` days
/// strictly increase; counter snapshots are monotone (no counter ever
/// decreases or disappears); heartbeat progress is monotone; rollup
/// rows carry no duplicate field names and day-keyed rows strictly
/// increase. Unknown kinds (`study_start`, `probe_day`, ...) are
/// structural no-ops, so a reader also accepts older streams.
#[derive(Debug, Clone, Default)]
struct Fold {
    summary: StreamSummary,
    last_day_rollup: Option<u64>,
    ended: bool,
}

impl Fold {
    fn line(&mut self, line: &str) -> Result<(), String> {
        let seq = self.summary.events;
        let lineno = seq + 1;
        if self.ended {
            return Err(format!("line {lineno}: event after stream_end"));
        }
        let ev = parse_event_line(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if ev.seq != seq {
            return Err(format!(
                "line {lineno}: sequence gap (expected seq {seq}, got {})",
                ev.seq
            ));
        }
        let summary = &mut self.summary;
        match ev.kind.as_str() {
            kind if seq == 0 => {
                if kind != "stream_start" {
                    return Err(format!("line 1: expected stream_start, got {kind:?}"));
                }
                if ev.str("schema") != Some(EVENTS_SCHEMA) {
                    return Err("line 1: wrong or missing schema".to_string());
                }
                if ev.u64("version") != Some(EVENTS_VERSION) {
                    return Err("line 1: wrong or missing version".to_string());
                }
            }
            "stream_start" => {
                return Err(format!("line {lineno}: duplicate stream_start"));
            }
            "stream_end" => {
                let declared = ev
                    .u64("events")
                    .ok_or(format!("line {lineno}: stream_end lacks \"events\""))?;
                if declared != lineno {
                    return Err(format!(
                        "line {lineno}: stream_end declares {declared} events, stream has {lineno}"
                    ));
                }
                self.ended = true;
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
            "counters" => {
                let mut snapshot: Vec<(String, u64)> = Vec::with_capacity(ev.fields.len());
                for (name, value) in &ev.fields {
                    let n = value
                        .as_u64()
                        .ok_or(format!("line {lineno}: counter {name:?} is not an integer"))?;
                    snapshot.push((name.clone(), n));
                }
                for (name, prev) in &summary.final_counters {
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
                summary.final_counters = snapshot;
            }
            "heartbeat" => {
                let done = ev.u64("samples_completed").ok_or(format!(
                    "line {lineno}: heartbeat lacks \"samples_completed\""
                ))?;
                if done < summary.samples_completed {
                    return Err(format!(
                        "line {lineno}: heartbeat progress went backwards ({} -> {done})",
                        summary.samples_completed
                    ));
                }
                summary.heartbeats += 1;
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
                    if self.last_day_rollup.is_some_and(|prev| day <= prev) {
                        return Err(format!(
                            "line {lineno}: day rollup {day} does not increase (last {:?})",
                            self.last_day_rollup
                        ));
                    }
                    self.last_day_rollup = Some(day);
                }
                summary.rollups.push((key, fields));
            }
            "quarantine" => summary.quarantines += 1,
            "chaos" => summary.chaos_events += 1,
            _ => {}
        }
        summary.events = lineno;
        Ok(())
    }
}

/// Validate a complete stream and fold it into a [`StreamSummary`]:
/// every line passes the fold's checks, and the stream ends with
/// `stream_end`.
pub fn validate_stream(text: &str) -> Result<StreamSummary, String> {
    let mut fold = Fold::default();
    for line in text.lines() {
        fold.line(line)?;
    }
    if !fold.ended {
        return Err(format!(
            "stream not terminated: {} event(s), no stream_end",
            fold.summary.events
        ));
    }
    Ok(fold.summary)
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
/// the engine behind `study_watch` and its `--follow` mode.
///
/// `StreamTail` consumes only newly appended bytes, so watching a study
/// costs O(stream) in total. Feed it chunks split at **any** boundary —
/// including mid-line; the sink flushes whole lines, but a reader can
/// still observe a torn tail between the write and the flush — and it
/// folds exactly the complete lines, carrying an unterminated tail until
/// its newline arrives.
///
/// Each complete line goes through the same strict fold as
/// [`validate_stream`]. The first line that fails it stops the tail for
/// good: [`StreamTail::error`] keeps the message, later pushes are
/// ignored and the summary stays at the last good line.
#[derive(Debug, Clone, Default)]
pub struct StreamTail {
    /// Bytes of an unterminated trailing line, held until its newline.
    carry: String,
    fold: Fold,
    error: Option<String>,
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

    /// The fold so far. Only complete lines that passed the checks are
    /// reflected.
    pub fn summary(&self) -> &StreamSummary {
        &self.fold.summary
    }

    /// Has `stream_end` been folded?
    pub fn is_complete(&self) -> bool {
        self.fold.ended
    }

    /// The first violation, if a complete line failed the fold: the
    /// same message [`validate_stream`] gives for that stream.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    fn fold_line(&mut self, line: &str) {
        if self.error.is_none() {
            self.error = self.fold.line(line).err();
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

    /// Streams written before the epoch reduce stopped emitting empty
    /// `phase_start`/`phase_end` pairs still carry them. They are
    /// unknown kinds now, so such a stream validates to the same fold.
    #[test]
    fn validate_accepts_a_well_formed_stream() {
        for phases in [false, true] {
            let sink = EventSink::in_memory();
            sink.emit("study_start", None, &[("seed", field_u(22))]);
            for day in [0u64, 3, 7] {
                sink.emit("day_start", None, &[("day", field_u(day))]);
                if phases {
                    let fields = [("phase", Field::S("phase_a")), ("day", field_u(day))];
                    sink.emit("phase_start", None, &fields);
                    sink.emit("phase_end", None, &fields);
                }
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
            assert_eq!(summary.events, if phases { 21 } else { 15 });
            assert_eq!(summary.days, vec![0, 3, 7]);
            assert_eq!(summary.heartbeats, 3);
            assert_eq!(summary.samples_completed, 8);
            assert_eq!(summary.rollups.len(), 3);
            assert_eq!(
                summary.final_counters,
                vec![("a.x".to_string(), 14), ("b.y".to_string(), 12)]
            );
        }
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

    /// The tail runs the validator's fold, so on a structurally broken
    /// stream it stops at the same first violation, whatever the
    /// chunking, and keeps the summary of the lines before it.
    #[test]
    fn stream_tail_reports_the_validators_first_error() {
        let text = synthetic_stream(30);
        let lines: Vec<&str> = text.lines().collect();
        // A dropped line: a sequence gap.
        let gap = [&lines[..40], &lines[41..]].concat().join("\n");
        // A repeated day, with every seq intact: only the day check trips.
        let at = lines.iter().rposition(|l| l.contains("day_start")).unwrap();
        let mut repeat: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        repeat[at] = repeat[at].replace("\"day\":29", "\"day\":28");
        for text in [gap, repeat.join("\n")] {
            let text = text + "\n";
            let want = validate_stream(&text).unwrap_err();
            for chunk in [1usize, 64, text.len()] {
                let mut tail = StreamTail::new();
                for part in text.as_bytes().chunks(chunk) {
                    tail.push(std::str::from_utf8(part).unwrap());
                }
                assert_eq!(tail.error(), Some(want.as_str()), "chunk size {chunk}");
                assert!(!tail.is_complete());
                let line: u64 = want["line ".len()..want.find(':').unwrap()]
                    .parse()
                    .unwrap();
                assert_eq!(tail.summary().events, line - 1, "chunk size {chunk}");
            }
        }
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
        assert_eq!(batch.error(), None);
        assert_eq!(batch.summary().days.len(), 400);

        // The stream is ASCII JSON, so any byte split is a char split.
        for chunk in [1usize, 3, 7, 64, 509, 4096] {
            let mut tail = StreamTail::new();
            for part in text.as_bytes().chunks(chunk) {
                tail.push(std::str::from_utf8(part).unwrap());
            }
            assert_eq!(tail.summary(), batch.summary(), "chunk size {chunk}");
            assert!(tail.is_complete(), "chunk size {chunk}");
            assert_eq!(tail.error(), None, "chunk size {chunk}");
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

    /// A complete line that does not parse stops the tail: the fold
    /// freezes at the last good line and the error names the bad one.
    #[test]
    fn stream_tail_poisons_on_garbage() {
        let text = synthetic_stream(4);
        let (head, rest) = text.split_at(text.len() / 2);
        let head = &head[..=head.rfind('\n').unwrap()];
        let mut tail = StreamTail::new();
        tail.push(head);
        let good = tail.summary().clone();
        tail.push("not json at all\n");
        tail.push(rest);
        tail.push(&text);
        let err = tail.error().expect("garbage is an error");
        assert!(
            err.starts_with(&format!("line {}:", good.events + 1)),
            "{err}"
        );
        assert_eq!(tail.summary(), &good, "post-error lines folded");
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
