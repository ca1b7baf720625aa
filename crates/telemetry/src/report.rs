//! The versioned, machine-readable run report.
//!
//! A [`RunReport`] is a plain-data snapshot of a telemetry registry:
//! span wall-times (total and self), counter values, histogram
//! summaries, and ordered rollup rows. [`RunReport::to_json`] renders
//! the stable on-disk schema (`malnet.run_report` v1) that
//! `malnet-bench`'s `run_report` bin writes to
//! `results/run_report.json`; EXPERIMENTS.md documents the format.

use std::fmt::Write as _;

/// Wall-time summary of one named span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReport {
    /// Span name, e.g. `pipeline.phase_a`.
    pub name: String,
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall microseconds across all calls.
    pub total_us: u64,
    /// Total minus time attributed to child spans (same-thread nesting
    /// plus cross-thread `span_under` attachments).
    pub self_us: u64,
    /// Name of the first span observed enclosing this one; `None` for
    /// roots and spans only ever opened on detached worker threads.
    pub parent: Option<String>,
}

/// Summary of one log2-bucketed histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramReport {
    /// Histogram name, e.g. `sandbox.instructions_per_run`.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median, estimated at bucket granularity (upper bound).
    pub p50: u64,
    /// 90th percentile estimate.
    pub p90: u64,
    /// 99th percentile estimate.
    pub p99: u64,
    /// Non-empty `(inclusive upper bound, count)` buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// The schema identifier embedded in every report.
pub const SCHEMA: &str = "malnet.run_report";
/// The current schema version.
pub const VERSION: u32 = 1;

/// A complete telemetry snapshot. `Default` is the valid empty report a
/// disabled handle produces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Spans in name order.
    pub spans: Vec<SpanReport>,
    /// `(name, value)` counters in name order.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries in name order.
    pub histograms: Vec<HistogramReport>,
    /// `(key, fields)` rollup rows in arrival order.
    pub rollups: Vec<(String, Vec<(String, u64)>)>,
}

impl RunReport {
    /// Look up a span by name.
    pub fn span(&self, name: &str) -> Option<&SpanReport> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramReport> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serialize to the versioned JSON schema (see EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        let _ = write!(out, "{}:{},", json_str("schema"), json_str(SCHEMA));
        let _ = write!(out, "{}:{},", json_str("version"), VERSION);

        out.push_str("\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"calls\":{},\"total_us\":{},\"self_us\":{}",
                json_str(&s.name),
                s.calls,
                s.total_us,
                s.self_us
            );
            if let Some(p) = &s.parent {
                let _ = write!(out, ",\"parent\":{}", json_str(p));
            }
            out.push('}');
        }
        out.push_str("],");

        out.push_str("\"counters\":[");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":{},\"value\":{}}}", json_str(name), value);
        }
        out.push_str("],");

        out.push_str("\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                json_str(&h.name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p90,
                h.p99
            );
            for (j, (le, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"le\":{le},\"count\":{n}}}");
            }
            out.push_str("]}");
        }
        out.push_str("],");

        out.push_str("\"rollups\":[");
        for (i, (key, fields)) in self.rollups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"key\":{},\"fields\":{{", json_str(key));
            for (j, (name, value)) in fields.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_str(name), value);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Parse a report back from its [`RunReport::to_json`] rendering.
    ///
    /// The inverse direction exists so consumers (`study_watch`, the
    /// proptest roundtrip suite) can fold an event stream against a
    /// report file without re-running the study. Counter values and
    /// bucket bounds survive bit-exact up to `u64::MAX` (the parser
    /// keeps plain integers out of `f64`).
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let v = crate::json::parse(text)?;
        if v.get("schema").and_then(crate::json::Value::as_str) != Some(SCHEMA) {
            return Err("wrong or missing schema".to_string());
        }
        if v.get("version").and_then(crate::json::Value::as_u64) != Some(VERSION as u64) {
            return Err("wrong or missing version".to_string());
        }
        let arr = |name: &str| -> Result<&[crate::json::Value], String> {
            v.get(name)
                .and_then(crate::json::Value::as_array)
                .ok_or(format!("missing {name:?} array"))
        };
        let str_of = |v: &crate::json::Value, name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(crate::json::Value::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string {name:?}"))
        };
        let u64_of = |v: &crate::json::Value, name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(crate::json::Value::as_u64)
                .ok_or(format!("missing integer {name:?}"))
        };

        let mut report = RunReport::default();
        for s in arr("spans")? {
            report.spans.push(SpanReport {
                name: str_of(s, "name")?,
                calls: u64_of(s, "calls")?,
                total_us: u64_of(s, "total_us")?,
                self_us: u64_of(s, "self_us")?,
                parent: match s.get("parent") {
                    None => None,
                    Some(p) => Some(
                        p.as_str()
                            .map(str::to_string)
                            .ok_or("non-string \"parent\"")?,
                    ),
                },
            });
        }
        for c in arr("counters")? {
            report
                .counters
                .push((str_of(c, "name")?, u64_of(c, "value")?));
        }
        for h in arr("histograms")? {
            let mut buckets = Vec::new();
            for b in h
                .get("buckets")
                .and_then(crate::json::Value::as_array)
                .ok_or("missing \"buckets\" array")?
            {
                buckets.push((u64_of(b, "le")?, u64_of(b, "count")?));
            }
            report.histograms.push(HistogramReport {
                name: str_of(h, "name")?,
                count: u64_of(h, "count")?,
                sum: u64_of(h, "sum")?,
                min: u64_of(h, "min")?,
                max: u64_of(h, "max")?,
                p50: u64_of(h, "p50")?,
                p90: u64_of(h, "p90")?,
                p99: u64_of(h, "p99")?,
                buckets,
            });
        }
        for r in arr("rollups")? {
            let key = str_of(r, "key")?;
            let Some(crate::json::Value::Obj(members)) = r.get("fields") else {
                return Err("missing \"fields\" object".to_string());
            };
            let mut fields = Vec::with_capacity(members.len());
            for (name, value) in members {
                let n = value
                    .as_u64()
                    .ok_or(format!("rollup field {name:?} is not an integer"))?;
                fields.push((name.clone(), n));
            }
            report.rollups.push((key, fields));
        }
        Ok(report)
    }
}

/// Quote and escape a JSON string (shared with the event stream and
/// trace writers).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_report() -> RunReport {
        RunReport {
            spans: vec![SpanReport {
                name: "pipeline.day".to_string(),
                calls: 3,
                total_us: 1200,
                self_us: 400,
                parent: Some("pipeline.run".to_string()),
            }],
            counters: vec![("netsim.packets_delivered".to_string(), 42)],
            histograms: vec![HistogramReport {
                name: "sandbox.instructions_per_run".to_string(),
                count: 2,
                sum: 12,
                min: 4,
                max: 8,
                p50: 7,
                p90: 15,
                p99: 15,
                buckets: vec![(7, 1), (15, 1)],
            }],
            rollups: vec![(
                "day".to_string(),
                vec![("day".to_string(), 0), ("samples".to_string(), 5)],
            )],
        }
    }

    #[test]
    fn empty_report_is_valid_versioned_json() {
        let v = json::parse(&RunReport::default().to_json()).expect("parses");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
        assert_eq!(v.get("version").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(v.get("spans").and_then(|a| a.as_array()).unwrap().len(), 0);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let rep = sample_report();
        let v = json::parse(&rep.to_json()).expect("parses");
        let spans = v.get("spans").and_then(|a| a.as_array()).unwrap();
        assert_eq!(
            spans[0].get("name").and_then(|s| s.as_str()),
            Some("pipeline.day")
        );
        assert_eq!(spans[0].get("self_us").and_then(|n| n.as_u64()), Some(400));
        assert_eq!(
            spans[0].get("parent").and_then(|s| s.as_str()),
            Some("pipeline.run")
        );
        let counters = v.get("counters").and_then(|a| a.as_array()).unwrap();
        assert_eq!(counters[0].get("value").and_then(|n| n.as_u64()), Some(42));
        let hists = v.get("histograms").and_then(|a| a.as_array()).unwrap();
        let buckets = hists[0].get("buckets").and_then(|a| a.as_array()).unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[1].get("le").and_then(|n| n.as_u64()), Some(15));
        let rollups = v.get("rollups").and_then(|a| a.as_array()).unwrap();
        let fields = rollups[0].get("fields").unwrap();
        assert_eq!(fields.get("samples").and_then(|n| n.as_u64()), Some(5));
    }

    #[test]
    fn from_json_inverts_to_json() {
        for rep in [sample_report(), RunReport::default()] {
            let back = RunReport::from_json(&rep.to_json()).expect("parses");
            assert_eq!(back, rep);
        }
        // Extreme counter values survive bit-exact.
        let mut rep = RunReport::default();
        rep.counters.push(("big".to_string(), u64::MAX));
        rep.counters.push(("odd".to_string(), (1u64 << 53) + 1));
        assert_eq!(RunReport::from_json(&rep.to_json()).unwrap(), rep);
        // Wrong schema/version are rejected.
        assert!(RunReport::from_json("{\"schema\":\"x\",\"version\":1}").is_err());
        assert!(
            RunReport::from_json(&rep.to_json().replace("\"version\":1", "\"version\":2")).is_err()
        );
    }

    #[test]
    fn lookup_helpers() {
        let rep = sample_report();
        assert_eq!(rep.span("pipeline.day").unwrap().calls, 3);
        assert!(rep.span("missing").is_none());
        assert_eq!(rep.counter("netsim.packets_delivered"), Some(42));
        assert_eq!(rep.counter("missing"), None);
        assert_eq!(
            rep.histogram("sandbox.instructions_per_run").unwrap().max,
            8
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut rep = RunReport::default();
        rep.counters.push(("weird \"name\"\n".to_string(), 1));
        let v = json::parse(&rep.to_json()).expect("parses");
        let counters = v.get("counters").and_then(|a| a.as_array()).unwrap();
        assert_eq!(
            counters[0].get("name").and_then(|s| s.as_str()),
            Some("weird \"name\"\n")
        );
    }
}
