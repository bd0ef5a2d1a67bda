//! Chrome/Perfetto Trace Event writer.
//!
//! Simulated and measured traces are the same type and serialise through
//! [`traces_to_chrome`], so the two sides render identically in
//! `chrome://tracing` / Perfetto and can be loaded side by side. The
//! writer emits the Trace Event Format's JSON array form: complete
//! (`"X"`) events for intervals, counter (`"C"`) events for running
//! totals, and metadata (`"M"`) events naming process and thread tracks.
//! All strings pass through JSON escaping — event names are data, not
//! trusted literals.

use crate::span::IterationTrace;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Escapes `s` as a standalone JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Incremental builder for a Trace Event Format JSON array.
#[derive(Debug, Default)]
pub struct ChromeTraceWriter {
    out: String,
    any: bool,
}

impl ChromeTraceWriter {
    /// An empty trace.
    pub fn new() -> Self {
        Self {
            out: String::from("["),
            any: false,
        }
    }

    fn sep(&mut self) {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
    }

    /// A complete (`"X"`) event: one interval on track (`pid`, `tid`).
    /// Times are microseconds, as the format requires.
    pub fn complete(&mut self, name: &str, cat: &str, pid: u64, tid: u64, ts_us: f64, dur_us: f64) {
        self.sep();
        self.out.push_str("{\"name\":");
        push_json_string(&mut self.out, name);
        self.out.push_str(",\"cat\":");
        push_json_string(&mut self.out, cat);
        self.out.push_str(&format!(
            ",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3}}}"
        ));
    }

    /// A counter (`"C"`) event: named series values at one timestamp.
    pub fn counter(&mut self, name: &str, pid: u64, ts_us: f64, series: &[(&str, f64)]) {
        self.sep();
        self.out.push_str("{\"name\":");
        push_json_string(&mut self.out, name);
        self.out.push_str(&format!(
            ",\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts_us:.3},\"args\":{{"
        ));
        for (i, (k, v)) in series.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            push_json_string(&mut self.out, k);
            self.out.push_str(&format!(":{v}"));
        }
        self.out.push_str("}}");
    }

    /// A `process_name` metadata event labelling `pid`.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.metadata("process_name", pid, None, name);
    }

    /// A `thread_name` metadata event labelling (`pid`, `tid`).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.metadata("thread_name", pid, Some(tid), name);
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: Option<u64>, name: &str) {
        self.sep();
        self.out.push_str("{\"name\":");
        push_json_string(&mut self.out, kind);
        self.out.push_str(&format!(",\"ph\":\"M\",\"pid\":{pid}"));
        if let Some(tid) = tid {
            self.out.push_str(&format!(",\"tid\":{tid}"));
        }
        self.out.push_str(",\"args\":{\"name\":");
        push_json_string(&mut self.out, name);
        self.out.push_str("}}");
    }

    /// Closes the array and returns the JSON string.
    pub fn finish(mut self) -> String {
        self.out.push(']');
        self.out
    }
}

/// How stage traces map to Perfetto process tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PidKey {
    /// One process track per data-parallel replica (in-process runs):
    /// stages are threads of their replica.
    Replica,
    /// One process track per stage (merged multi-process runs): each
    /// stage really was its own OS process.
    Stage,
}

/// Serialises stage traces as a Chrome trace.
///
/// Traces from different processes are aligned onto one time axis by
/// their [`ClockAnchor`](crate::ClockAnchor) epochs: the earliest anchor
/// becomes t = 0 and every other trace is shifted by its epoch delta.
/// Comm spans (send / recv-wait) land on a separate sub-track
/// (`tid + 1000`) so waits render under the compute row they explain.
pub fn traces_to_chrome(trace: &IterationTrace, key: PidKey) -> String {
    let mut w = ChromeTraceWriter::new();
    let base_epoch = trace.stages.iter().map(|s| s.epoch_ns).min().unwrap_or(0);
    let mut named_pids: Vec<u64> = Vec::new();
    for st in &trace.stages {
        let pid = match key {
            PidKey::Replica => st.replica as u64,
            PidKey::Stage => st.stage as u64,
        };
        if !named_pids.contains(&pid) {
            named_pids.push(pid);
            let pname = match key {
                PidKey::Replica => format!("replica {}", st.replica),
                PidKey::Stage => format!("stage {} (process)", st.stage),
            };
            w.process_name(pid, &pname);
        }
        let tid = st.stage as u64;
        w.thread_name(pid, tid, &format!("stage {} compute", st.stage));
        w.thread_name(pid, tid + 1000, &format!("stage {} comm", st.stage));
        let shift = st.epoch_ns - base_epoch;
        for s in &st.spans {
            let track = if s.kind.is_comm() { tid + 1000 } else { tid };
            w.complete(
                &s.label(),
                s.kind.name(),
                pid,
                track,
                (s.start_ns + shift) as f64 * 1e-3,
                s.duration_ns() as f64 * 1e-3,
            );
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanKind, StageTrace, NO_TAG};

    fn span(kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            kind,
            mb: 0,
            slice: 0,
            chunk: 0,
            peer: NO_TAG,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let mut w = ChromeTraceWriter::new();
        w.complete("evil \"name\"\\\n\u{1}", "cat", 0, 0, 0.0, 1.0);
        let json = w.finish();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v[0]["name"].as_str().unwrap(), "evil \"name\"\\\n\u{1}");
    }

    #[test]
    fn counter_and_metadata_events_parse() {
        let mut w = ChromeTraceWriter::new();
        w.process_name(3, "replica 3");
        w.thread_name(3, 1, "stage 1");
        w.counter("arena", 3, 10.0, &[("hits", 5.0), ("misses", 1.0)]);
        let v: serde_json::Value = serde_json::from_str(&w.finish()).unwrap();
        assert_eq!(v[0]["ph"].as_str().unwrap(), "M");
        assert_eq!(v[2]["args"]["hits"].as_f64().unwrap(), 5.0);
    }

    #[test]
    fn cross_process_traces_align_on_epochs() {
        let t = IterationTrace {
            stages: vec![
                StageTrace {
                    stage: 0,
                    replica: 0,
                    epoch_ns: 1_000,
                    spans: vec![span(SpanKind::Forward, 0, 500)],
                    dropped: 0,
                },
                StageTrace {
                    stage: 1,
                    replica: 0,
                    epoch_ns: 1_500,
                    spans: vec![span(SpanKind::Forward, 0, 500)],
                    dropped: 0,
                },
            ],
        };
        let v: serde_json::Value =
            serde_json::from_str(&traces_to_chrome(&t, PidKey::Stage)).unwrap();
        let events = v.as_array().unwrap();
        // Stage 1's span is shifted by its 500 ns anchor delta.
        let xs: Vec<(u64, f64)> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .map(|e| (e["pid"].as_u64().unwrap(), e["ts"].as_f64().unwrap()))
            .collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0], (0, 0.0));
        assert_eq!(xs[1].0, 1);
        assert!((xs[1].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn replicas_get_distinct_pids() {
        let mk = |replica| StageTrace {
            stage: 0,
            replica,
            epoch_ns: 0,
            spans: vec![span(SpanKind::Forward, 0, 10)],
            dropped: 0,
        };
        let t = IterationTrace {
            stages: vec![mk(0), mk(1)],
        };
        let v: serde_json::Value =
            serde_json::from_str(&traces_to_chrome(&t, PidKey::Replica)).unwrap();
        let pids: std::collections::BTreeSet<u64> = v
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .map(|e| e["pid"].as_u64().unwrap())
            .collect();
        assert_eq!(pids.len(), 2);
    }

    #[test]
    fn comm_spans_land_on_the_comm_subtrack() {
        let t = IterationTrace {
            stages: vec![StageTrace {
                stage: 2,
                replica: 0,
                epoch_ns: 0,
                spans: vec![
                    span(SpanKind::Forward, 0, 10),
                    Span {
                        kind: SpanKind::RecvWait,
                        mb: NO_TAG,
                        slice: NO_TAG,
                        chunk: NO_TAG,
                        peer: 1,
                        start_ns: 10,
                        end_ns: 20,
                    },
                ],
                dropped: 0,
            }],
        };
        let v: serde_json::Value =
            serde_json::from_str(&traces_to_chrome(&t, PidKey::Replica)).unwrap();
        let tids: Vec<u64> = v
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .map(|e| e["tid"].as_u64().unwrap())
            .collect();
        assert_eq!(tids, vec![2, 1002]);
    }
}
