//! Structured JSON-lines event log with a bounded flight recorder.
//!
//! The control plane and the worker binaries used to narrate themselves
//! through ad-hoc `eprintln!` calls: unparseable, unlevelled, and gone
//! the moment the process dies. [`EventLog`] replaces them with one
//! schema — every event is a single JSON line carrying a monotonic
//! timestamp (plus its wall-clock position from the process's
//! [`ClockAnchor`], so multi-process logs merge on one axis), a level,
//! the emitting component, and optional job/stage tags — streamed to a
//! sink (stderr or a file) *and* retained in a bounded ring.
//!
//! The ring is the **flight recorder**: when something dies — a worker
//! process, a verification pass, a transport — the owner calls
//! [`EventLog::dump_postmortem`], which snapshots the last N events and
//! an optional metrics-registry snapshot into a postmortem JSON file. The crash artifact answers "what was it
//! doing right before?" without anyone having had to foresee the crash
//! and turn logging up.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

use crate::chrome::push_json_string;
use crate::clock::ClockAnchor;
use crate::metrics::MetricsRegistry;

/// Default flight-recorder ring capacity (events retained for postmortems).
pub const DEFAULT_RECORDER_CAPACITY: usize = 512;

/// Event severity, ordered: `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Chatty diagnostics, off by default.
    Debug,
    /// Normal lifecycle narration.
    Info,
    /// Something degraded but the run continues.
    Warn,
    /// Something failed.
    Error,
}

impl Level {
    /// Lowercase name as it appears in the JSON `level` field.
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// One structured event: what happened, when, where.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic nanoseconds since the log's anchor.
    pub ts_ns: u64,
    /// Severity.
    pub level: Level,
    /// Job name this event concerns, if any.
    pub job: Option<String>,
    /// Pipeline stage this event concerns, if any.
    pub stage: Option<usize>,
    /// Human-readable message (data, not a format string).
    pub message: String,
    /// Extra key/value tags appended verbatim to the JSON object.
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    /// `component` and `epoch_ns` come from the owning log so every
    /// line carries the process identity and wall-clock anchor.
    pub fn to_json(&self, component: &str, anchor_epoch_ns: u64) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"ts_ns\":{},\"epoch_ns\":{},\"level\":\"{}\",\"component\":",
            self.ts_ns,
            anchor_epoch_ns.saturating_add(self.ts_ns),
            self.level.name()
        );
        push_json_string(&mut out, component);
        if let Some(job) = &self.job {
            out.push_str(",\"job\":");
            push_json_string(&mut out, job);
        }
        if let Some(stage) = self.stage {
            let _ = write!(out, ",\"stage\":{stage}");
        }
        out.push_str(",\"msg\":");
        push_json_string(&mut out, &self.message);
        for (k, v) in &self.fields {
            out.push(',');
            push_json_string(&mut out, k);
            out.push(':');
            push_json_string(&mut out, v);
        }
        out.push('}');
        out
    }
}

/// A leveled, ring-buffered JSON-lines event log.
///
/// Single-owner by design: the daemon mutates it between ticks, the
/// worker binary from its driver thread. (The HTTP exporter never reads
/// it — it serves snapshots published separately.)
pub struct EventLog {
    anchor: ClockAnchor,
    component: String,
    min_level: Level,
    ring: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    sink: Option<Box<dyn Write + Send>>,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventLog")
            .field("component", &self.component)
            .field("min_level", &self.min_level)
            .field("ring_len", &self.ring.len())
            .field("dropped", &self.dropped)
            .field("has_sink", &self.sink.is_some())
            .finish()
    }
}

impl EventLog {
    /// A log that streams JSON lines to stderr (the `eprintln!`
    /// replacement) while retaining the flight-recorder ring.
    pub fn stderr(component: &str) -> Self {
        Self::with_sink(component, Some(Box::new(std::io::stderr())))
    }

    /// A log that only retains the ring — for tests and embedded use.
    pub fn silent(component: &str) -> Self {
        Self::with_sink(component, None)
    }

    /// A log streaming to an arbitrary sink (e.g. an events.jsonl file).
    pub fn with_sink(component: &str, sink: Option<Box<dyn Write + Send>>) -> Self {
        EventLog {
            anchor: ClockAnchor::now(),
            component: component.to_string(),
            min_level: Level::Info,
            ring: VecDeque::with_capacity(DEFAULT_RECORDER_CAPACITY),
            capacity: DEFAULT_RECORDER_CAPACITY,
            dropped: 0,
            sink,
        }
    }

    /// Lowers or raises the level below which events are discarded.
    pub fn min_level(mut self, level: Level) -> Self {
        self.min_level = level;
        self
    }

    /// Overrides the flight-recorder ring capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// The component tag every event from this log carries.
    pub fn component(&self) -> &str {
        &self.component
    }

    /// Records a fully-tagged event.
    pub fn event(
        &mut self,
        level: Level,
        job: Option<&str>,
        stage: Option<usize>,
        message: impl Into<String>,
        fields: &[(&str, String)],
    ) {
        if level < self.min_level {
            return;
        }
        let ev = Event {
            ts_ns: self.anchor.elapsed_ns(),
            level,
            job: job.map(str::to_string),
            stage,
            message: message.into(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        if let Some(sink) = &mut self.sink {
            let _ = writeln!(
                sink,
                "{}",
                ev.to_json(&self.component, self.anchor.epoch_ns)
            );
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Untagged info event.
    pub fn info(&mut self, message: impl Into<String>) {
        self.event(Level::Info, None, None, message, &[]);
    }

    /// Untagged warning.
    pub fn warn(&mut self, message: impl Into<String>) {
        self.event(Level::Warn, None, None, message, &[]);
    }

    /// Untagged error.
    pub fn error(&mut self, message: impl Into<String>) {
        self.event(Level::Error, None, None, message, &[]);
    }

    /// Events currently retained in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// How many events the ring has discarded to stay bounded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the flight-recorder contents as one postmortem JSON
    /// document: the trigger reason, ring stats, the last N events, and
    /// an optional metrics snapshot.
    pub fn postmortem_json(&self, reason: &str, registry: Option<&MetricsRegistry>) -> String {
        let mut out = String::from("{\"reason\":");
        push_json_string(&mut out, reason);
        out.push_str(",\"component\":");
        push_json_string(&mut out, &self.component);
        let _ = write!(
            out,
            ",\"epoch_ns\":{},\"dropped\":{},\"events\":[",
            self.anchor.epoch_ns, self.dropped
        );
        for (i, ev) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.to_json(&self.component, self.anchor.epoch_ns));
        }
        out.push_str("],\"metrics\":");
        match registry {
            Some(reg) => out.push_str(&reg.to_json()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Dumps the flight recorder to `path` (written atomically via a
    /// sibling temp file, so a crash mid-dump never leaves a truncated
    /// postmortem).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing or renaming the file.
    pub fn dump_postmortem(
        &self,
        path: &Path,
        reason: &str,
        registry: Option<&MetricsRegistry>,
    ) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.postmortem_json(reason, registry))?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_json_lines_with_tags() {
        let mut log = EventLog::silent("ctl");
        log.event(
            Level::Warn,
            Some("job-a"),
            Some(2),
            "stage 2 exited with signal 6",
            &[("restarts", "1".to_string())],
        );
        let ev = log.events().next().expect("one event");
        let line = ev.to_json("ctl", 0);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v["level"].as_str(), Some("warn"));
        assert_eq!(v["component"].as_str(), Some("ctl"));
        assert_eq!(v["job"].as_str(), Some("job-a"));
        assert_eq!(v["stage"].as_f64(), Some(2.0));
        assert_eq!(v["restarts"].as_str(), Some("1"));
        assert!(v["msg"].as_str().unwrap().contains("signal 6"));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut log = EventLog::silent("worker").capacity(4);
        for i in 0..10 {
            log.info(format!("event {i}"));
        }
        assert_eq!(log.events().count(), 4);
        assert_eq!(log.dropped(), 6);
        assert_eq!(log.events().next().unwrap().message, "event 6");
    }

    #[test]
    fn min_level_filters() {
        let mut log = EventLog::silent("worker");
        log.event(Level::Debug, None, None, "chatty", &[]);
        log.info("kept");
        assert_eq!(log.events().count(), 1);
    }

    #[test]
    fn timestamps_are_monotone() {
        let mut log = EventLog::silent("worker");
        log.info("a");
        log.info("b");
        let ts: Vec<u64> = log.events().map(|e| e.ts_ns).collect();
        assert!(ts[1] >= ts[0]);
    }

    #[test]
    fn postmortem_includes_events_and_metrics() {
        let mut log = EventLog::silent("worker");
        log.event(Level::Error, Some("j"), Some(1), "stage 1 died", &[]);
        let mut reg = MetricsRegistry::new();
        reg.counter("mepipe_test_total", "t", &[], 1.0);
        let doc = log.postmortem_json("chaos kill", Some(&reg));
        let v: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        assert_eq!(v["reason"].as_str(), Some("chaos kill"));
        assert_eq!(v["events"][0]["msg"].as_str(), Some("stage 1 died"));
        assert!(v["metrics"]["mepipe_test_total"].as_object().is_some());
        let doc = log.postmortem_json("later", None);
        let v: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        assert!(matches!(v["metrics"], serde_json::Value::Null));
    }

    #[test]
    fn dump_postmortem_writes_atomically() {
        let dir = std::env::temp_dir().join(format!("mepipe-obs-test-{}", std::process::id()));
        let path = dir.join("postmortem.json");
        let mut log = EventLog::silent("worker");
        log.error("boom");
        log.dump_postmortem(&path, "test", None).expect("dump");
        let text = std::fs::read_to_string(&path).expect("read back");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(v["reason"].as_str(), Some("test"));
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
