//! `mepipe-trace`: the repository's one timeline type, and the tracing
//! that records it on the real runtime.
//!
//! A [`Span`] is one interval on one stage: a compute span tagged with op
//! kind, micro-batch, slice and chunk; a send or receive-wait span naming
//! its peer; or an opportunistic weight-gradient drain. Each runtime
//! stage thread or process records spans into a preallocated per-stage
//! ring buffer ([`StageTracer`]), and the timing engine
//! (`mepipe_schedule::exec`) books the same spans for a simulated
//! iteration, so everything here reads a measured or a predicted
//! [`IterationTrace`] alike:
//!
//! * [`chrome`] — a Chrome/Perfetto Trace Event writer with correct JSON
//!   string escaping; [`chrome::traces_to_chrome`] puts compute spans on
//!   one track per stage and comm spans on a sub-track under it.
//!   Multi-process traces merge through per-process [`ClockAnchor`]s
//!   (see [`clock`]).
//! * [`bubble`] — attribution of each stage's idle time into warmup /
//!   comm-stall / dependency / tail buckets.
//! * [`metrics`] — a small counter/gauge/histogram registry with JSON and
//!   Prometheus text exposition (plus bucket-interpolated quantile
//!   estimates), unifying the runtime's scattered stat structs behind
//!   one schema.
//! * [`event`] — a structured JSON-lines event log whose bounded ring
//!   doubles as a crash flight recorder ([`EventLog::dump_postmortem`]).
//! * [`http`] — a dependency-free HTTP/1.1 exporter serving `/metrics`,
//!   `/status` and `/healthz` live, either polled from a single-threaded
//!   loop ([`HttpServer`]) or on a background thread ([`HttpExporter`]).
//! * [`straggler`] — persistence-gated detection of stages running
//!   `k ×` above the stage median iteration latency.
//!
//! Tracing has three states: *statically off* (the `off` cargo feature
//! removes every record call at compile time), *runtime-disabled* (the
//! default — one predictable branch per record, no allocation), and
//! *enabled* (a clock read and a ring-buffer write per span; the `train`
//! bench measures and bounds the end-to-end overhead).
#![warn(missing_docs)]

pub mod bubble;
pub mod chrome;
pub mod clock;
pub mod dump;
pub mod event;
pub mod http;
pub mod metrics;
pub mod span;
pub mod straggler;

pub use bubble::{BubbleReport, IdleBuckets, StageBubble};
pub use chrome::{ChromeTraceWriter, PidKey};
pub use clock::ClockAnchor;
pub use event::{Event, EventLog, Level};
pub use http::{http_get, route_obs, HttpExporter, HttpResponse, HttpServer, ObsSnapshot};
pub use metrics::MetricsRegistry;
pub use span::{
    IterationTrace, Span, SpanKind, StageTrace, StageTracer, DEFAULT_RING_CAPACITY, NO_TAG,
};
pub use straggler::{
    StragglerDetector, StragglerFlag, DEFAULT_STRAGGLER_FACTOR, DEFAULT_STRAGGLER_ROUNDS,
};
