//! Discrete-event simulator for pipeline-parallel training iterations.
//!
//! The simulator executes a [`mepipe_schedule::ir::Schedule`] under a
//! pluggable cost model ([`cost::SimCost`]) and produces a full timeline,
//! iteration time, bubble ratio, peak activation memory and communication
//! statistics. It layers the behaviours the static list executor cannot
//! express:
//!
//! * **dynamic weight-gradient draining** (Section 5) — weight-gradient
//!   GEMMs queue at input-gradient completion and fill the gaps where a
//!   worker waits on inter-stage transfers, at per-GEMM granularity for
//!   MEPipe and per-op granularity for zero-bubble baselines;
//! * **memory tracking with a device cap** — activations are charged at
//!   forward start and released at (fused) backward or weight-gradient
//!   completion; deferred weight work retains activations *and* activation
//!   gradients; exceeding the cap first forces a drain, then reports OOM;
//! * **inter-stage transfer pricing** from the cluster's links.
#![warn(missing_docs)]

pub mod bubblecheck;
pub mod calibrate;
pub mod commcheck;
pub mod cost;
pub mod engine;
pub mod memcheck;
pub mod metrics;
pub mod timeline;
pub mod trace;

pub use bubblecheck::BubbleCheckReport;
pub use calibrate::{extract_samples, fit_execution_cost, ConvergenceReport, MeasuredSamples};
pub use commcheck::{CommCheckReport, LinkCheck};
pub use cost::{ModelCost, SimCost, UniformSimCost};
pub use engine::{simulate, SimConfig, SimResult, SimSummary};
pub use memcheck::{MemCheckReport, StageMemCheck};
pub use timeline::{Segment, SegmentKind};
pub use trace::{replicas_to_chrome_trace, to_chrome_trace};

/// Lower edge of the healthy measured/modeled band shared by the
/// fidelity checks ([`commcheck`] wire time, [`memcheck`] activation
/// memory). Below it the model over-prices what was measured.
pub const RATIO_WARN_LO: f64 = 0.5;

/// Upper edge of the healthy measured/modeled band: above it the run
/// spent far more than the model knows about.
pub const RATIO_WARN_HI: f64 = 2.0;
