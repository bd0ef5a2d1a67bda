//! Pricing, calibration, fidelity checks and trace output around the
//! list-order timing engine.
//!
//! The engine itself — per-worker list order, link occupancy, dynamic
//! weight-gradient draining (Section 5) and memory tracking against a
//! device cap — lives in [`mepipe_schedule::exec`]; [`engine`] re-exports
//! it. This crate supplies what surrounds it:
//!
//! * **pricing** — [`ModelCost`] adapts the analytic model × partition ×
//!   cluster cost to the engine's [`Cost`](mepipe_schedule::exec::Cost)
//!   trait, at per-GEMM weight granularity for MEPipe and per-op
//!   granularity for zero-bubble baselines;
//! * **calibration** — [`calibrate`] fits that cost to measured trace
//!   spans;
//! * **fidelity** — [`fidelity`] compares measured time, wire time and
//!   memory with the model's prediction, one ratio row at a time;
//! * **output** — Chrome traces ([`trace`]), per-stage activity strips
//!   ([`timeline`]) and headline metrics ([`metrics`]).
#![warn(missing_docs)]

pub mod calibrate;
pub mod cost;
pub mod engine;
pub mod fidelity;
pub mod metrics;
pub mod timeline;
pub mod trace;

pub use calibrate::{extract_samples, fit_execution_cost, ConvergenceReport, MeasuredSamples};
pub use cost::ModelCost;
pub use trace::{replicas_to_chrome_trace, to_chrome_trace};

/// Lower edge of the healthy measured/modeled band that
/// [`fidelity::Report::warnings`] applies to every row. Below it the
/// model over-prices what was measured.
pub const RATIO_WARN_LO: f64 = 0.5;

/// Upper edge of the healthy measured/modeled band: above it the run
/// spent far more than the model knows about.
pub const RATIO_WARN_HI: f64 = 2.0;
