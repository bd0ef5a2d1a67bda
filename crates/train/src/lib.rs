//! Real pipeline-parallel training runtime on a mini-Llama.
//!
//! This crate is the executable counterpart of the simulator: it runs the
//! *same schedule IR* on real tensors across real OS threads, one thread
//! per pipeline stage, with a pluggable `mepipe-comm` transport standing
//! in for the interconnect (bounded in-process queues, sockets for
//! multi-process runs, or an emulated link that adds alpha–beta wire time
//! and seeded delay jitter). It
//! demonstrates that SVPP's dependency structure is correct:
//!
//! * slice-wise forward with per-layer KV caches equals full-sequence
//!   forward;
//! * backward with reverse-slice dKV accumulation equals full-sequence
//!   backward;
//! * splitting weight-gradient GEMMs out of the backward pass and draining
//!   them later yields identical gradients;
//! * the peak activation bytes a stage holds under SVPP are a fraction of
//!   what 1F1B holds, measured on live tensors, not a model.
//!
//! Modules: [`params`] (weights/grads/optimizer state), [`layer`]
//! (slice-wise decoder layer with explicit backward), [`mod@reference`]
//! (single-device baseline), [`pipeline`] (the threaded runtime),
//! [`optim`] (SGD/Adam), [`memtrack`] (live activation accounting),
//! [`metrics`] (bridges run statistics into a `mepipe-trace` metrics
//! registry for JSON / Prometheus exposition), [`calibrate`] (the
//! paper's profiler → scheduler → engine pipeline as an online loop: it
//! fits the cost model to measured spans, re-searches the schedule space
//! under the fitted costs, and hot-swaps the winner into the running
//! job).
#![warn(missing_docs)]

pub mod calibrate;
pub mod checkpoint;
pub mod data;
pub mod layer;
pub mod memtrack;
pub mod metrics;
pub mod optim;
pub mod params;
pub mod pipeline;
pub mod reference;

pub use memtrack::{MemError, MemTracker};
pub use pipeline::{PipelineRuntime, RunStats, StageRunStats, WgradMode};
