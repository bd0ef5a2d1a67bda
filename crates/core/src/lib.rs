//! MEPipe's core contribution: SVPP slice-level pipeline scheduling, its
//! closed-form analysis and the order solver. (The fine-grained
//! weight-gradient queue of Section 5 lives with the timing engine in
//! `mepipe_schedule::exec`.)
//!
//! * [`svpp`] — Sequence Virtual Pipeline Parallelism schedule generation
//!   (Section 4.1): slice-granular 1F1B with per-stage warmup capacities.
//! * [`variants`] — the memory/bubble trade-off family of Section 4.2 and
//!   the selection of the variant that fits a memory budget (Section 4.5).
//! * [`reschedule`] — the backward-rescheduling optimisation of Section 4.3
//!   (priority = descendant count, earliest-initiation table).
//! * [`analytic`] — the closed-form bubble-ratio and activation-memory
//!   expressions of Table 3 for every scheduling method.
//! * [`solver`] — OptPipe-style bound-pruned beam search over per-worker
//!   op orders, seeded with the greedy SVPP family and priced on the
//!   list-order engine of `mepipe_schedule::exec`.
//! * [`nonuniform`] — TeraPipe's dynamic-programming slice balancing and
//!   the uniform-vs-non-uniform crossover analysis of Section 5.
#![warn(missing_docs)]

pub mod analytic;
pub mod nonuniform;
pub mod reschedule;
pub mod solver;
pub mod svpp;
pub mod variants;

pub use solver::{SolverStats, Synth, Synthesis};
pub use svpp::{Mepipe, Svpp, SvppConfig};
pub use variants::{select_variant_for_budget, variant_peak_units, SvppVariant};
