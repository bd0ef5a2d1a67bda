//! Pipeline-schedule intermediate representation and baseline schedules.
//!
//! A [`ir::Schedule`] is a per-worker ordered list of operations (forward,
//! backward, split input-/weight-gradient backward) over micro-batches ×
//! sequence slices × virtual model chunks. Dependencies between operations
//! are *derived* from the training semantics ([`deps`]), never stored, so a
//! single validator and a single timing engine ([`exec`]) serve every
//! scheduling method — the baselines here, and SVPP in `mepipe-core`.
//!
//! Baselines implemented (Section 2 of the paper):
//!
//! * [`baselines::gpipe`] — GPipe: all forwards, then all backwards.
//! * [`baselines::dapple`] — DAPPLE / PipeDream-flush 1F1B.
//! * [`baselines::vpp`] — Megatron-LM interleaved virtual-pipeline 1F1B.
//! * [`baselines::hanayo`] — Hanayo: wave-like scheduling over a zigzag
//!   chunk placement.
//! * [`baselines::terapipe`] — TeraPipe: GPipe-style slice-level SPP.
//! * [`baselines::zb`] — ZB-1P: 1F1B with split backward (zero bubble).
//! * [`baselines::zbv`] — ZBV: V-shaped two-chunk placement with split
//!   backward.
//!
//! Beyond the hand-written zoo, two *synthesized* families share the same
//! IR and validators:
//!
//! * [`dualpipe`] — DualPipe bidirectional scheduling: two micro-batch
//!   streams entering from opposite ends of the pipeline.
//! * [`blocks`] — controllable-memory building-block schedules with a
//!   lifespan (activation-residency) knob.
#![warn(missing_docs)]

pub mod baselines;
pub mod blocks;
pub mod deps;
pub mod dualpipe;
pub mod exec;
pub mod generate;
pub mod generator;
pub mod ir;
pub mod render;
pub mod stats;
pub mod validate;

pub use blocks::{BlockShape, Blocks};
pub use dualpipe::{DualPipe, DualPipePhase};
pub use generator::{Dims, ScheduleError, ScheduleGenerator};
pub use ir::{ChunkPlacement, Op, OpKind, Schedule, ScheduleMeta};
