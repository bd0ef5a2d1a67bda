//! The timing engine under its older path. It lives in
//! [`mepipe_schedule::exec`], where the renderer, the order solver and
//! every simulation share it; this module keeps code written against
//! `mepipe_sim::engine` (the `perfbench` crate among it) building.

pub use mepipe_schedule::exec::{simulate, SimConfig, SimResult, SimSummary};
