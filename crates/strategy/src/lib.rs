//! Parallel-strategy enumeration, evaluation and grid search.
//!
//! The paper tunes every system by exhaustively searching its strategy
//! space (Section 7.1): pipeline size × data-parallel size × context or
//! sequence-pipeline parallelism × virtual pipeline size × recomputation,
//! keeping whatever fits in memory and minimising simulated iteration
//! time. This crate reproduces that search against the simulator —
//! feeding Figures 8 and 10 and Tables 5–8.
#![warn(missing_docs)]

pub mod engine;
pub mod evaluate;
pub mod reshard;
pub mod retune;
pub mod search;
pub mod space;

pub use engine::{EngineStats, ScheduleCache, SearchEngine};
pub use evaluate::{evaluate, Evaluated};
pub use retune::Retuned;
pub use search::{search, search_all, search_serial, search_verbose};
pub use space::{enumerate_candidates, Candidate, Method, ScheduleArgError, ScheduleSpec};
