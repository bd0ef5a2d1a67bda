//! `mepipe-ctl`: an elastic multi-job control plane over the MEPipe
//! runtime.
//!
//! The paper's cost-effectiveness argument (Section 9) assumes a
//! commodity-GPU fleet can be *operated*: jobs queued and
//! gang-scheduled onto whatever slots exist, hardware failures absorbed
//! by checkpoint-restart with bounded loss, and capacity changes —
//! a node drained for maintenance, a node added — answered by
//! re-running the strategy search and re-sharding the pipeline live.
//! This crate is that operator, and the repository's one way to run
//! stages as separate processes. It composes pieces the rest of the
//! workspace already proves correct: `mepipe-worker job` stage
//! processes (each regenerates the job's schedule bit-identically from
//! a `mepipe_strategy::ScheduleSpec`'s flags and speaks the job's wire
//! codec, as the replay verifier does in-process), per-stage
//! checkpoints with `merge_stage_parts` for shape changes, Young's
//! formula for the checkpoint interval, the re-shard strategy search,
//! and the metrics, Chrome-trace and bubble-attribution plumbing in
//! `mepipe-trace`.
//!
//! Modules: [`spec`] (job documents and interval derivation), [`gang`]
//! (stage-process supervision: spawn, heartbeat, reap-as-a-unit),
//! [`daemon`] (the lifecycle state machine: admission with priority and
//! backfill, recovery, re-sharding, metrics, replay verification),
//! [`serve`](mod@serve) (the UDS control socket, spool directory, and client).
#![warn(missing_docs)]

pub mod daemon;
pub mod gang;
pub mod serve;
pub mod spec;

pub use daemon::{best_shape, restore_point, verify_replay, Daemon, Job, JobState, Segment};
pub use gang::{Gang, GangConfig, GangPoll};
pub use serve::{request, serve, ServeOptions};
pub use spec::{derive_checkpoint_interval, DerivedInterval, JobSpec};
