//! The control plane proper: job lifecycle, gang scheduling, failure
//! recovery and live re-sharding.
//!
//! A [`Daemon`] owns a [`Fleet`] of accelerator slots and a queue of
//! [`Job`]s. Each tick it polls running gangs, recovers failed ones
//! from their last common checkpoint, re-shards jobs displaced by
//! capacity changes, and admits pending jobs (priority first, with
//! opportunistic backfill that shrinks a job's pipeline when only part
//! of its request fits). Everything observable lives in the metrics
//! registry rebuilt per tick — per-job state gauges, restart and
//! re-shard counters, a lost-iteration counter, and a
//! lost-beyond-interval counter whose invariant value is zero: a
//! failure never costs more than one checkpoint interval of work.
//!
//! Determinism is the load-bearing property. Every job and segment
//! names its schedule with one `ScheduleSpec`, which the workers decode
//! from flags and regenerate, batches derive from `(seed, iteration)`, SGD on
//! a zero gradient is a bitwise no-op, and per-stage checkpoints are
//! authoritative for exactly the layers a stage owns. Consequently a
//! job's final loss is bit-identical to a single-process replay of its
//! segment history — which [`verify_replay`] checks on request, even
//! across mid-run failures and stage-count changes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mepipe_comm::control::{Request, Response};
use mepipe_hw::accelerator::AcceleratorSpec;
use mepipe_hw::link::LinkSpec;
use mepipe_hw::topology::ClusterSpec;
use mepipe_hw::{Fleet, GangAlloc};
use mepipe_model::config::TransformerConfig;
use mepipe_model::partition::{PartitionSpec, SequenceSplit};
use mepipe_strategy::{ScheduleSpec, SearchEngine};
use mepipe_trace::chrome::{push_json_string, traces_to_chrome};
use mepipe_trace::{
    dump, EventLog, IterationTrace, Level, MetricsRegistry, PidKey, StragglerDetector,
    StragglerFlag, DEFAULT_STRAGGLER_FACTOR, DEFAULT_STRAGGLER_ROUNDS,
};
use mepipe_train::data::batch_for_iter;
use mepipe_train::params::ModelParams;
use mepipe_train::{checkpoint, PipelineRuntime, WgradMode};

use crate::gang::{Gang, GangConfig, GangPoll};
use crate::spec::{derive_checkpoint_interval, JobSpec};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Queued, waiting for fleet capacity.
    Pending,
    /// Gang launched and making progress.
    Running,
    /// Gang died; next tick relaunches it from the last checkpoint.
    Recovering,
    /// Displaced by a capacity change; next tick re-runs the strategy
    /// search and relaunches under a new shape.
    Resharding,
    /// Reached its target iteration count.
    Completed,
    /// Gave up (restart budget exhausted or an unrecoverable error).
    Failed,
}

impl JobState {
    /// Stable numeric coding for the state gauge.
    pub fn code(self) -> f64 {
        match self {
            JobState::Pending => 0.0,
            JobState::Running => 1.0,
            JobState::Recovering => 2.0,
            JobState::Resharding => 3.0,
            JobState::Completed => 4.0,
            JobState::Failed => 5.0,
        }
    }

    /// Lower-case name for status output.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Recovering => "recovering",
            JobState::Resharding => "resharding",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job will never run again.
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed)
    }
}

/// One span of a job's iteration history run under a fixed schedule —
/// the record [`verify_replay`] walks. A new segment starts at every
/// re-shard boundary; plain recovery (same schedule, same trajectory)
/// does not create one.
#[derive(Debug, Clone)]
pub struct Segment {
    /// First iteration run under this schedule.
    pub start_iter: usize,
    /// The schedule itself.
    pub schedule: ScheduleSpec,
}

/// A submitted job and everything the daemon knows about it.
pub struct Job {
    /// The parsed spec, as submitted.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Resolved checkpoint interval (from the spec, or derived).
    pub interval: usize,
    /// How the interval was chosen, when it was derived.
    pub interval_note: Option<String>,
    /// Current schedule (admission may have shrunk the requested stages).
    pub schedule: ScheduleSpec,
    /// Iterations completed (the slowest stage's count).
    pub completed: usize,
    /// Gang relaunches after failures.
    pub restarts: u64,
    /// Shape changes after capacity events.
    pub reshards: u64,
    /// Iterations re-run because a failure lost them.
    pub lost_iters: u64,
    /// Iterations lost beyond the checkpoint interval — the recovery
    /// guarantee says this stays zero.
    pub lost_beyond: u64,
    /// Shape history for verification.
    pub segments: Vec<Segment>,
    /// Final-iteration loss once completed.
    pub final_loss: Option<f64>,
    /// Replay verdict, when the spec asked for verification.
    pub verified: Option<bool>,
    /// Last failure or rejection note.
    pub error: Option<String>,
    alloc: Option<GangAlloc>,
    gang: Option<Gang>,
    /// Checkpoint-directory epoch; bumped on every re-shard so stage
    /// counts never mix within one directory.
    epoch: usize,
    /// Where this epoch restarted from: `(iteration, merged full-model
    /// checkpoint)` — the floor for restore points while the epoch has
    /// no per-stage checkpoints of its own yet.
    epoch_base: (usize, Option<PathBuf>),
    attempt: usize,
    /// One-shot fault injection, consumed by the first launch.
    chaos: Option<(usize, usize)>,
    /// Progress-lag straggler detector fed each poll of a running gang.
    straggler: StragglerDetector,
    /// Currently-flagged straggling stages, surfaced in `/status`.
    pub straggler_flags: Vec<StragglerFlag>,
    /// Last per-stage progress sample (completed iterations), for
    /// `/status` and the per-stage metrics aggregation.
    pub stage_progress: Vec<usize>,
}

impl Job {
    fn new(spec: JobSpec, interval: usize, interval_note: Option<String>) -> Self {
        let chaos = spec.kill_stage.zip(spec.kill_at_iter);
        Job {
            schedule: spec.schedule(),
            spec,
            state: JobState::Pending,
            interval,
            interval_note,
            completed: 0,
            restarts: 0,
            reshards: 0,
            lost_iters: 0,
            lost_beyond: 0,
            segments: Vec::new(),
            final_loss: None,
            verified: None,
            error: None,
            alloc: None,
            gang: None,
            epoch: 0,
            epoch_base: (0, None),
            attempt: 0,
            chaos,
            straggler: StragglerDetector::new(DEFAULT_STRAGGLER_FACTOR, DEFAULT_STRAGGLER_ROUNDS),
            straggler_flags: Vec::new(),
            stage_progress: Vec::new(),
        }
    }
}

/// Runs the strategy search for the best schedule a job can take on
/// `max_stages` slots: sweep feasible stage counts through the
/// re-shard engine (priced with the `layers - 2` convention of
/// `Calibrator::prior_for`, so modeled pipeline slots equal runtime
/// layers), then keep the fastest row the runtime can actually
/// execute — slices must divide the sequence, stages the layers.
///
/// # Errors
///
/// Returns an error when no stage count fits the capacity.
pub fn best_shape(
    engine: &SearchEngine,
    spec: &JobSpec,
    max_stages: usize,
) -> Result<ScheduleSpec, String> {
    if max_stages == 0 {
        return Err("no capacity".to_string());
    }
    let cfg = spec.config();
    let priced = TransformerConfig {
        layers: cfg.layers.saturating_sub(2),
        ..cfg
    };
    let template = PartitionSpec {
        pp: spec.stages.max(1),
        vp: 1,
        dp: 1,
        seq: SequenceSplit::SlicePipeline {
            slices: spec.slices,
        },
        recompute: false,
        micro_batch_size: 1,
        global_batch: spec.micro_batches,
    };
    let cluster = ClusterSpec {
        nodes: 1,
        gpus_per_node: max_stages,
        accelerator: AcceleratorSpec::rtx4090(),
        intra_node: LinkSpec::pcie4(),
        inter_node: LinkSpec::ib_100g(),
    };
    let rows = engine.reshard_mepipe(&priced, &template, &cluster, max_stages, None)?;
    rows.into_iter()
        .map(|r| r.spec)
        .find(|s| spec.seq_len.is_multiple_of(s.dims.s) && spec.layers.is_multiple_of(s.dims.p))
        .ok_or_else(|| "no re-shard candidate survives runtime divisibility".to_string())
}

/// The highest iteration `c` for which **every** stage directory under
/// `epoch_dir` holds an `iter-c.bin` checkpoint. Stages checkpoint
/// independently, so after a mid-write kill they may disagree by one
/// interval; only the common prefix is a consistent restore point.
/// Returns 0 when there is none.
pub fn restore_point(epoch_dir: &Path, stages: usize) -> usize {
    let mut candidates: Vec<usize> = std::fs::read_dir(epoch_dir.join("stage-0"))
        .map(|rd| {
            rd.filter_map(|e| {
                e.ok()?
                    .file_name()
                    .to_str()?
                    .strip_prefix("iter-")?
                    .strip_suffix(".bin")?
                    .parse()
                    .ok()
            })
            .collect()
        })
        .unwrap_or_default();
    candidates.sort_unstable();
    candidates
        .iter()
        .rev()
        .find(|&&c| {
            (1..stages).all(|s| {
                epoch_dir
                    .join(format!("stage-{s}"))
                    .join(format!("iter-{c}.bin"))
                    .exists()
            })
        })
        .copied()
        .unwrap_or(0)
}

/// Replays a job's full iteration history in-process and returns the
/// final-iteration loss. One runtime per segment, the model carried
/// across shape changes; because workers regenerate identical schedules
/// from the same `ScheduleSpec` and batches derive from
/// `(seed, iteration)`, the result must be bit-identical to what the
/// gang reported — the end-to-end correctness check for the whole
/// recovery and re-sharding machinery.
///
/// # Errors
///
/// Returns an error if a segment's schedule cannot be regenerated or an
/// iteration fails.
pub fn verify_replay(spec: &JobSpec, segments: &[Segment]) -> Result<f64, String> {
    if segments.is_empty() {
        return Err("job has no segment history to replay".to_string());
    }
    let cfg = spec.config();
    let mut model = ModelParams::init(cfg, spec.seed);
    let mut last = f64::NAN;
    for (si, seg) in segments.iter().enumerate() {
        let end = segments.get(si + 1).map_or(spec.iters, |s| s.start_iter);
        let schedule = seg
            .schedule
            .generate()
            .map_err(|e| format!("schedule generation for {:?}: {e}", seg.schedule))?;
        let mut rt = PipelineRuntime::new(model, seg.schedule.dims.p, seg.schedule.dims.v);
        for k in seg.start_iter..end {
            let batch = batch_for_iter(&cfg, spec.micro_batches, spec.seed, k);
            let stats = rt
                .train_step(&schedule, &batch, WgradMode::DrainOnWait, spec.lr as f32)
                .map_err(|e| format!("verify replay iteration {k}: {e}"))?;
            last = stats.loss;
        }
        model = rt.model;
    }
    Ok(last)
}

/// The control-plane daemon: fleet, job queue, and the tick loop.
pub struct Daemon {
    /// Accelerator capacity the daemon schedules against.
    pub fleet: Fleet,
    jobs: Vec<Job>,
    engine: SearchEngine,
    worker_bin: PathBuf,
    out_dir: PathBuf,
    hang_timeout: Duration,
    max_restarts: u64,
    /// Set by a shutdown request: stop admitting, finish what runs.
    pub shutting_down: bool,
    /// Structured event log doubling as the crash flight recorder;
    /// postmortems dump its ring alongside a metrics snapshot.
    pub events: EventLog,
    artifact_write_errors: u64,
    /// The bytes of each artifact's last successful write, in
    /// [`ARTIFACTS`] order, so an unchanged one is not rewritten.
    written: [Option<String>; 3],
}

/// The files [`Daemon::write_artifacts`] keeps current under the out dir.
const ARTIFACTS: [&str; 3] = ["metrics.json", "metrics.prom", "status.json"];

impl Daemon {
    /// A daemon over `fleet`, spawning stage processes from
    /// `worker_bin` and writing artifacts (metrics, merged traces,
    /// checkpoints) under `out_dir`.
    ///
    /// # Errors
    ///
    /// Returns an error if `out_dir` cannot be created.
    pub fn new(fleet: Fleet, worker_bin: PathBuf, out_dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("create out dir {}: {e}", out_dir.display()))?;
        Ok(Daemon {
            fleet,
            jobs: Vec::new(),
            engine: SearchEngine::new(),
            worker_bin,
            out_dir,
            hang_timeout: Duration::from_secs(60),
            max_restarts: 5,
            shutting_down: false,
            events: EventLog::stderr("ctl"),
            artifact_write_errors: 0,
            written: Default::default(),
        })
    }

    /// Overrides how long a stage may go without a progress line before
    /// its gang is declared hung.
    #[must_use]
    pub fn with_hang_timeout(mut self, t: Duration) -> Self {
        self.hang_timeout = t;
        self
    }

    /// All jobs in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Whether every submitted job reached a terminal state.
    pub fn all_done(&self) -> bool {
        self.jobs.iter().all(|j| j.state.terminal())
    }

    /// Whether nothing is running, recovering or resharding (pending
    /// jobs may remain — relevant during shutdown).
    pub fn idle(&self) -> bool {
        !self.jobs.iter().any(|j| {
            matches!(
                j.state,
                JobState::Running | JobState::Recovering | JobState::Resharding
            )
        })
    }

    fn job_dir(&self, name: &str) -> PathBuf {
        self.out_dir.join("jobs").join(name)
    }

    fn epoch_dir(&self, i: usize) -> PathBuf {
        self.job_dir(&self.jobs[i].spec.name)
            .join(format!("ckpt-epoch-{}", self.jobs[i].epoch))
    }

    /// Parses, validates and queues a job document. When the spec omits
    /// `checkpoint_interval`, derives it from measured checkpoint and
    /// iteration costs via Young's formula and logs the choice.
    ///
    /// # Errors
    ///
    /// Returns the spec parse/validation error, or a duplicate-name
    /// rejection.
    pub fn submit(&mut self, text: &str) -> Result<String, String> {
        let spec = JobSpec::parse(text)?;
        if self.jobs.iter().any(|j| j.spec.name == spec.name) {
            return Err(format!("job {:?} already exists", spec.name));
        }
        let (interval, note) = match spec.checkpoint_interval {
            Some(iv) => (iv, None),
            None => {
                let derived = derive_checkpoint_interval(&spec, measure_iteration_seconds);
                let note = derived.describe(&spec);
                self.events
                    .event(Level::Info, Some(&spec.name), None, &note, &[]);
                (derived.iters, Some(note))
            }
        };
        let name = spec.name.clone();
        let derived_suffix = if note.is_some() { " (derived)" } else { "" };
        self.jobs.push(Job::new(spec, interval, note));
        Ok(format!(
            "{name} queued, checkpoint every {interval} iterations{derived_suffix}"
        ))
    }

    /// Handles one control request, mutating daemon state.
    pub fn handle(&mut self, req: &Request) -> Response {
        match req {
            Request::Submit { spec } => match self.submit(spec) {
                Ok(detail) => Response::Ok(detail),
                Err(reason) => Response::Err(reason),
            },
            Request::Status => Response::Ok(self.status_text()),
            Request::Drain { node } => {
                if !self.fleet.drain(node) {
                    return Response::Err(format!("no such node {node:?}"));
                }
                let displaced = self.displace_jobs_on(node);
                Response::Ok(format!(
                    "{node} drained; {displaced} running job(s) re-sharding off it"
                ))
            }
            Request::AddNode { slots } => {
                if *slots == 0 {
                    return Response::Err("a node needs at least one slot".to_string());
                }
                let name = self.fleet.add_node(*slots);
                let expanded = self.expand_jobs();
                Response::Ok(format!(
                    "{name} added with {slots} slot(s); {expanded} running job(s) re-sharding to use the new capacity"
                ))
            }
            Request::Shutdown => {
                self.shutting_down = true;
                Response::Ok("draining: running jobs finish, nothing new starts".to_string())
            }
        }
    }

    /// Kills and marks for re-sharding every active job whose gang
    /// holds slots on `node`. Returns how many were displaced.
    fn displace_jobs_on(&mut self, node: &str) -> usize {
        let mut displaced = 0;
        for i in 0..self.jobs.len() {
            let holds = matches!(self.jobs[i].state, JobState::Running | JobState::Recovering)
                && self.jobs[i].alloc.as_ref().is_some_and(|a| a.uses(node));
            if holds {
                self.displace(i, format!("node {node} drained"));
                displaced += 1;
            }
        }
        displaced
    }

    /// Re-runs the strategy search for every running job against the
    /// grown fleet; jobs whose best shape now uses more stages are
    /// displaced to re-shard wider. Returns how many.
    fn expand_jobs(&mut self) -> usize {
        let mut expanded = 0;
        for i in 0..self.jobs.len() {
            if self.jobs[i].state != JobState::Running {
                continue;
            }
            let held = self.jobs[i].alloc.as_ref().map_or(0, GangAlloc::total);
            let ceiling = (held + self.fleet.free_slots()).min(self.jobs[i].spec.micro_batches);
            let Ok(best) = best_shape(&self.engine, &self.jobs[i].spec, ceiling) else {
                continue;
            };
            if best.dims.p > self.jobs[i].schedule.dims.p {
                self.displace(i, "fleet grew".to_string());
                expanded += 1;
            }
        }
        expanded
    }

    /// Kills job `i`'s gang, releases its slots and marks it
    /// re-sharding. Loss accounting happens at relaunch, where the
    /// restore point is known.
    fn displace(&mut self, i: usize, why: String) {
        let job = &mut self.jobs[i];
        if let Some(mut gang) = job.gang.take() {
            gang.kill();
            job.completed = gang.completed_iters().max(job.epoch_base.0);
        }
        if let Some(alloc) = job.alloc.take() {
            self.fleet.release(&alloc);
        }
        self.events.event(
            Level::Warn,
            Some(&job.spec.name),
            None,
            format!("displaced ({why}), re-sharding from checkpoint"),
            &[],
        );
        job.state = JobState::Resharding;
    }

    /// One scheduler pass: poll gangs, recover, re-shard, admit.
    pub fn tick(&mut self) {
        for i in 0..self.jobs.len() {
            match self.jobs[i].state {
                JobState::Running => self.poll_running(i),
                JobState::Recovering => self.relaunch(i),
                JobState::Resharding => self.reshard(i),
                _ => {}
            }
        }
        if !self.shutting_down {
            self.admit_pending();
        }
        self.write_artifacts();
    }

    fn poll_running(&mut self, i: usize) {
        let hang = self.hang_timeout;
        let Some(gang) = self.jobs[i].gang.as_mut() else {
            self.fail(i, "running job has no gang (internal bug)".to_string());
            return;
        };
        match gang.poll(hang) {
            GangPoll::Running => {
                let progress = gang.progress_iters();
                let done = progress.iter().copied().min().unwrap_or(0);
                let job = &mut self.jobs[i];
                job.completed = job.completed.max(done);
                job.stage_progress = progress;
                self.detect_stragglers(i);
            }
            GangPoll::Completed { loss } => self.on_completed(i, loss),
            GangPoll::Failed { why } => self.on_failed(i, why),
        }
    }

    /// Feeds job `i`'s per-stage progress into its straggler detector.
    ///
    /// The daemon sees iteration *counts*, not latencies, so the
    /// observation is each stage's progress lag behind the front-runner
    /// (`max - mine + 1`, so a fully level gang observes all-ones). A
    /// stage persistently lagging the median by more than the factor for
    /// the persistence window gets flagged — the cross-process analog of
    /// the latency-histogram detector the in-process launcher runs.
    fn detect_stragglers(&mut self, i: usize) {
        let job = &mut self.jobs[i];
        if job.stage_progress.is_empty() {
            return;
        }
        let max = job.stage_progress.iter().copied().max().unwrap_or(0);
        let lag: Vec<f64> = job
            .stage_progress
            .iter()
            .map(|&p| (max - p + 1) as f64)
            .collect();
        let flags = job.straggler.observe(&lag);
        for f in &flags {
            if !job.straggler_flags.iter().any(|old| old.stage == f.stage) {
                self.events.event(
                    Level::Warn,
                    Some(&job.spec.name),
                    Some(f.stage),
                    format!(
                        "straggler: stage {} progress lag {:.1}x the gang median for {} poll(s)",
                        f.stage, f.ratio, f.rounds
                    ),
                    &[],
                );
            }
        }
        job.straggler_flags = flags;
    }

    fn on_completed(&mut self, i: usize, loss: f64) {
        self.write_merged_trace(i);
        let job = &mut self.jobs[i];
        job.gang = None;
        job.completed = job.spec.iters;
        job.final_loss = Some(loss);
        job.state = JobState::Completed;
        job.error = None;
        let alloc = job.alloc.take();
        if let Some(alloc) = alloc {
            self.fleet.release(&alloc);
        }
        let job = &self.jobs[i];
        self.events.event(
            Level::Info,
            Some(&job.spec.name),
            None,
            format!("completed {} iterations", job.spec.iters),
            &[("final_loss", format!("{loss:.6}"))],
        );
        if job.spec.verify {
            let verdict = verify_replay(&job.spec, &job.segments);
            let job = &mut self.jobs[i];
            match verdict {
                Ok(replay) => {
                    let ok = replay.to_bits() == loss.to_bits();
                    job.verified = Some(ok);
                    if ok {
                        self.events.event(
                            Level::Info,
                            Some(&job.spec.name),
                            None,
                            format!(
                                "verified: replay loss bit-identical across {} segment(s)",
                                job.segments.len()
                            ),
                            &[],
                        );
                    } else {
                        let why = format!(
                            "verification failed: gang loss {loss} != replay loss {replay}"
                        );
                        job.error = Some(why.clone());
                        let name = job.spec.name.clone();
                        self.events
                            .event(Level::Error, Some(&name), None, &why, &[]);
                        self.dump_postmortem(&name, &why);
                    }
                }
                Err(e) => {
                    job.verified = Some(false);
                    let why = format!("verification replay errored: {e}");
                    job.error = Some(why.clone());
                    let name = job.spec.name.clone();
                    self.events
                        .event(Level::Error, Some(&name), None, &why, &[]);
                    self.dump_postmortem(&name, &why);
                }
            }
        }
    }

    /// Dumps the flight recorder — last events, open spans, and a
    /// metrics snapshot — to `out_dir/postmortem-<job>.json`. Called on
    /// gang death, verification failure, and restart-budget exhaustion
    /// so the last recorded events name what died.
    fn dump_postmortem(&mut self, name: &str, reason: &str) {
        let reg = self.metrics();
        let path = self.out_dir.join(format!("postmortem-{name}.json"));
        if let Err(e) = self.events.dump_postmortem(&path, reason, Some(&reg)) {
            self.events.event(
                Level::Error,
                Some(name),
                None,
                format!("write postmortem {}: {e}", path.display()),
                &[],
            );
        }
    }

    /// Merges the gang's per-stage span dumps (each stage's last
    /// iteration) into one Chrome trace at `out_dir/job-NAME.trace.json`.
    fn write_merged_trace(&mut self, i: usize) {
        let job = &self.jobs[i];
        let Some(gang) = job.gang.as_ref() else {
            return;
        };
        let cfg = gang.config();
        let stages: Result<Vec<_>, String> = (0..cfg.schedule.dims.p)
            .map(|s| dump::read_stage_trace(&cfg.trace_path(s)))
            .collect();
        match stages {
            Ok(stages) => {
                let json = traces_to_chrome(&IterationTrace { stages }, PidKey::Stage);
                let path = self
                    .out_dir
                    .join(format!("job-{}.trace.json", job.spec.name));
                if let Err(e) = std::fs::write(&path, json) {
                    self.events.event(
                        Level::Error,
                        Some(&job.spec.name),
                        None,
                        format!("write merged trace: {e}"),
                        &[],
                    );
                }
            }
            Err(e) => self.events.event(
                Level::Error,
                Some(&job.spec.name),
                None,
                format!("merge stage traces: {e}"),
                &[],
            ),
        }
    }

    fn on_failed(&mut self, i: usize, why: String) {
        let max_restarts = self.max_restarts;
        let epoch_dir = self.epoch_dir(i);
        let job = &mut self.jobs[i];
        if let Some(gang) = job.gang.take() {
            job.completed = gang.completed_iters().max(job.epoch_base.0);
        }
        job.restarts += 1;
        job.error = Some(why.clone());
        let name = job.spec.name.clone();
        let stage = parse_stage_tag(&why);
        if job.restarts > max_restarts {
            self.fail(
                i,
                format!("{why} (giving up after {max_restarts} restarts)"),
            );
            self.dump_postmortem(&name, &why);
            return;
        }
        // Account the lost work now so metrics show it while recovering.
        let c = restore_point(&epoch_dir, job.schedule.dims.p).max(job.epoch_base.0);
        let lost = job.completed.saturating_sub(c);
        job.lost_iters += lost as u64;
        job.lost_beyond += lost.saturating_sub(job.interval) as u64;
        job.state = JobState::Recovering;
        self.events.event(
            Level::Error,
            Some(&name),
            stage,
            format!("{why}; recovering from iteration {c} ({lost} iteration(s) to re-run)"),
            &[],
        );
        self.dump_postmortem(&name, &why);
    }

    fn fail(&mut self, i: usize, why: String) {
        let job = &mut self.jobs[i];
        job.gang = None;
        job.state = JobState::Failed;
        self.events.event(
            Level::Error,
            Some(&job.spec.name),
            parse_stage_tag(&why),
            format!("failed: {why}"),
            &[],
        );
        job.error = Some(why);
        let alloc = job.alloc.take();
        if let Some(alloc) = alloc {
            self.fleet.release(&alloc);
        }
    }

    /// Relaunches a recovering job's gang, same shape and slots, from
    /// the newest restore point: per-stage checkpoints when this epoch
    /// has them (each stage restores its *own* file — authoritative for
    /// exactly the layers it executes), else the epoch's merged base
    /// checkpoint, else fresh from the seed.
    fn relaunch(&mut self, i: usize) {
        let epoch_dir = self.epoch_dir(i);
        let job = &self.jobs[i];
        let stages = job.schedule.dims.p;
        let (base_iter, base_file) = job.epoch_base.clone();
        let c = restore_point(&epoch_dir, stages).max(base_iter);
        let restore_from: Vec<Option<PathBuf>> = if c == 0 {
            vec![None; stages]
        } else if c > base_iter || base_file.is_none() {
            (0..stages)
                .map(|s| {
                    Some(
                        epoch_dir
                            .join(format!("stage-{s}"))
                            .join(format!("iter-{c}.bin")),
                    )
                })
                .collect()
        } else {
            vec![base_file; stages]
        };
        self.launch_attempt(i, c, restore_from);
    }

    /// Re-shards a displaced job: pick the best shape for the capacity
    /// that exists now, merge the per-stage checkpoints into one
    /// canonical full model (each tensor from the stage that owned it
    /// under the old gang's schedule), and relaunch every new stage from
    /// it. A full-model restore is correct for any stage count because
    /// each stage's forward touches only the layers it owns. No
    /// capacity? The job simply stays in `Resharding` until some
    /// appears.
    fn reshard(&mut self, i: usize) {
        let old_epoch_dir = self.epoch_dir(i);
        let job_dir = self.job_dir(&self.jobs[i].spec.name);
        let job = &self.jobs[i];
        let old_schedule = job.schedule;
        let old_stages = old_schedule.dims.p;
        let (base_iter, base_file) = job.epoch_base.clone();
        let c_parts = restore_point(&old_epoch_dir, old_stages);
        let c = c_parts.max(base_iter);

        let max = self.fleet.free_slots().min(self.jobs[i].spec.micro_batches);
        let schedule = match best_shape(&self.engine, &self.jobs[i].spec, max) {
            Ok(s) => s,
            Err(e) => {
                // Stays Resharding; record why for status output.
                self.jobs[i].error = Some(format!("waiting for capacity: {e}"));
                return;
            }
        };
        let Some(alloc) = self.fleet.allocate(schedule.dims.p) else {
            return;
        };

        // Build the canonical restore file for the new gang.
        let restore: Option<PathBuf> = if c == 0 {
            None
        } else if c_parts > base_iter || base_file.is_none() {
            let parts: Result<Vec<ModelParams>, String> = (0..old_stages)
                .map(|s| {
                    let path = old_epoch_dir
                        .join(format!("stage-{s}"))
                        .join(format!("iter-{c_parts}.bin"));
                    let bytes = std::fs::read(&path)
                        .map_err(|e| format!("read {}: {e}", path.display()))?;
                    checkpoint::restore(&bytes).map_err(|e| format!("{}: {e}", path.display()))
                })
                .collect();
            let old_meta = old_schedule
                .generate()
                .map(|s| s.meta)
                .map_err(|e| format!("regenerate the old gang's schedule: {e}"));
            let merged = parts.and_then(|p| {
                checkpoint::merge_stage_parts(&p, &old_meta?)
                    .map_err(|e| format!("merge stage parts: {e}"))
            });
            match merged {
                Ok(model) => {
                    let next_epoch = self.jobs[i].epoch + 1;
                    let path = job_dir.join(format!("merged-epoch-{next_epoch}-iter-{c}.bin"));
                    if let Err(e) = std::fs::write(&path, checkpoint::save(&model)) {
                        self.fleet.release(&alloc);
                        self.fail(i, format!("write merged checkpoint: {e}"));
                        return;
                    }
                    Some(path)
                }
                Err(e) => {
                    self.fleet.release(&alloc);
                    self.fail(i, e);
                    return;
                }
            }
        } else {
            base_file
        };

        let job = &mut self.jobs[i];
        let lost = job.completed.saturating_sub(c);
        job.lost_iters += lost as u64;
        job.lost_beyond += lost.saturating_sub(job.interval) as u64;
        job.reshards += 1;
        job.epoch += 1;
        job.epoch_base = (c, restore.clone());
        job.alloc = Some(alloc);
        let old = job.schedule.dims;
        job.schedule = schedule;
        job.segments.retain(|s| s.start_iter < c);
        job.segments.push(Segment {
            start_iter: c,
            schedule,
        });
        self.events.event(
            Level::Info,
            Some(&job.spec.name),
            None,
            format!(
                "re-sharded {} -> {} stage(s) (slices {} -> {}), resuming at iteration {c}",
                old.p, schedule.dims.p, old.s, schedule.dims.s
            ),
            &[],
        );
        let stages = schedule.dims.p;
        self.launch_attempt(i, c, vec![restore; stages]);
    }

    /// Admits pending jobs: priority first (ties by submission order),
    /// backfilling past jobs that don't fit. A job whose full request
    /// exceeds current free capacity may be admitted shrunk — the
    /// strategy search picks the best shape that does fit.
    fn admit_pending(&mut self) {
        let mut order: Vec<usize> = (0..self.jobs.len())
            .filter(|&i| self.jobs[i].state == JobState::Pending)
            .collect();
        order.sort_by_key(|&i| (-self.jobs[i].spec.priority, i));
        for i in order {
            let free = self.fleet.free_slots();
            if free == 0 {
                break;
            }
            let spec = &self.jobs[i].spec;
            let schedule = if free >= spec.stages {
                spec.schedule()
            } else {
                match best_shape(&self.engine, spec, free) {
                    Ok(s) => s,
                    Err(_) => continue, // backfill: try the next job
                }
            };
            let stages = schedule.dims.p;
            let Some(alloc) = self.fleet.allocate(stages) else {
                continue;
            };
            let job = &mut self.jobs[i];
            if stages < job.spec.stages {
                self.events.event(
                    Level::Warn,
                    Some(&job.spec.name),
                    None,
                    format!(
                        "admitted shrunk to {} of {} requested stage(s)",
                        stages, job.spec.stages
                    ),
                    &[],
                );
            }
            job.alloc = Some(alloc);
            job.schedule = schedule;
            job.segments = vec![Segment {
                start_iter: 0,
                schedule,
            }];
            self.launch_attempt(i, 0, vec![None; stages]);
        }
    }

    fn launch_attempt(&mut self, i: usize, start_iter: usize, restore_from: Vec<Option<PathBuf>>) {
        let worker_bin = self.worker_bin.clone();
        let epoch_dir = self.epoch_dir(i);
        let job_dir = self.job_dir(&self.jobs[i].spec.name);
        let job = &mut self.jobs[i];
        job.attempt += 1;
        let cfg = GangConfig {
            worker_bin,
            schedule: job.schedule,
            seq_len: job.spec.seq_len,
            layers: job.spec.layers,
            seed: job.spec.seed,
            lr: job.spec.lr as f32,
            iters: job.spec.iters,
            start_iter,
            ckpt_interval: job.interval,
            ckpt_dir: epoch_dir,
            work_dir: job_dir.join(format!("attempt-{}", job.attempt)),
            restore_from,
            kill: job.chaos.take(),
            traced: true,
        };
        match Gang::launch(cfg) {
            Ok(gang) => {
                job.gang = Some(gang);
                job.completed = start_iter;
                job.state = JobState::Running;
            }
            Err(e) => self.fail(i, format!("gang launch: {e}")),
        }
    }

    /// Builds a fresh registry reflecting the whole control plane.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for job in &self.jobs {
            let l: [(&str, String); 1] = [("job", job.spec.name.clone())];
            reg.gauge(
                "mepipe_ctl_job_state",
                "Job lifecycle (0 pending, 1 running, 2 recovering, 3 resharding, 4 completed, 5 failed)",
                &l,
                job.state.code(),
            );
            reg.gauge(
                "mepipe_ctl_job_completed_iterations",
                "Iterations the slowest stage has completed",
                &l,
                job.completed as f64,
            );
            reg.gauge(
                "mepipe_ctl_job_target_iterations",
                "Iterations the job was submitted to run",
                &l,
                job.spec.iters as f64,
            );
            reg.gauge(
                "mepipe_ctl_job_stages",
                "Pipeline stages in the job's current shape",
                &l,
                job.schedule.dims.p as f64,
            );
            reg.gauge(
                "mepipe_ctl_job_checkpoint_interval",
                "Iterations between checkpoints (spec'd or Young-derived)",
                &l,
                job.interval as f64,
            );
            reg.counter(
                "mepipe_ctl_job_restarts_total",
                "Gang relaunches after failures",
                &l,
                job.restarts as f64,
            );
            reg.counter(
                "mepipe_ctl_job_reshards_total",
                "Shape changes after fleet capacity events",
                &l,
                job.reshards as f64,
            );
            reg.counter(
                "mepipe_ctl_job_lost_iterations_total",
                "Iterations re-run because a failure lost them",
                &l,
                job.lost_iters as f64,
            );
            reg.counter(
                "mepipe_ctl_job_lost_beyond_interval_total",
                "Iterations lost beyond the checkpoint interval (invariant: 0)",
                &l,
                job.lost_beyond as f64,
            );
            if let Some(loss) = job.final_loss {
                reg.gauge(
                    "mepipe_ctl_job_final_loss",
                    "Final-iteration training loss",
                    &l,
                    loss,
                );
            }
            if let Some(ok) = job.verified {
                reg.gauge(
                    "mepipe_ctl_job_verified",
                    "1 when the in-process replay reproduced the gang's loss bit-for-bit",
                    &l,
                    f64::from(u8::from(ok)),
                );
            }
            // Per-gang aggregation: each stage process reports progress
            // through its progress file; the daemon re-exports the whole
            // gang as one labelled family.
            for (stage, &iters) in job.stage_progress.iter().enumerate() {
                let sl: [(&str, String); 2] =
                    [("job", job.spec.name.clone()), ("stage", stage.to_string())];
                reg.gauge(
                    "mepipe_ctl_stage_completed_iterations",
                    "Iterations each stage of the gang has completed",
                    &sl,
                    iters as f64,
                );
                let flagged = job.straggler_flags.iter().any(|f| f.stage == stage);
                reg.gauge(
                    "mepipe_ctl_stage_straggler",
                    "1 while the stage persistently lags the gang median",
                    &sl,
                    f64::from(u8::from(flagged)),
                );
            }
        }
        reg.counter(
            "mepipe_ctl_artifact_write_errors_total",
            "Failed metrics/status artifact writes under the out dir",
            &[],
            self.artifact_write_errors as f64,
        );
        reg.gauge(
            "mepipe_ctl_fleet_slots_free",
            "Slots new allocations may take",
            &[],
            self.fleet.free_slots() as f64,
        );
        reg.gauge(
            "mepipe_ctl_fleet_slots_used",
            "Slots held by running gangs",
            &[],
            self.fleet.used_slots() as f64,
        );
        reg.gauge(
            "mepipe_ctl_fleet_slots_schedulable",
            "Slots on undrained nodes, busy or not",
            &[],
            self.fleet.schedulable_slots() as f64,
        );
        for node in self.fleet.nodes() {
            let l: [(&str, String); 1] = [("node", node.name.clone())];
            reg.gauge(
                "mepipe_ctl_node_slots",
                "Accelerator slots on the node",
                &l,
                node.slots as f64,
            );
            reg.gauge(
                "mepipe_ctl_node_drained",
                "1 when the node accepts no new allocations",
                &l,
                f64::from(u8::from(node.drained)),
            );
        }
        reg
    }

    /// Writes `metrics.json`, `metrics.prom` and `status.json` under
    /// the out dir, skipping a file whose rendered bytes equal its last
    /// successful write while it is still a regular file of that length
    /// (most ticks change nothing). Failures are not swallowed: each one
    /// is logged and counted in `mepipe_ctl_artifact_write_errors_total`,
    /// so a full disk or bad mount shows up in the very metrics that
    /// still render over HTTP.
    pub fn write_artifacts(&mut self) {
        let reg = self.metrics();
        let bodies = [reg.to_json(), reg.to_prometheus_text(), self.status_json()];
        for ((file, body), written) in ARTIFACTS.into_iter().zip(bodies).zip(&mut self.written) {
            let path = self.out_dir.join(file);
            let unchanged = written.as_deref() == Some(body.as_str())
                && std::fs::metadata(&path)
                    .is_ok_and(|m| m.is_file() && m.len() == body.len() as u64);
            if unchanged {
                continue;
            }
            let result = std::fs::write(&path, &body);
            *written = result.is_ok().then_some(body);
            if let Err(e) = result {
                self.artifact_write_errors += 1;
                self.events.event(
                    Level::Error,
                    None,
                    None,
                    format!("write artifact {file}: {e}"),
                    &[("errors_total", self.artifact_write_errors.to_string())],
                );
            }
        }
    }

    /// Human-readable queue and fleet snapshot for `status`.
    pub fn status_text(&self) -> String {
        let mut out = String::new();
        for job in &self.jobs {
            out.push_str(&format!(
                "job {}: {} {}/{} iters, stages={}, slices={}, ckpt-interval={}, restarts={}, reshards={}, lost={} (beyond-interval {})",
                job.spec.name,
                job.state.name(),
                job.completed,
                job.spec.iters,
                job.schedule.dims.p,
                job.schedule.dims.s,
                job.interval,
                job.restarts,
                job.reshards,
                job.lost_iters,
                job.lost_beyond,
            ));
            if let Some(loss) = job.final_loss {
                out.push_str(&format!(", loss={loss:.6}"));
            }
            if let Some(ok) = job.verified {
                out.push_str(if ok { ", verified" } else { ", VERIFY-FAILED" });
            }
            if let Some(e) = &job.error {
                out.push_str(&format!(", note: {e}"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "fleet: {} used / {} free / {} schedulable",
            self.fleet.used_slots(),
            self.fleet.free_slots(),
            self.fleet.schedulable_slots()
        ));
        for node in self.fleet.nodes() {
            out.push_str(&format!(
                "; {}: {}/{} used{}",
                node.name,
                node.used,
                node.slots,
                if node.drained { " [drained]" } else { "" }
            ));
        }
        out
    }

    /// Machine-readable control-plane snapshot for `/status`: every
    /// job's lifecycle, shape, segment history, per-stage progress and
    /// straggler flags, plus the fleet. Valid JSON by construction.
    pub fn status_json(&self) -> String {
        let mut out = String::from("{\"shutting_down\":");
        out.push_str(if self.shutting_down { "true" } else { "false" });
        out.push_str(",\"jobs\":[");
        for (ji, job) in self.jobs.iter().enumerate() {
            if ji > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, &job.spec.name);
            out.push_str(",\"state\":");
            push_json_string(&mut out, job.state.name());
            out.push_str(&format!(
                ",\"completed\":{},\"target\":{},\"stages\":{},\"slices\":{},\
                 \"checkpoint_interval\":{},\"restarts\":{},\"reshards\":{},\
                 \"lost_iterations\":{},\"lost_beyond_interval\":{}",
                job.completed,
                job.spec.iters,
                job.schedule.dims.p,
                job.schedule.dims.s,
                job.interval,
                job.restarts,
                job.reshards,
                job.lost_iters,
                job.lost_beyond,
            ));
            out.push_str(",\"stage_progress\":[");
            for (si, p) in job.stage_progress.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str(&p.to_string());
            }
            out.push_str("],\"stragglers\":[");
            for (fi, f) in job.straggler_flags.iter().enumerate() {
                if fi > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"stage\":{},\"ratio\":{:.3},\"rounds\":{}}}",
                    f.stage, f.ratio, f.rounds
                ));
            }
            out.push_str("],\"segments\":[");
            for (si, seg) in job.segments.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"start_iter\":{},\"stages\":{},\"slices\":{}}}",
                    seg.start_iter, seg.schedule.dims.p, seg.schedule.dims.s
                ));
            }
            out.push(']');
            match job.final_loss {
                Some(loss) => out.push_str(&format!(",\"final_loss\":{loss}")),
                None => out.push_str(",\"final_loss\":null"),
            }
            match job.verified {
                Some(ok) => out.push_str(&format!(",\"verified\":{ok}")),
                None => out.push_str(",\"verified\":null"),
            }
            match &job.error {
                Some(e) => {
                    out.push_str(",\"error\":");
                    push_json_string(&mut out, e);
                }
                None => out.push_str(",\"error\":null"),
            }
            out.push('}');
        }
        out.push_str(&format!(
            "],\"fleet\":{{\"used\":{},\"free\":{},\"schedulable\":{},\"nodes\":[",
            self.fleet.used_slots(),
            self.fleet.free_slots(),
            self.fleet.schedulable_slots()
        ));
        for (ni, node) in self.fleet.nodes().iter().enumerate() {
            if ni > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, &node.name);
            out.push_str(&format!(
                ",\"slots\":{},\"used\":{},\"drained\":{}}}",
                node.slots, node.used, node.drained
            ));
        }
        out.push_str("]}}");
        out
    }
}

/// Extracts the stage index from a gang failure message of the form
/// `stage N ...`, so flight-recorder events can carry the stage tag of
/// whatever died.
fn parse_stage_tag(why: &str) -> Option<usize> {
    why.strip_prefix("stage ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Measures one real in-process iteration of the spec's model at its
/// requested shape — the `T_iter` input to Young's formula.
fn measure_iteration_seconds(spec: &JobSpec) -> f64 {
    let requested = spec.schedule();
    let Ok(schedule) = requested.generate() else {
        return 0.05; // infeasible shapes are rejected later; any prior works
    };
    let rt = PipelineRuntime::new(
        ModelParams::init(spec.config(), spec.seed),
        requested.dims.p,
        requested.dims.v,
    );
    let batch = batch_for_iter(&spec.config(), spec.micro_batches, spec.seed, 0);
    let t0 = Instant::now();
    match rt.run_iteration(&schedule, &batch, WgradMode::DrainOnWait, None) {
        Ok(_) => t0.elapsed().as_secs_f64(),
        Err(_) => 0.05,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> JobSpec {
        JobSpec::parse(text).unwrap()
    }

    #[test]
    fn best_shape_respects_capacity_and_divisibility() {
        let engine = SearchEngine::new();
        let s = spec(
            "name = \"j\"\niters = 4\nstages = 2\nlayers = 4\nmicro_batches = 4\nslices = 2\nseq_len = 16\n",
        );
        // 4 slots: the search may use up to 4 stages (4 layers divide).
        let wide = best_shape(&engine, &s, 4).unwrap().dims;
        assert!(wide.p <= 4 && s.layers.is_multiple_of(wide.p));
        assert!(s.seq_len.is_multiple_of(wide.s));
        // 1 slot: must collapse to a single stage.
        let narrow = best_shape(&engine, &s, 1).unwrap().dims;
        assert_eq!(narrow.p, 1);
        assert!(best_shape(&engine, &s, 0).is_err());
    }

    #[test]
    fn restore_point_needs_every_stage() {
        let dir = std::env::temp_dir().join(format!("mepipe-ctl-rp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (stage, iters) in [(0usize, vec![2usize, 4, 6]), (1, vec![2, 4])] {
            let sd = dir.join(format!("stage-{stage}"));
            std::fs::create_dir_all(&sd).unwrap();
            for c in iters {
                std::fs::write(sd.join(format!("iter-{c}.bin")), b"x").unwrap();
            }
        }
        // Stage 1 never published iter-6: the common prefix ends at 4.
        assert_eq!(restore_point(&dir, 2), 4);
        assert_eq!(restore_point(&dir, 1), 6, "single stage trusts its own");
        assert_eq!(restore_point(&dir.join("missing"), 2), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_replay_walks_segments_and_carries_the_model() {
        // Two segments of the same shape must equal one segment covering
        // the same range: the split is bookkeeping, not a model change.
        let s = spec(
            "name = \"j\"\niters = 3\nstages = 2\nlayers = 2\nmicro_batches = 2\nslices = 2\nseq_len = 16\n",
        );
        let schedule = s.schedule();
        let whole = verify_replay(
            &s,
            &[Segment {
                start_iter: 0,
                schedule,
            }],
        )
        .unwrap();
        let split = verify_replay(
            &s,
            &[
                Segment {
                    start_iter: 0,
                    schedule,
                },
                Segment {
                    start_iter: 2,
                    schedule,
                },
            ],
        )
        .unwrap();
        assert_eq!(whole.to_bits(), split.to_bits());
        assert!(verify_replay(&s, &[]).is_err());
    }

    #[test]
    fn submit_derives_interval_and_rejects_duplicates() {
        let out = std::env::temp_dir().join(format!("mepipe-ctl-sub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let mut d = Daemon::new(
            Fleet::homogeneous(1, 2),
            PathBuf::from("mepipe-worker"),
            out.clone(),
        )
        .unwrap();
        let doc = "name = \"a\"\niters = 4\nlayers = 2\nstages = 2\nmicro_batches = 2\nslices = 2\nseq_len = 16\nmtbf_seconds = 1e12\n";
        let detail = d.submit(doc).unwrap();
        assert!(detail.contains("derived"), "{detail}");
        // A huge MTBF clamps the derived interval to the job length.
        assert_eq!(d.jobs()[0].interval, 4);
        assert!(d.jobs()[0].interval_note.is_some());
        assert!(d.submit(doc).unwrap_err().contains("already exists"));
        // Explicit intervals pass through untouched.
        let detail = d
            .submit("name = \"b\"\niters = 4\ncheckpoint_interval = 2\n")
            .unwrap();
        assert!(!detail.contains("derived"), "{detail}");
        assert_eq!(d.jobs()[1].interval, 2);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn metrics_cover_jobs_and_fleet() {
        let out = std::env::temp_dir().join(format!("mepipe-ctl-met-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let mut d = Daemon::new(
            Fleet::homogeneous(2, 2),
            PathBuf::from("mepipe-worker"),
            out.clone(),
        )
        .unwrap();
        d.submit("name = \"a\"\niters = 4\ncheckpoint_interval = 2\n")
            .unwrap();
        let reg = d.metrics();
        let l: [(&str, String); 1] = [("job", "a".to_string())];
        assert_eq!(reg.get("mepipe_ctl_job_state", &l), Some(0.0));
        assert_eq!(
            reg.get("mepipe_ctl_job_lost_beyond_interval_total", &l),
            Some(0.0)
        );
        assert_eq!(reg.get("mepipe_ctl_fleet_slots_free", &[]), Some(4.0));
        let n: [(&str, String); 1] = [("node", "node-1".to_string())];
        assert_eq!(reg.get("mepipe_ctl_node_drained", &n), Some(0.0));
        assert!(d.fleet.drain("node-1"));
        assert_eq!(d.metrics().get("mepipe_ctl_node_drained", &n), Some(1.0));
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn metric_names_pass_the_prometheus_lint() {
        let out = std::env::temp_dir().join(format!("mepipe-ctl-lint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let mut d = Daemon::new(
            Fleet::homogeneous(1, 2),
            PathBuf::from("mepipe-worker"),
            out.clone(),
        )
        .unwrap();
        d.submit("name = \"a\"\niters = 4\ncheckpoint_interval = 2\n")
            .unwrap();
        d.jobs[0].stage_progress = vec![3, 1];
        let violations = d.metrics().lint_names();
        assert!(violations.is_empty(), "{violations:?}");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn status_json_is_valid_and_covers_jobs_and_fleet() {
        let out = std::env::temp_dir().join(format!("mepipe-ctl-sj-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let mut d = Daemon::new(
            Fleet::homogeneous(1, 2),
            PathBuf::from("mepipe-worker"),
            out.clone(),
        )
        .unwrap();
        d.submit("name = \"a\"\niters = 4\ncheckpoint_interval = 2\n")
            .unwrap();
        d.jobs[0].error = Some("note with \"quotes\"\nand a newline".to_string());
        d.jobs[0].stage_progress = vec![3, 1];
        d.jobs[0].straggler_flags = vec![StragglerFlag {
            stage: 1,
            ratio: 3.0,
            rounds: 4,
        }];
        let v: serde_json::Value = serde_json::from_str(&d.status_json()).expect("valid JSON");
        let jobs = v["jobs"].as_array().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0]["name"].as_str(), Some("a"));
        assert_eq!(jobs[0]["state"].as_str(), Some("pending"));
        assert_eq!(
            jobs[0]["error"].as_str(),
            Some("note with \"quotes\"\nand a newline")
        );
        assert_eq!(jobs[0]["stage_progress"][1].as_u64(), Some(1));
        assert_eq!(jobs[0]["stragglers"][0]["stage"].as_u64(), Some(1));
        assert_eq!(v["fleet"]["free"].as_u64(), Some(2));
        assert_eq!(v["fleet"]["nodes"][0]["drained"].as_bool(), Some(false));
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn failed_artifact_writes_are_counted_not_swallowed() {
        let out = std::env::temp_dir().join(format!("mepipe-ctl-aw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let mut d = Daemon::new(
            Fleet::homogeneous(1, 2),
            PathBuf::from("mepipe-worker"),
            out.clone(),
        )
        .unwrap();
        d.events = EventLog::silent("ctl");
        d.write_artifacts();
        assert_eq!(
            d.metrics()
                .get("mepipe_ctl_artifact_write_errors_total", &[]),
            Some(0.0)
        );
        assert!(out.join("metrics.prom").exists());
        assert!(out.join("status.json").exists());
        // Make the out dir unwritable by replacing it with a file.
        std::fs::remove_dir_all(&out).unwrap();
        std::fs::create_dir_all(&out).unwrap();
        for f in ["metrics.json", "metrics.prom", "status.json"] {
            std::fs::create_dir_all(out.join(f)).unwrap();
        }
        d.write_artifacts();
        assert_eq!(
            d.metrics()
                .get("mepipe_ctl_artifact_write_errors_total", &[]),
            Some(3.0)
        );
        assert!(d
            .events
            .events()
            .any(|e| e.message.contains("write artifact")));
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn unchanged_artifacts_are_not_rewritten() {
        let out = std::env::temp_dir().join(format!("mepipe-ctl-skip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let mut d = Daemon::new(
            Fleet::homogeneous(1, 2),
            PathBuf::from("mepipe-worker"),
            out.clone(),
        )
        .unwrap();
        d.events = EventLog::silent("ctl");
        d.write_artifacts();
        // Overwrite each file with other bytes of the same length: a
        // second write with no state change must leave them alone.
        let stamp = |f: &str| {
            let len = std::fs::metadata(out.join(f)).unwrap().len() as usize;
            std::fs::write(out.join(f), "x".repeat(len)).unwrap();
            "x".repeat(len)
        };
        let stamped: Vec<String> = ARTIFACTS.iter().map(|f| stamp(f)).collect();
        d.write_artifacts();
        for (f, want) in ARTIFACTS.iter().zip(&stamped) {
            assert_eq!(&std::fs::read_to_string(out.join(f)).unwrap(), want, "{f}");
        }
        // A state change rewrites what it changes, and only that.
        d.shutting_down = true;
        d.write_artifacts();
        assert_eq!(
            std::fs::read_to_string(out.join("status.json")).unwrap(),
            d.status_json()
        );
        assert_eq!(
            std::fs::read_to_string(out.join("metrics.prom")).unwrap(),
            stamped[1]
        );
        // A file gone from disk is written again even if unchanged.
        std::fs::remove_file(out.join("metrics.prom")).unwrap();
        d.write_artifacts();
        assert_eq!(
            std::fs::read_to_string(out.join("metrics.prom")).unwrap(),
            d.metrics().to_prometheus_text()
        );
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn gang_failure_messages_yield_stage_tags() {
        assert_eq!(parse_stage_tag("stage 2 exited with signal 9"), Some(2));
        assert_eq!(parse_stage_tag("stage 0 made no progress for 5s"), Some(0));
        assert_eq!(parse_stage_tag("gang launch: spawn failed"), None);
    }
}
