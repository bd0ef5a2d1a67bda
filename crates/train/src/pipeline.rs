//! The threaded pipeline runtime: one OS thread per stage, a pluggable
//! `mepipe-comm` transport as the interconnect, executing the schedule
//! IR on real tensors.
//!
//! Workers follow their schedule lists exactly as the simulator assumes:
//! a forward op blocks until its input activation arrives from the
//! previous global chunk position, a backward op blocks until the output
//! gradient arrives from the next one. Three weight-gradient modes mirror
//! the paper's design space:
//!
//! * [`WgradMode::Immediate`] — fused backward (DAPPLE-style);
//! * [`WgradMode::AtWeightOp`] — split backward, W executed at its static
//!   list position (zero-bubble w/o dynamic scheduling, Figure 11);
//! * [`WgradMode::DrainOnWait`] — split backward, W GEMMs drained one at a
//!   time *while blocked on the interconnect* (MEPipe's fine-grained
//!   weight-gradient computation, Figure 12).
//!
//! Every byte of saved activation, KV cache, dKV buffer and retained
//! weight-gradient operand is charged to a per-stage [`MemTracker`], so
//! peak-memory claims are measured on live tensors.
//!
//! Each stage thread additionally installs a per-stage
//! [`TensorArena`] for the duration of the run: every activation, saved
//! state and scratch buffer a stage allocates is recycled on a
//! shape-keyed free list, and the warmed arenas persist in the runtime
//! between iterations. Recycled buffers are re-zeroed on reuse, so
//! pooled runs are bit-identical to fresh-allocation runs
//! ([`PipelineRuntime::with_arena`] turns pooling off for comparison).
//! The exception is the weight packs: a stage packs each weight it uses
//! once per iteration as a plain allocation and frees it at iteration
//! end, so no pack outlives an optimizer step.
//!
//! Stage-to-stage messaging goes through `mepipe-comm`'s
//! [`Endpoint`](mepipe_comm::Endpoint) abstraction (held, with the
//! stash of tensors that arrive ahead of their op, in a [`StageLink`]),
//! selected by a [`TransportConfig`]
//! ([`PipelineRuntime::with_transport`]): bounded in-process queues by
//! default (credits sized from the schedule's peak in-flight message
//! count), Unix-domain/TCP sockets so each stage can be its own OS
//! process (see the `mepipe-worker` binary), and an emulated layer that
//! adds alpha–beta link timing and seeded delay jitter on top of either.
//! All transport failures — a dead peer, a frame failing its checksum,
//! backpressure deadlines — surface as a typed [`CommError`] from
//! [`PipelineRuntime::run_iteration`] instead of the old
//! `expect("channel closed")` panics; restarting a dead worker process
//! from its checkpoint is `mepipe-ctl`'s job. The delivered bytes are
//! bit-identical across backends, so the loss and gradients of a run do
//! not depend on which interconnect carried it.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use mepipe_comm::{
    build_transport, CommError, CommStats, MsgKind, StageLink, StageMsg, TransportConfig,
};
use mepipe_schedule::ir::{OpKind, Schedule};
use mepipe_schedule::validate::peak_in_flight;
use mepipe_tensor::{
    ops::{
        cross_entropy_in, embedding, embedding_backward, matmul_packed_in, matmul_wgrad_acc_in,
        rmsnorm_backward_in, rmsnorm_in, PackedB,
    },
    ArenaStats, KernelPool, Tensor, TensorArena,
};
use mepipe_trace::{
    ClockAnchor, IterationTrace, SpanKind, StageTrace, StageTracer, DEFAULT_RING_CAPACITY, NO_TAG,
};

use crate::{
    layer::{
        apply_wgrads, backward_input_slice, forward_slice, Kv, LayerFwdSaved, LayerPacks, WgradGemm,
    },
    memtrack::{MemError, MemTracker},
    optim::{GradShard, ModelGrads, Sgd},
    params::{ModelParams, Ownership},
    reference::add_grads,
};

/// When weight-gradient GEMMs execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WgradMode {
    /// Apply weight gradients inside the backward op (fused schedules).
    Immediate,
    /// Apply them at the schedule's `W` op positions (static split).
    AtWeightOp,
    /// Apply them opportunistically while waiting on the interconnect,
    /// finishing leftovers at `W` op positions (MEPipe, Section 5).
    DrainOnWait,
}

/// Result of one pipelined iteration.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Mean next-token cross-entropy over the whole batch.
    pub loss: f64,
    /// Accumulated model gradients (already scaled like the reference).
    pub grads: ModelGrads,
    /// Peak live activation bytes per stage.
    pub peak_bytes: Vec<usize>,
    /// Weight-gradient GEMMs drained while waiting, per stage.
    pub drained_wgrads: Vec<usize>,
    /// First stage that exceeded the memory cap: the typed verdict
    /// (stage, live bytes, cap) the paper's OOM table cells reduce to.
    pub oom: Option<MemError>,
    /// Per-stage tensor-arena counters for this run (all zero when
    /// pooling is disabled). On the second and later iterations of a
    /// runtime the hit rate approaches 1: the steady state allocates
    /// (near-)nothing.
    pub arena: Vec<ArenaStats>,
    /// Per-stage transport counters: bytes, messages, serialize time,
    /// stalls, emulated wire time and injected delays (see
    /// [`CommStats`]).
    pub comm: Vec<CommStats>,
    /// Wall-clock seconds each stage spent computing (F/B/W plus drained
    /// weight GEMMs), measured from a shared [`ClockAnchor`] whether or
    /// not span tracing is enabled. Under data parallelism, summed across
    /// replicas.
    pub busy_seconds: Vec<f64>,
    /// Wall-clock seconds each stage spent not computing (receive waits,
    /// send stalls, scheduling gaps), over the stage's run window. Under
    /// data parallelism, summed across replicas.
    pub idle_seconds: Vec<f64>,
    /// Recorded spans for every stage ([`PipelineRuntime::with_tracing`]);
    /// `None` when tracing is off.
    pub trace: Option<IterationTrace>,
}

/// Result of running a single stage of a schedule (the unit a
/// multi-process worker contributes; [`PipelineRuntime::run_stage`]).
#[derive(Debug)]
pub struct StageRunStats {
    /// This stage's share of the loss sum (the full loss is the sum of
    /// every stage's share, added in stage order).
    pub loss_sum: f64,
    /// Gradients of the parameters this stage owns under the schedule's
    /// [`Ownership`] map, which is all a job's SGD step touches.
    pub grads: GradShard,
    /// Peak live activation bytes on this stage.
    pub peak_bytes: usize,
    /// Weight-gradient GEMMs drained while waiting.
    pub drained: usize,
    /// The cap-exceeded verdict, if the stage went over its budget.
    pub oom: Option<MemError>,
    /// Transport counters of this call's traffic over the link.
    pub comm: CommStats,
    /// Arena counters of this call (zero when pooling is off).
    pub arena: ArenaStats,
    /// Wall-clock seconds this stage spent computing.
    pub busy_seconds: f64,
    /// Wall-clock seconds this stage spent not computing.
    pub idle_seconds: f64,
    /// This stage's recorded spans; `None` when tracing is off.
    pub trace: Option<StageTrace>,
}

/// A model plus the pipeline shape needed to run schedules against it.
pub struct PipelineRuntime {
    /// The model (shared read-only across stage threads during a run).
    pub model: ModelParams,
    stages: usize,
    virtual_chunks: usize,
    kernel_workers: usize,
    pooled: bool,
    tracing: bool,
    transport: TransportConfig,
    /// Warmed per-stage arena sets, handed out at iteration start and
    /// returned at the end. Stage threads die with each `run_iteration`
    /// (scoped spawn), so the free lists must live here to survive into
    /// the next iteration; the lock is touched twice per iteration, never
    /// on the per-tensor hot path. Holds one set per concurrently running
    /// replica under data parallelism (or concurrent `run_stage` call).
    arena_bank: Mutex<Vec<Vec<TensorArena>>>,
}

impl PipelineRuntime {
    /// Creates a runtime for `stages × virtual_chunks` interleaved chunks.
    ///
    /// Each stage thread gets its own [`KernelPool`] sized
    /// `available_parallelism / stages` (at least 1), so kernel-level and
    /// stage-level parallelism compose without oversubscribing the
    /// machine. Override with [`Self::with_kernel_workers`].
    ///
    /// # Panics
    ///
    /// Panics if the layer count is not divisible by the stage count.
    /// (The full block-count divisibility check happens per schedule in
    /// `run_iteration`, because the block count depends on the placement:
    /// `p·v` blocks for interleaved chunks, `p` for bidirectional ones,
    /// where the two chunks per stage are replicas of the same blocks.)
    pub fn new(model: ModelParams, stages: usize, virtual_chunks: usize) -> Self {
        assert_eq!(
            model.cfg.layers % stages,
            0,
            "layers must divide evenly across stages"
        );
        let kernel_workers = KernelPool::auto(stages).workers();
        Self {
            model,
            stages,
            virtual_chunks,
            kernel_workers,
            pooled: true,
            tracing: false,
            transport: TransportConfig::in_proc(),
            arena_bank: Mutex::new(Vec::new()),
        }
    }

    /// Selects the stage-to-stage transport (in-process bounded queues by
    /// default). Delivered content is bit-identical across backends, so
    /// this changes failure/timing behaviour and observability, never
    /// results.
    #[must_use]
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// The configured transport.
    pub fn transport(&self) -> &TransportConfig {
        &self.transport
    }

    /// Overrides the per-stage kernel worker count (clamped to at least
    /// 1). The kernels are deterministic across worker counts, so this
    /// only changes speed, never results.
    #[must_use]
    pub fn with_kernel_workers(mut self, workers: usize) -> Self {
        self.kernel_workers = workers.max(1);
        self
    }

    /// Enables or disables per-stage tensor-arena pooling (on by
    /// default). Pooled buffers are re-zeroed on reuse, so this only
    /// changes allocation behaviour, never results.
    #[must_use]
    pub fn with_arena(mut self, pooled: bool) -> Self {
        self.pooled = pooled;
        self
    }

    /// Whether stage threads pool tensor buffers in per-stage arenas.
    pub fn pooled(&self) -> bool {
        self.pooled
    }

    /// Enables or disables measured span tracing (off by default). When
    /// on, each stage records every op, send and receive wait into a
    /// preallocated ring buffer, returned as `RunStats::trace`. Timing
    /// calls never touch the math, so traced runs stay bit-identical to
    /// untraced ones (the `train` bench bounds the time overhead).
    #[must_use]
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Whether stages record measured spans.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Kernel workers each stage thread fans out over.
    pub fn kernel_workers(&self) -> usize {
        self.kernel_workers
    }

    fn check_shapes(&self, schedule: &Schedule, batch: &[Vec<usize>]) {
        let meta = &schedule.meta;
        assert_eq!(meta.stages, self.stages, "stage mismatch");
        assert_eq!(meta.virtual_chunks, self.virtual_chunks, "chunk mismatch");
        assert_eq!(
            self.model.cfg.layers % meta.model_blocks(),
            0,
            "layers must divide evenly into the schedule's model blocks"
        );
        assert_eq!(meta.micro_batches, batch.len(), "batch size mismatch");
        let seq = self.model.cfg.seq_len;
        for s in batch {
            assert_eq!(s.len(), seq + 1, "each sample needs seq_len + 1 tokens");
        }
        assert_eq!(seq % meta.slices, 0, "slices must divide the sequence");
    }

    /// Per-link credit capacity for a schedule: twice the worst stage's
    /// peak in-flight message count plus slack, so a correct schedule
    /// never deadlocks on flow control while a runaway sender still
    /// blocks (and eventually fails with [`CommError::Backpressure`]).
    fn default_capacity(schedule: &Schedule) -> usize {
        peak_in_flight(schedule).into_iter().max().unwrap_or(1) * 2 + 2
    }

    /// Checks a warmed arena set out of the bank, or builds a cold one;
    /// `None` when pooling is off. Concurrent callers each pop their own
    /// set, so the bank grows to one set per concurrent run.
    fn checkout_arenas(&self) -> Option<Vec<TensorArena>> {
        self.pooled.then(|| {
            let popped = self.arena_bank.lock().expect("arena bank poisoned").pop();
            popped.unwrap_or_else(|| (0..self.stages).map(|_| TensorArena::new()).collect())
        })
    }

    /// Returns an arena set to the bank for the next run.
    fn checkin_arenas(&self, set: Vec<TensorArena>) {
        self.arena_bank
            .lock()
            .expect("arena bank poisoned")
            .push(set);
    }

    /// Runs one training iteration under `schedule` and returns loss,
    /// gradients and memory statistics. `batch[mb]` must hold
    /// `seq_len + 1` token ids. The model is not mutated; apply an
    /// optimizer step with the returned gradients.
    ///
    /// # Errors
    ///
    /// Returns the root-cause [`CommError`] if any stage's transport
    /// fails (peer death, corrupt frame, backpressure deadline). The remaining stages shut down promptly: an endpoint
    /// dropped on the error path signals every blocked peer.
    ///
    /// # Panics
    ///
    /// Panics if the schedule shape disagrees with the runtime or batch.
    pub fn run_iteration(
        &self,
        schedule: &Schedule,
        batch: &[Vec<usize>],
        mode: WgradMode,
        mem_cap: Option<usize>,
    ) -> Result<RunStats, CommError> {
        self.check_shapes(schedule, batch);
        let p = self.stages;
        let transport = build_transport(&self.transport, p, Self::default_capacity(schedule))?;
        let batch = Arc::new(batch.to_vec());
        let model = &self.model;
        let owners = Ownership::new(&schedule.meta, model.cfg.layers);

        let kernel_workers = self.kernel_workers;
        // One anchor for all stage threads of this run: their spans and
        // busy/idle counters share a time axis (and an epoch position,
        // for merging with other processes' traces).
        let anchor = ClockAnchor::now();
        let tracing = self.tracing;
        let arenas: Vec<Option<TensorArena>> = match self.checkout_arenas() {
            Some(set) => set.into_iter().map(Some).collect(),
            None => (0..p).map(|_| None).collect(),
        };
        let mut results: Vec<Option<Result<WorkerOut, CommError>>> = (0..p).map(|_| None).collect();
        let mut arena_stats = vec![ArenaStats::default(); p];
        let mut warm: Vec<TensorArena> = Vec::with_capacity(p);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, mut arena) in arenas.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                let ops = &schedule.workers[w];
                let meta = &schedule.meta;
                let owners = &owners;
                let transport = transport.as_ref();
                handles.push(scope.spawn(move || {
                    let before = arena
                        .as_ref()
                        .map_or_else(ArenaStats::default, |a| a.stats());
                    let out = {
                        // Installed for the whole run of this stage: every
                        // tensor the ops below create or drop on this
                        // thread goes through the stage's free lists.
                        let _arena_scope = arena.as_mut().map(|a| a.install());
                        // Claim the endpoint on the stage thread: the
                        // socket backend's mesh rendezvous needs every
                        // stage connecting concurrently.
                        transport.endpoint(w).and_then(|ep| {
                            let mut link = StageLink::new(ep);
                            let mut ctx = WorkerCtx::new(
                                model,
                                meta,
                                owners,
                                w,
                                &mut link,
                                batch,
                                mode,
                                mem_cap,
                                kernel_workers,
                                anchor,
                                tracing,
                            );
                            for op in ops {
                                // An error drops the link (and its
                                // endpoint) right here, signalling every
                                // peer.
                                ctx.execute(op)?;
                            }
                            let out = ctx.finish();
                            // Clean close: peers blocked in recv finish
                            // once everyone's done.
                            link.close()?;
                            Ok(out)
                        })
                    };
                    let stats = arena
                        .as_ref()
                        .map_or_else(ArenaStats::default, |a| a.stats())
                        .since(&before);
                    (out, arena, stats)
                }));
            }
            for (w, h) in handles.into_iter().enumerate() {
                let (out, arena, stats) = h.join().expect("stage thread panicked");
                results[w] = Some(out);
                arena_stats[w] = stats;
                if let Some(a) = arena {
                    warm.push(a);
                }
            }
        });
        if self.pooled {
            self.checkin_arenas(warm);
        }

        // Merge per-worker results. On failure, report the root cause: a
        // stage that hit a corrupt frame or backpressure, not the
        // `Closed` cascade its death triggered on the other stages.
        let mut first_err: Option<CommError> = None;
        let mut outs: Vec<Option<WorkerOut>> = (0..p).map(|_| None).collect();
        for (w, out) in results.into_iter().enumerate() {
            match out.expect("worker result present") {
                Ok(o) => outs[w] = Some(o),
                Err(e) => {
                    let cascade = matches!(e, CommError::Closed { .. });
                    match &first_err {
                        None => first_err = Some(e),
                        Some(CommError::Closed { .. }) if !cascade => first_err = Some(e),
                        Some(_) => {}
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let mut shards = Vec::with_capacity(p);
        let mut loss = 0.0f64;
        let mut peaks = vec![0usize; p];
        let mut drained = vec![0usize; p];
        let mut comm = Vec::with_capacity(p);
        let mut busy_seconds = vec![0.0f64; p];
        let mut idle_seconds = vec![0.0f64; p];
        let mut stage_traces = Vec::new();
        let mut oom = None;
        for (w, out) in outs.into_iter().enumerate() {
            let out = out.expect("worker result present");
            loss += out.loss_sum;
            peaks[w] = out.peak_bytes;
            drained[w] = out.drained;
            comm.push(out.comm);
            busy_seconds[w] = out.busy_ns as f64 * 1e-9;
            idle_seconds[w] = out.idle_ns as f64 * 1e-9;
            if let Some(t) = out.trace {
                stage_traces.push(t);
            }
            if oom.is_none() {
                oom = out.oom;
            }
            shards.push(out.grads);
        }
        Ok(RunStats {
            loss,
            grads: GradShard::merge(shards),
            peak_bytes: peaks,
            drained_wgrads: drained,
            oom,
            arena: arena_stats,
            comm,
            busy_seconds,
            idle_seconds,
            trace: tracing.then_some(IterationTrace {
                stages: stage_traces,
            }),
        })
    }

    /// Runs a single stage of `schedule` over a caller-provided link —
    /// the multi-process entry point used by the `mepipe-worker` binary,
    /// where each stage is its own OS process joined to its peers by a
    /// socket transport. Every process must hold an identically
    /// initialised model and batch; the returned loss share is this
    /// stage's, and the gradients are its shard: only the parameters it
    /// owns under the schedule's [`Ownership`] map.
    ///
    /// The link is borrowed, not consumed: a job keeps one link (and one
    /// mesh) for all its iterations, and tensors a faster peer already
    /// sent for the next iteration wait in its stash (see [`StageLink`]).
    /// The caller closes it after the last call. The stage's arena comes
    /// out of the runtime's warmed bank, as in
    /// [`run_iteration`](Self::run_iteration), so every call after the
    /// first runs warm. `StageRunStats::comm` and `::arena` count this
    /// call only.
    ///
    /// # Errors
    ///
    /// Returns a [`CommError`] if the transport fails mid-run; the caller
    /// should then drop the link without closing it, so peers fail fast
    /// too.
    ///
    /// # Panics
    ///
    /// Panics if the schedule shape disagrees with the runtime or batch.
    pub fn run_stage(
        &self,
        schedule: &Schedule,
        stage: usize,
        batch: &[Vec<usize>],
        mode: WgradMode,
        mem_cap: Option<usize>,
        link: &mut StageLink,
    ) -> Result<StageRunStats, CommError> {
        self.check_shapes(schedule, batch);
        assert!(stage < self.stages, "stage out of range");
        let mut arenas = self.checkout_arenas();
        let run = {
            let mut arena = arenas.as_mut().map(|set| &mut set[stage]);
            let before = arena
                .as_ref()
                .map_or_else(ArenaStats::default, |a| a.stats());
            let out = {
                let _arena_scope = arena.as_mut().map(|a| a.install());
                // Per-process anchor: the epoch position it captures is
                // what lets a launcher merge this stage's trace with its
                // peers'.
                let mut ctx = WorkerCtx::new(
                    &self.model,
                    &schedule.meta,
                    &Ownership::new(&schedule.meta, self.model.cfg.layers),
                    stage,
                    link,
                    Arc::new(batch.to_vec()),
                    mode,
                    mem_cap,
                    self.kernel_workers,
                    ClockAnchor::now(),
                    self.tracing,
                );
                schedule.workers[stage]
                    .iter()
                    .try_for_each(|op| ctx.execute(op))
                    .map(|()| ctx.finish())
            };
            let stats = arena
                .as_ref()
                .map_or_else(ArenaStats::default, |a| a.stats())
                .since(&before);
            out.map(|o| (o, stats))
        };
        if let Some(set) = arenas {
            self.checkin_arenas(set);
        }
        let (out, arena_stats) = run?;
        Ok(StageRunStats {
            loss_sum: out.loss_sum,
            grads: out.grads,
            peak_bytes: out.peak_bytes,
            drained: out.drained,
            oom: out.oom,
            comm: out.comm,
            arena: arena_stats,
            busy_seconds: out.busy_ns as f64 * 1e-9,
            idle_seconds: out.idle_ns as f64 * 1e-9,
            trace: out.trace,
        })
    }

    /// Runs one iteration under data parallelism: the batch is split
    /// across `replicas` pipeline replicas (each executing the same
    /// schedule on its shard) and gradients are averaged — the all-reduce
    /// of Section 2.2's DP, realised over replica runs. The schedule's
    /// micro-batch count must equal the per-replica shard size.
    ///
    /// Replicas execute concurrently on scoped threads (each owns its
    /// transport, stage threads and arena set), and their results are
    /// merged streamingly as each replica joins, in replica index order
    /// — the same addition order as a serial replica loop, so the
    /// output is bit-identical to one. Merging inside the join loop
    /// keeps at most one un-merged `RunStats` (a full set of model
    /// gradients) alive besides the accumulator, instead of one per
    /// replica.
    /// Replicas always use the in-process transport shape of the
    /// configured backend; socket backends would collide on their
    /// rendezvous addresses across replicas, so use `InProc` here.
    ///
    /// # Errors
    ///
    /// Returns the first replica's [`CommError`] if any replica fails.
    ///
    /// # Panics
    ///
    /// Panics if the batch does not split evenly across replicas.
    pub fn run_data_parallel(
        &self,
        schedule: &Schedule,
        batch: &[Vec<usize>],
        replicas: usize,
        mode: WgradMode,
    ) -> Result<RunStats, CommError> {
        assert!(replicas > 0, "need at least one replica");
        assert_eq!(
            batch.len() % replicas,
            0,
            "batch must split evenly across replicas"
        );
        let shard = batch.len() / replicas;
        let mut out = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..replicas)
                .map(|r| {
                    let shard_batch = &batch[r * shard..(r + 1) * shard];
                    scope.spawn(move || self.run_iteration(schedule, shard_batch, mode, None))
                })
                .collect();
            // Join in index order and fold each result into the
            // accumulator immediately (an early error still joins the
            // remaining replicas — scope exit does that).
            let mut merged: Option<RunStats> = None;
            for (r, h) in handles.into_iter().enumerate() {
                let mut stats = h.join().expect("replica thread panicked")?;
                // Tag this replica's spans so merged traces keep one
                // process track per replica (`PidKey::Replica`).
                if let Some(trace) = &mut stats.trace {
                    for st in &mut trace.stages {
                        st.replica = r;
                    }
                }
                merged = Some(match merged {
                    None => stats,
                    Some(mut acc) => {
                        acc.loss += stats.loss;
                        add_grads(&mut acc.grads, &stats.grads, 1.0);
                        for (a, b) in acc.peak_bytes.iter_mut().zip(&stats.peak_bytes) {
                            *a = (*a).max(*b);
                        }
                        for (a, b) in acc.drained_wgrads.iter_mut().zip(&stats.drained_wgrads) {
                            *a += b;
                        }
                        for (a, b) in acc.arena.iter_mut().zip(&stats.arena) {
                            *a = a.merged(b);
                        }
                        for (a, b) in acc.comm.iter_mut().zip(&stats.comm) {
                            *a = a.merged(b);
                        }
                        for (a, b) in acc.busy_seconds.iter_mut().zip(&stats.busy_seconds) {
                            *a += b;
                        }
                        for (a, b) in acc.idle_seconds.iter_mut().zip(&stats.idle_seconds) {
                            *a += b;
                        }
                        if let (Some(at), Some(bt)) = (&mut acc.trace, stats.trace) {
                            at.stages.extend(bt.stages);
                        }
                        acc.oom = acc.oom.or(stats.oom);
                        acc
                    }
                });
            }
            Ok::<RunStats, CommError>(merged.expect("at least one replica ran"))
        })?;
        // Each replica normalised by its shard size; the DP average
        // divides by the replica count (gradients) and the replica count
        // (losses).
        out.loss /= replicas as f64;
        out.grads.scale(1.0 / replicas as f32);
        Ok(out)
    }

    /// Convenience: one iteration plus an SGD step.
    ///
    /// # Errors
    ///
    /// Returns a [`CommError`] if the iteration's transport fails; the
    /// model is left unmodified in that case.
    pub fn train_step(
        &mut self,
        schedule: &Schedule,
        batch: &[Vec<usize>],
        mode: WgradMode,
        lr: f32,
    ) -> Result<RunStats, CommError> {
        let stats = self.run_iteration(schedule, batch, mode, None)?;
        Sgd { lr }.step_model(&mut self.model, &stats.grads);
        Ok(stats)
    }
}

struct WorkerOut {
    loss_sum: f64,
    grads: GradShard,
    peak_bytes: usize,
    drained: usize,
    oom: Option<MemError>,
    comm: CommStats,
    busy_ns: u64,
    idle_ns: u64,
    trace: Option<StageTrace>,
}

struct WorkerCtx<'a> {
    model: &'a ModelParams,
    meta: mepipe_schedule::ir::ScheduleMeta,
    w: usize,
    // The stage's endpoint plus the boundary tensors that arrived ahead
    // of their op; it outlives the ctx (and, in a job, the iteration).
    link: &'a mut StageLink,
    // The link's counters when this ctx started, so `finish` reports this
    // run's traffic only.
    comm_before: CommStats,
    batch: Arc<Vec<Vec<usize>>>,
    mode: WgradMode,
    // Accumulators for what this stage owns, and nothing else.
    grads: GradShard,
    // (mb, chunk, layer-in-chunk) KV caches and dKV accumulators.
    kvs: HashMap<(usize, usize, usize), Kv>,
    dkvs: HashMap<(usize, usize, usize), Kv>,
    // Saved activations per (mb, slice, chunk), one per local layer.
    saves: HashMap<(usize, usize, usize), (Tensor, Vec<LayerFwdSaved>)>,
    // Final hidden state per (mb, slice) on the loss-owning chunk.
    finals: HashMap<(usize, usize), Tensor>,
    // Deferred weight-gradient GEMMs: (unit key, layer global idx, gemm).
    // A FIFO: drains during waits, weight ops, and the final sweep all
    // consume from the front, so the per-layer accumulation order equals
    // the (deterministic) insertion order no matter *when* each GEMM is
    // applied — gradients stay bit-identical across backends and runs.
    pending_w: VecDeque<(usize, usize, usize, usize, WgradGemm)>,
    // Weight packs by global layer index, each form built on first use
    // and dropped with the ctx, so never stale; the head's (fwd, dgrad)
    // pair on a loss-owning stage.
    fwd_packs: Vec<Option<LayerPacks>>,
    dgrad_packs: Vec<Option<LayerPacks>>,
    head_packs: Option<(PackedB, PackedB)>,
    mem: MemTracker,
    oom: Option<MemError>,
    loss_sum: f64,
    drained: usize,
    tokens_per_slice: usize,
    // This stage's kernel pool — kernel-level parallelism nested inside
    // the stage thread.
    pool: KernelPool,
    // Span recorder (a disabled no-op unless tracing is on) — also the
    // clock for busy/idle accounting, which stays on in all modes.
    tracer: StageTracer,
    busy_ns: u64,
    start_ns: u64,
}

impl<'a> WorkerCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        model: &'a ModelParams,
        meta: &mepipe_schedule::ir::ScheduleMeta,
        owners: &Ownership,
        w: usize,
        link: &'a mut StageLink,
        batch: Arc<Vec<Vec<usize>>>,
        mode: WgradMode,
        mem_cap: Option<usize>,
        kernel_workers: usize,
        anchor: ClockAnchor,
        tracing: bool,
    ) -> Self {
        let tracer = if tracing {
            StageTracer::enabled(w, anchor, DEFAULT_RING_CAPACITY)
        } else {
            StageTracer::disabled(anchor)
        };
        let start_ns = tracer.clock_ns();
        Self {
            model,
            meta: meta.clone(),
            w,
            comm_before: link.stats(),
            link,
            batch,
            mode,
            grads: GradShard::zeros(model, owners, w),
            kvs: HashMap::new(),
            dkvs: HashMap::new(),
            saves: HashMap::new(),
            finals: HashMap::new(),
            pending_w: VecDeque::new(),
            fwd_packs: model.layers.iter().map(|_| None).collect(),
            dgrad_packs: model.layers.iter().map(|_| None).collect(),
            head_packs: None,
            mem: MemTracker::new(w, mem_cap),
            oom: None,
            loss_sum: 0.0,
            drained: 0,
            tokens_per_slice: model.cfg.seq_len / meta.slices,
            pool: KernelPool::new(kernel_workers),
            tracer,
            busy_ns: 0,
            start_ns,
        }
    }

    /// Closes a compute span opened at `start_ns`: counts it as busy and
    /// (when tracing) records it with its op tag.
    fn note_compute(
        &mut self,
        kind: SpanKind,
        mb: usize,
        slice: usize,
        chunk: usize,
        start_ns: u64,
    ) {
        let end = self.tracer.clock_ns();
        self.busy_ns += end.saturating_sub(start_ns);
        self.tracer.record_to(
            kind,
            mb as u32,
            slice as u32,
            chunk as u32,
            NO_TAG,
            start_ns,
            end,
        );
    }

    fn layers_of_chunk(&self, chunk: usize) -> (usize, usize) {
        // The *model block* this (stage, chunk) computes — under
        // bidirectional placement the two chunks are replicas of blocks
        // `w` and `p − 1 − w`, and the model splits into `p` blocks
        // rather than `p·v`.
        let b = self.meta.block_of(self.w, chunk);
        self.model.chunk_layer_range(b, self.meta.model_blocks())
    }

    /// Blocking receive with optional W-drain while waiting.
    fn recv_tagged(
        &mut self,
        kind: MsgKind,
        mb: usize,
        slice: usize,
        g: usize,
    ) -> Result<Tensor, CommError> {
        loop {
            if let Some(t) = self.link.take(kind, mb, slice, g) {
                return Ok(t);
            }
            if self.mode == WgradMode::DrainOnWait {
                if self.link.try_recv()? {
                    continue;
                }
                if let Some((w_mb, w_slice, w_chunk, li, gemm)) = self.pending_w.pop_front() {
                    // Drain exactly one GEMM, then re-check.
                    let t0 = self.tracer.clock_ns();
                    apply_wgrads(
                        &self.pool,
                        self.grads.layer_mut(li),
                        std::slice::from_ref(&gemm),
                    );
                    self.mem.free(gemm.bytes());
                    self.drained += 1;
                    self.note_compute(SpanKind::WgradDrain, w_mb, w_slice, w_chunk, t0);
                    continue;
                }
            }
            let t0 = self.tracer.clock_ns();
            self.link.recv()?;
            self.tracer.record_comm(SpanKind::RecvWait, NO_TAG, t0);
        }
    }

    /// Charges activation bytes, remembering the first cap violation
    /// (the runtime keeps executing so gradients stay comparable — the
    /// verdict travels as a typed [`MemError`], as in the paper's OOM
    /// table cells).
    fn charge(&mut self, bytes: usize) {
        if let Err(e) = self.mem.alloc(bytes) {
            self.oom.get_or_insert(e);
        }
    }

    /// Sends a boundary tensor to the stage executing chain position `g`
    /// of micro-batch `mb` (which stage that is depends on the
    /// micro-batch's direction under bidirectional placement). A tensor
    /// for this very stage — the V-shape's turn, where chain positions
    /// p−1 and p share a stage — goes straight into the stash: a local
    /// hand-off, as in the timing engine, with no wire and no send span.
    fn send_boundary(
        &mut self,
        kind: MsgKind,
        mb: usize,
        slice: usize,
        g: usize,
        tensor: Tensor,
    ) -> Result<(), CommError> {
        let (to, _chunk) = self.meta.chain_stage_chunk(mb, g);
        let msg = StageMsg {
            kind,
            mb: mb as u32,
            slice: slice as u32,
            g: g as u32,
            tensor,
        };
        if to == self.w {
            return self.link.stash(msg);
        }
        let t0 = self.tracer.clock_ns();
        let out = self.link.send(to, msg);
        self.tracer.record_comm(SpanKind::Send, to as u32, t0);
        out
    }

    fn execute(&mut self, op: &mepipe_schedule::ir::Op) -> Result<(), CommError> {
        match op.kind {
            OpKind::Forward => self.forward(op.micro_batch, op.slice, op.chunk),
            OpKind::Backward => {
                self.backward(op.micro_batch, op.slice, op.chunk, SpanKind::Backward)
            }
            OpKind::BackwardInput => {
                self.backward(op.micro_batch, op.slice, op.chunk, SpanKind::BackwardInput)
            }
            OpKind::BackwardWeight => {
                self.weight_op(op.micro_batch, op.slice, op.chunk);
                Ok(())
            }
        }
    }

    fn forward(&mut self, mb: usize, slice: usize, chunk: usize) -> Result<(), CommError> {
        let g = self.meta.chain_pos(mb, self.w, chunk);
        let ts = self.tokens_per_slice;
        let offset = slice * ts;
        // The compute span opens once the input is in hand: receive waits
        // (and any drains they hid) are recorded inside recv_tagged.
        let mut c0 = self.tracer.clock_ns();
        let x = if g == 0 {
            let toks = &self.batch[mb][offset..offset + ts];
            embedding(&self.model.embedding, toks, offset)
        } else {
            let t = self.recv_tagged(MsgKind::Fwd, mb, slice, g)?;
            c0 = self.tracer.clock_ns();
            t
        };
        let (lo, hi) = self.layers_of_chunk(chunk);
        let mut cur = x.clone();
        let mut saves = Vec::with_capacity(hi - lo);
        for li in lo..hi {
            let w = self.fwd_packs[li]
                .get_or_insert_with(|| LayerPacks::forward(&self.model.layers[li]));
            let kv = self.kvs.entry((mb, chunk, li - lo)).or_default();
            let before = kv.bytes();
            let (y, sv) = forward_slice(
                &self.pool,
                &self.model.layers[li],
                w,
                &cur,
                kv,
                offset,
                self.model.cfg.heads,
            );
            let kv_delta = kv.bytes() - before;
            self.charge(sv.bytes() + kv_delta);
            saves.push(sv);
            cur = y;
        }
        self.charge(x.bytes());
        self.saves.insert((mb, slice, chunk), (x, saves));
        self.note_compute(SpanKind::Forward, mb, slice, chunk, c0);
        if g == self.meta.last_chain_pos() {
            self.charge(cur.bytes());
            self.finals.insert((mb, slice), cur);
        } else {
            self.send_boundary(MsgKind::Fwd, mb, slice, g + 1, cur)?;
        }
        Ok(())
    }

    fn backward(
        &mut self,
        mb: usize,
        slice: usize,
        chunk: usize,
        span: SpanKind,
    ) -> Result<(), CommError> {
        let g = self.meta.chain_pos(mb, self.w, chunk);
        let ts = self.tokens_per_slice;
        let offset = slice * ts;
        let n_batch = self.batch.len();
        let total_tokens = self.model.cfg.seq_len;

        // On the loss-owning stage the whole op is compute; elsewhere the
        // span opens after the output gradient arrives.
        let mut c0 = self.tracer.clock_ns();
        let mut dy = if g == self.meta.last_chain_pos() {
            // Loss path: final norm + head + cross-entropy on this slice.
            let hidden = self
                .finals
                .remove(&(mb, slice))
                .expect("final hidden saved");
            self.mem.free(hidden.bytes());
            let (normed, norm_saved) = rmsnorm_in(&self.pool, &hidden, &self.model.final_norm);
            let head = &self.model.head;
            let (head_fwd, head_dgrad) = self
                .head_packs
                .get_or_insert_with(|| (PackedB::new(head), PackedB::transposed(head)));
            let logits = matmul_packed_in(&self.pool, &normed, head_fwd);
            let targets = &self.batch[mb][offset + 1..offset + ts + 1];
            let ce = cross_entropy_in(&self.pool, &logits, targets);
            self.loss_sum += ce.loss_sum / (total_tokens * n_batch) as f64;
            let mut dlogits = ce.dlogits;
            dlogits.scale(1.0 / (total_tokens * n_batch) as f32);
            let owned = "a loss stage owns the head";
            matmul_wgrad_acc_in(
                &self.pool,
                &normed,
                &dlogits,
                self.grads.head.as_mut().expect(owned),
            );
            let d_normed = matmul_packed_in(&self.pool, &dlogits, head_dgrad);
            let (dh, dfn) =
                rmsnorm_backward_in(&self.pool, &d_normed, &self.model.final_norm, &norm_saved);
            self.grads
                .final_norm
                .as_mut()
                .expect(owned)
                .add_assign(&dfn);
            dh
        } else {
            let t = self.recv_tagged(MsgKind::Bwd, mb, slice, g)?;
            c0 = self.tracer.clock_ns();
            t
        };

        let (lo, hi) = self.layers_of_chunk(chunk);
        let (x_in, mut saves) = self
            .saves
            .remove(&(mb, slice, chunk))
            .expect("saved acts present");
        for li in (lo..hi).rev() {
            let w = self.dgrad_packs[li]
                .get_or_insert_with(|| LayerPacks::input_grad(&self.model.layers[li]));
            let kv = self
                .kvs
                .get(&(mb, chunk, li - lo))
                .expect("kv cache present");
            let dkv = self.dkvs.entry((mb, chunk, li - lo)).or_default();
            let was_empty = dkv.is_empty();
            // Layers run last to first, so each one's save is the last.
            let saved = saves.pop().expect("one save per layer");
            let saved_bytes = saved.bytes();
            let out =
                backward_input_slice(&self.pool, &self.model.layers[li], w, saved, kv, dkv, &dy);
            if was_empty {
                let bytes = dkv.bytes();
                self.charge(bytes);
            }
            let grads = self.grads.layer_mut(li);
            grads.norm1.add_assign(&out.dnorm1);
            grads.norm2.add_assign(&out.dnorm2);
            match self.mode {
                WgradMode::Immediate => apply_wgrads(&self.pool, grads, &out.wgrads),
                WgradMode::AtWeightOp | WgradMode::DrainOnWait => {
                    for gm in out.wgrads {
                        self.charge(gm.bytes());
                        self.pending_w.push_back((mb, slice, chunk, li, gm));
                    }
                }
            }
            self.mem.free(saved_bytes);
            dy = out.dx;
        }
        self.mem.free(x_in.bytes());
        drop(x_in);

        // After the first slice's backward, the (mb, chunk) caches die.
        if slice == 0 {
            for li in lo..hi {
                if let Some(kv) = self.kvs.remove(&(mb, chunk, li - lo)) {
                    self.mem.free(kv.bytes());
                }
                if let Some(dkv) = self.dkvs.remove(&(mb, chunk, li - lo)) {
                    self.mem.free(dkv.bytes());
                }
            }
        }

        if g == 0 {
            let toks = &self.batch[mb][offset..offset + ts];
            self.grads
                .embedding
                .as_mut()
                .expect("an entry stage owns the embedding")
                .add_assign(&embedding_backward(&dy, toks, self.model.cfg.vocab));
            self.note_compute(span, mb, slice, chunk, c0);
        } else {
            self.note_compute(span, mb, slice, chunk, c0);
            self.send_boundary(MsgKind::Bwd, mb, slice, g - 1, dy)?;
        }
        Ok(())
    }

    fn weight_op(&mut self, mb: usize, slice: usize, chunk: usize) {
        if self.mode != WgradMode::AtWeightOp {
            // Immediate mode never stashes; DrainOnWait ignores the static
            // W positions entirely (GEMMs drain during waits, leftovers at
            // the end) — the fully dynamic Section 5 behaviour.
            return;
        }
        let t0 = self.tracer.clock_ns();
        let mut applied = false;
        let mut remaining = VecDeque::new();
        for entry in self.pending_w.drain(..) {
            if entry.0 == mb && entry.1 == slice && entry.2 == chunk {
                let (_, _, _, li, gemm) = entry;
                self.mem.free(gemm.bytes());
                apply_wgrads(&self.pool, self.grads.layer_mut(li), &[gemm]);
                applied = true;
            } else {
                remaining.push_back(entry);
            }
        }
        self.pending_w = remaining;
        if applied {
            self.note_compute(SpanKind::BackwardWeight, mb, slice, chunk, t0);
        }
    }

    fn finish(mut self) -> WorkerOut {
        // Any weight work never reached (e.g. drained list ended early).
        let pending: Vec<_> = self.pending_w.drain(..).collect();
        for (mb, slice, chunk, li, gemm) in pending {
            let t0 = self.tracer.clock_ns();
            self.mem.free(gemm.bytes());
            apply_wgrads(&self.pool, self.grads.layer_mut(li), &[gemm]);
            self.note_compute(SpanKind::WgradDrain, mb, slice, chunk, t0);
        }
        let wall_ns = self.tracer.clock_ns().saturating_sub(self.start_ns);
        WorkerOut {
            loss_sum: self.loss_sum,
            grads: self.grads,
            peak_bytes: self.mem.peak(),
            drained: self.drained,
            oom: self.oom,
            comm: self.link.stats().since(&self.comm_before),
            busy_ns: self.busy_ns,
            idle_ns: wall_ns.saturating_sub(self.busy_ns),
            trace: self.tracer.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_core::svpp::{Mepipe, Svpp};
    use mepipe_core::Synth;
    use mepipe_model::config::TransformerConfig;
    use mepipe_schedule::generator::{Dapple, Dims, Hanayo, ScheduleGenerator, Zbv};
    use mepipe_schedule::DualPipe;
    use mepipe_strategy::{Method, ScheduleSpec};
    use mepipe_tensor::init::synthetic_tokens;

    use crate::reference::batch_forward_backward;

    fn tiny_cfg() -> TransformerConfig {
        TransformerConfig {
            seq_len: 32,
            ..TransformerConfig::tiny(4)
        }
    }

    fn make_batch(cfg: &TransformerConfig, n: usize, seed: u64) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, seed + i as u64))
            .collect()
    }

    fn svpp_schedule(p: usize, v: usize, s: usize, n: usize, split: bool) -> Schedule {
        let dims = Dims::new(p, n).virtual_chunks(v).slices(s);
        if split {
            Mepipe::new().generate(&dims).unwrap()
        } else {
            Svpp::new().generate(&dims).unwrap()
        }
    }

    #[test]
    fn svpp_pipeline_matches_reference_gradients() {
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 42);
        let batch = make_batch(&cfg, 4, 7);
        let reference = batch_forward_backward(&model, &batch);

        let rt = PipelineRuntime::new(model, 2, 1);
        let sch = svpp_schedule(2, 1, 4, 4, false);
        let stats = rt
            .run_iteration(&sch, &batch, WgradMode::Immediate, None)
            .unwrap();

        assert!(
            (stats.loss - reference.loss).abs() < 1e-4,
            "loss {} vs reference {}",
            stats.loss,
            reference.loss
        );
        let diff = stats.grads.max_abs_diff(&reference.grads);
        assert!(diff < 1e-3, "gradient diff {diff}");
    }

    #[test]
    fn virtual_chunks_match_reference_too() {
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 43);
        let batch = make_batch(&cfg, 2, 9);
        let reference = batch_forward_backward(&model, &batch);
        let rt = PipelineRuntime::new(model, 2, 2);
        let sch = svpp_schedule(2, 2, 2, 2, false);
        let stats = rt
            .run_iteration(&sch, &batch, WgradMode::Immediate, None)
            .unwrap();
        assert!((stats.loss - reference.loss).abs() < 1e-4);
        assert!(stats.grads.max_abs_diff(&reference.grads) < 1e-3);
    }

    #[test]
    fn split_and_drained_wgrads_match_immediate() {
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 44);
        let batch = make_batch(&cfg, 2, 11);
        let rt = PipelineRuntime::new(model, 2, 1);
        let fused = rt
            .run_iteration(
                &svpp_schedule(2, 1, 2, 2, false),
                &batch,
                WgradMode::Immediate,
                None,
            )
            .unwrap();
        let split_sch = svpp_schedule(2, 1, 2, 2, true);
        let at_w = rt
            .run_iteration(&split_sch, &batch, WgradMode::AtWeightOp, None)
            .unwrap();
        let drained = rt
            .run_iteration(&split_sch, &batch, WgradMode::DrainOnWait, None)
            .unwrap();
        assert!(fused.grads.max_abs_diff(&at_w.grads) < 1e-4);
        assert!(fused.grads.max_abs_diff(&drained.grads) < 1e-4);
        assert!((fused.loss - drained.loss).abs() < 1e-6);
    }

    #[test]
    fn cap_between_svpp_and_dapple_separates_them() {
        // The paper's whole premise, on live tensors: pick a cap between
        // SVPP's peak and DAPPLE's peak — DAPPLE OOMs, SVPP fits.
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 49);
        let batch = make_batch(&cfg, 8, 23);
        let rt = PipelineRuntime::new(model, 2, 1);
        let dapple = Dapple.generate(&Dims::new(2, 8)).unwrap();
        let sv = svpp_schedule(2, 1, 4, 8, false);
        let free_d = rt
            .run_iteration(&dapple, &batch, WgradMode::Immediate, None)
            .unwrap();
        let free_s = rt
            .run_iteration(&sv, &batch, WgradMode::Immediate, None)
            .unwrap();
        let cap = (free_s.peak_bytes[0] + free_d.peak_bytes[0]) / 2;
        let capped_d = rt
            .run_iteration(&dapple, &batch, WgradMode::Immediate, Some(cap))
            .unwrap();
        let capped_s = rt
            .run_iteration(&sv, &batch, WgradMode::Immediate, Some(cap))
            .unwrap();
        assert!(capped_d.oom.is_some(), "DAPPLE should exceed the cap");
        assert!(capped_s.oom.is_none(), "SVPP should fit the cap");
    }

    #[test]
    fn svpp_peak_memory_below_dapple() {
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 45);
        let batch = make_batch(&cfg, 8, 13);
        let rt = PipelineRuntime::new(model, 2, 1);
        let dapple = Dapple.generate(&Dims::new(2, 8)).unwrap();
        let rd = rt
            .run_iteration(&dapple, &batch, WgradMode::Immediate, None)
            .unwrap();
        let sv = svpp_schedule(2, 1, 4, 8, false);
        let rs = rt
            .run_iteration(&sv, &batch, WgradMode::Immediate, None)
            .unwrap();
        assert!(
            rs.peak_bytes[0] < rd.peak_bytes[0],
            "svpp {} !< dapple {}",
            rs.peak_bytes[0],
            rd.peak_bytes[0]
        );
        // Loss identical across schedules (same math).
        assert!((rs.loss - rd.loss).abs() < 1e-4);
    }

    #[test]
    fn zbv_schedule_runs_on_the_runtime() {
        // The V-shaped placement routes chunk 1 back through the stages in
        // reverse — the loss lands on stage 0. The runtime resolves all of
        // that from the schedule meta, so ZBV trains out of the box and
        // matches the single-device reference.
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 50);
        let batch = make_batch(&cfg, 4, 29);
        let reference = batch_forward_backward(&model, &batch);
        let rt = PipelineRuntime::new(model, 2, 2);
        let sch = Zbv.generate(&Dims::new(2, 4).virtual_chunks(2)).unwrap();
        let stats = rt
            .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
            .unwrap();
        assert!((stats.loss - reference.loss).abs() < 1e-4);
        assert!(stats.grads.max_abs_diff(&reference.grads) < 1e-3);
    }

    #[test]
    fn hanayo_schedule_runs_on_the_runtime() {
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 51);
        let batch = make_batch(&cfg, 4, 31);
        let reference = batch_forward_backward(&model, &batch);
        let rt = PipelineRuntime::new(model, 2, 2);
        let sch = Hanayo.generate(&Dims::new(2, 4).virtual_chunks(2)).unwrap();
        let stats = rt
            .run_iteration(&sch, &batch, WgradMode::Immediate, None)
            .unwrap();
        assert!((stats.loss - reference.loss).abs() < 1e-4);
        assert!(stats.grads.max_abs_diff(&reference.grads) < 1e-3);
    }

    #[test]
    fn dualpipe_schedule_runs_on_the_runtime() {
        // Bidirectional placement: even micro-batches enter at stage 0,
        // odd ones at stage p−1, each direction through its own replica
        // of the model blocks. Loss and embedding work therefore happen
        // on *both* boundary stages; the merged totals must still match
        // the single-device reference.
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 54);
        let batch = make_batch(&cfg, 4, 33);
        let reference = batch_forward_backward(&model, &batch);
        let rt = PipelineRuntime::new(model, 2, 2);
        let sch = DualPipe::new()
            .generate(&Dims::new(2, 4).virtual_chunks(2).slices(2))
            .unwrap();
        let stats = rt
            .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
            .unwrap();
        assert!(
            (stats.loss - reference.loss).abs() < 1e-4,
            "loss {} vs reference {}",
            stats.loss,
            reference.loss
        );
        assert!(stats.grads.max_abs_diff(&reference.grads) < 1e-3);
        // Same schedule, same batch: bit-identical on a repeat run.
        let again = rt
            .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
            .unwrap();
        assert_eq!(stats.loss.to_bits(), again.loss.to_bits());
        assert_eq!(stats.grads.max_abs_diff(&again.grads), 0.0);
    }

    #[test]
    fn four_stage_dualpipe_matches_reference() {
        // Deeper bidirectional pipeline: 4 stages, 8 micro-batches, with
        // the middle stages pure pass-through for both directions.
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 55);
        let batch = make_batch(&cfg, 8, 35);
        let reference = batch_forward_backward(&model, &batch);
        let rt = PipelineRuntime::new(model, 4, 2);
        let sch = DualPipe::new()
            .generate(&Dims::new(4, 8).virtual_chunks(2))
            .unwrap();
        let stats = rt
            .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
            .unwrap();
        assert!((stats.loss - reference.loss).abs() < 1e-4);
        assert!(stats.grads.max_abs_diff(&reference.grads) < 1e-3);
    }

    #[test]
    fn blocks_schedule_runs_on_the_runtime() {
        // The controllable-memory family at its most frugal lifespan.
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 56);
        let batch = make_batch(&cfg, 4, 37);
        let reference = batch_forward_backward(&model, &batch);
        let rt = PipelineRuntime::new(model, 2, 1);
        let sch = ScheduleSpec {
            warmup: Some(0),
            ..ScheduleSpec::new(Method::Blocks, Dims::new(2, 4).slices(2))
        }
        .generate()
        .unwrap();
        let stats = rt
            .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
            .unwrap();
        assert!((stats.loss - reference.loss).abs() < 1e-4);
        assert!(stats.grads.max_abs_diff(&reference.grads) < 1e-3);
    }

    #[test]
    fn solver_schedule_runs_on_the_runtime() {
        // The order solver's output is MEPipe-shaped, so it must train
        // like any hand-written schedule of the same dims.
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 57);
        let batch = make_batch(&cfg, 4, 39);
        let reference = batch_forward_backward(&model, &batch);
        let rt = PipelineRuntime::new(model, 2, 1);
        let sch = Synth::new().generate(&Dims::new(2, 4).slices(2)).unwrap();
        let stats = rt
            .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
            .unwrap();
        assert!((stats.loss - reference.loss).abs() < 1e-4);
        assert!(stats.grads.max_abs_diff(&reference.grads) < 1e-3);
    }

    #[test]
    fn training_reduces_loss_like_reference() {
        let cfg = tiny_cfg();
        let mut rt = PipelineRuntime::new(ModelParams::init(cfg, 46), 2, 1);
        let mut ref_model = ModelParams::init(cfg, 46);
        let sch = svpp_schedule(2, 1, 2, 2, false);
        let mut first = None;
        let mut last = 0.0;
        for step in 0..6 {
            let batch = make_batch(&cfg, 2, 100 + step);
            let stats = rt
                .train_step(&sch, &batch, WgradMode::Immediate, 0.1)
                .unwrap();
            let r = batch_forward_backward(&ref_model, &batch);
            Sgd { lr: 0.1 }.step_model(&mut ref_model, &r.grads);
            assert!(
                (stats.loss - r.loss).abs() < 1e-3,
                "step {step}: pipeline {} vs reference {}",
                stats.loss,
                r.loss
            );
            if first.is_none() {
                first = Some(stats.loss);
            }
            last = stats.loss;
        }
        assert!(
            last < first.unwrap(),
            "loss did not decrease: {first:?} -> {last}"
        );
    }

    #[test]
    fn four_stage_svpp_with_kernel_pool_tracks_reference_loss() {
        // Stage-level threads (4) each nest a 2-worker kernel pool — the
        // composed parallelism must still reproduce the single-device
        // loss trajectory step for step.
        let cfg = tiny_cfg();
        let mut rt = PipelineRuntime::new(ModelParams::init(cfg, 52), 4, 1).with_kernel_workers(2);
        assert_eq!(rt.kernel_workers(), 2);
        let mut ref_model = ModelParams::init(cfg, 52);
        let sch = svpp_schedule(4, 1, 4, 4, true);
        for step in 0..3 {
            let batch = make_batch(&cfg, 4, 200 + step);
            let stats = rt
                .train_step(&sch, &batch, WgradMode::DrainOnWait, 0.1)
                .unwrap();
            let r = batch_forward_backward(&ref_model, &batch);
            Sgd { lr: 0.1 }.step_model(&mut ref_model, &r.grads);
            assert!(
                (stats.loss - r.loss).abs() < 1e-3,
                "step {step}: pipeline {} vs reference {}",
                stats.loss,
                r.loss
            );
        }
    }

    #[test]
    fn kernel_worker_count_does_not_change_results() {
        // The determinism contract end to end: the same iteration with 1
        // and 3 kernel workers per stage produces bitwise-equal gradients.
        let cfg = tiny_cfg();
        let batch = make_batch(&cfg, 2, 19);
        let sch = svpp_schedule(2, 1, 2, 2, false);
        let run = |workers: usize| {
            let rt =
                PipelineRuntime::new(ModelParams::init(cfg, 53), 2, 1).with_kernel_workers(workers);
            rt.run_iteration(&sch, &batch, WgradMode::Immediate, None)
                .unwrap()
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        assert!(a.grads.max_abs_diff(&b.grads) == 0.0);
    }

    #[test]
    fn data_parallel_matches_reference_batch() {
        // DP over 2 replicas on a 4-sample batch must equal the reference
        // batch gradient (each replica averages its shard of 2; DP halves
        // the replica sum — identical to the 1/4-scaled whole batch).
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 48);
        let batch = make_batch(&cfg, 4, 21);
        let reference = batch_forward_backward(&model, &batch);
        let rt = PipelineRuntime::new(model, 2, 1);
        // The schedule covers one replica's shard of 2 micro-batches.
        let sch = svpp_schedule(2, 1, 2, 2, false);
        let stats = rt
            .run_data_parallel(&sch, &batch, 2, WgradMode::Immediate)
            .unwrap();
        assert!((stats.loss - reference.loss).abs() < 1e-4);
        assert!(stats.grads.max_abs_diff(&reference.grads) < 1e-3);
    }

    #[test]
    fn drain_on_wait_actually_drains() {
        let cfg = tiny_cfg();
        let model = ModelParams::init(cfg, 47);
        let batch = make_batch(&cfg, 4, 17);
        let rt = PipelineRuntime::new(model, 2, 1);
        let sch = svpp_schedule(2, 1, 2, 4, true);
        let stats = rt
            .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
            .unwrap();
        let total: usize = stats.drained_wgrads.iter().sum();
        assert!(total > 0, "expected some drained weight GEMMs");
    }
}
