//! The list-order timing engine: the one execution rule every renderer,
//! solver, simulator query and fidelity check prices schedules with.
//!
//! Semantics: every worker executes its op list strictly in order; an op
//! starts once its producers have finished and any cross-stage tensor
//! has arrived. Two tensors crossing the same stage boundary in the same
//! direction serialise on that link (the fabric is full duplex, so the
//! two directions are independent) — this is what makes very fine slices
//! pay for their per-message latency on slow links. Two dynamic
//! behaviours sit on top:
//!
//! * with [`SimConfig::dynamic_wgrad`] enabled, weight-gradient ops are
//!   *not* executed at their list position — they enter a FIFO
//!   [`WgradQueue`] when their input-gradient op completes and are drained
//!   GEMM-by-GEMM whenever the worker would otherwise idle, plus a final
//!   drain after the list is exhausted (Section 5);
//! * with a [`SimConfig::memory_limit_bytes`], activations are charged at
//!   forward start and the engine force-drains deferred weight work to
//!   make room before declaring OOM.
//!
//! [`simulate`] runs whole schedules; [`Engine`] is the same loop one op
//! at a time, for order searches that build the lists as they go.
//!
//! The timeline it books is the one the runtime records: `mepipe-trace`
//! [`Span`]s in whole nanoseconds from iteration start, one tagged compute
//! span per op, one `WgradDrain` span per drain and a `RecvWait` span,
//! naming the stage it waited on, for whatever part of a wait no drain
//! filled. Every consumer of a measured trace — bubble attribution, the
//! Chrome writer, the fidelity report — reads a simulated one unchanged.

mod wgrad;

pub use wgrad::WgradQueue;

use mepipe_trace::{IterationTrace, Span, SpanKind, StageTrace, NO_TAG};

use crate::{
    deps::dependencies,
    ir::{Op, OpKind, Schedule, ScheduleMeta},
};

/// Everything the engine needs to price one schedule execution.
pub trait Cost {
    /// Duration of a forward / input-gradient / fused-backward op, or of
    /// a weight-gradient op run at its list position.
    fn duration(&self, stage: usize, op: Op) -> f64;

    /// Inter-stage transfer time for one unit's boundary tensor.
    fn transfer_time(&self, from_stage: usize, to_stage: usize) -> f64;

    /// Total duration of one unit's deferred weight-gradient work.
    fn wgrad_time(&self, stage: usize, op: Op) -> f64;

    /// Number of individually schedulable GEMMs inside one weight op.
    fn wgrad_units(&self) -> usize;

    /// Activation bytes retained per in-flight forward unit.
    fn activation_bytes(&self) -> f64;

    /// Extra bytes retained per unit whose weight work is deferred.
    fn deferred_bytes(&self) -> f64;

    /// End-of-iteration data-parallel synchronisation time.
    fn dp_sync_time(&self) -> f64 {
        0.0
    }

    /// End-of-iteration optimizer step time.
    fn optimizer_time(&self) -> f64 {
        0.0
    }
}

/// Uniform costs: every op of one kind takes the same time on every
/// stage. The setting of the paper's Table 3 analysis and figures, of the
/// solver's order pricing and of unit tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitCost {
    /// Forward duration.
    pub fwd: f64,
    /// Input-gradient (or fused-backward) duration.
    pub bwd: f64,
    /// Weight-gradient duration (whole op).
    pub wgrad: f64,
    /// Whether a fused backward also pays `wgrad`: `bwd + wgrad` when set
    /// (its physical cost), `bwd` when clear (one slot, as the paper's
    /// figures count it).
    pub fused_includes_wgrad: bool,
    /// Transfer time per hop.
    pub comm: f64,
    /// GEMMs per weight op.
    pub wgrad_units: usize,
    /// Bytes per in-flight forward unit.
    pub act_bytes: f64,
}

impl UnitCost {
    /// Forward = backward = weight = 1 and a fused backward one slot too —
    /// pure slot counting, as the paper's figures draw schedules.
    pub const fn ones() -> Self {
        Self {
            fwd: 1.0,
            bwd: 1.0,
            wgrad: 1.0,
            fused_includes_wgrad: false,
            comm: 0.0,
            wgrad_units: 1,
            act_bytes: 1.0,
        }
    }

    /// The conventional 1F/2B weighting: backwards take twice as long and
    /// weight gradients are free.
    pub const fn one_two() -> Self {
        Self {
            bwd: 2.0,
            wgrad: 0.0,
            ..Self::ones()
        }
    }
}

impl Default for UnitCost {
    /// Unit forward, input-gradient and weight-gradient ops, with a fused
    /// backward paying both of its halves.
    fn default() -> Self {
        Self {
            fused_includes_wgrad: true,
            ..Self::ones()
        }
    }
}

impl Cost for UnitCost {
    fn duration(&self, _stage: usize, op: Op) -> f64 {
        match op.kind {
            OpKind::Forward => self.fwd,
            OpKind::BackwardInput => self.bwd,
            OpKind::Backward if self.fused_includes_wgrad => self.bwd + self.wgrad,
            OpKind::Backward => self.bwd,
            OpKind::BackwardWeight => self.wgrad,
        }
    }

    fn transfer_time(&self, _from: usize, _to: usize) -> f64 {
        self.comm
    }

    fn wgrad_time(&self, _stage: usize, _op: Op) -> f64 {
        self.wgrad
    }

    fn wgrad_units(&self) -> usize {
        self.wgrad_units
    }

    fn activation_bytes(&self) -> f64 {
        self.act_bytes
    }

    fn deferred_bytes(&self) -> f64 {
        self.act_bytes * 0.5
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimConfig {
    /// Defer weight-gradient ops into an opportunistic queue instead of
    /// running them at their list positions.
    pub dynamic_wgrad: bool,
    /// Per-worker activation-memory cap in bytes (`None` = unbounded).
    pub memory_limit_bytes: Option<f64>,
}

/// Result of one simulated iteration.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The booked timeline: one replica-0 [`StageTrace`] per worker, its
    /// spans time-ordered and disjoint (see the module docs).
    pub trace: IterationTrace,
    /// Completion time of the last compute on any worker (excludes DP sync
    /// and optimizer).
    pub makespan: f64,
    /// Full iteration time: makespan + DP sync + optimizer.
    pub iteration_time: f64,
    /// Busy compute time per worker (including drained weight work).
    pub busy: Vec<f64>,
    /// Peak activation bytes per worker (including deferred-W retention).
    pub peak_activation_bytes: Vec<f64>,
    /// Lowest stage that exceeded the memory cap even after force-drains,
    /// with the bytes it needed the first time it did.
    pub oom: Option<(usize, f64)>,
}

impl SimResult {
    /// Mean idle fraction across workers over the makespan.
    pub fn bubble_ratio(&self) -> f64 {
        if self.makespan <= 0.0 || self.busy.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.busy.iter().map(|b| 1.0 - b / self.makespan).sum();
        (sum / self.busy.len() as f64).max(0.0)
    }

    /// Compresses the result to the scalar summary the grid search keeps:
    /// timings, the mean bubble ratio, the worst worker's activation peak
    /// and the OOM verdict — everything except the trace.
    pub fn summary(&self) -> SimSummary {
        SimSummary {
            iteration_time: self.iteration_time,
            makespan: self.makespan,
            bubble_ratio: self.bubble_ratio(),
            peak_activation_bytes: self
                .peak_activation_bytes
                .iter()
                .copied()
                .fold(0.0, f64::max),
            oom: self.oom,
        }
    }
}

/// Scalar summary of a [`SimResult`] — what search memoization retains
/// per evaluated candidate, a few dozen bytes instead of the full
/// per-worker trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSummary {
    /// Full iteration time (makespan + DP sync + optimizer).
    pub iteration_time: f64,
    /// Completion time of the last compute on any worker.
    pub makespan: f64,
    /// Mean idle fraction across workers.
    pub bubble_ratio: f64,
    /// Peak activation bytes on the most loaded worker.
    pub peak_activation_bytes: f64,
    /// OOM verdict: lowest stage over the cap and the bytes it needed.
    pub oom: Option<(usize, f64)>,
}

#[derive(Clone)]
struct WorkerState {
    free: f64,
    busy: f64,
    act_bytes: f64,
    peak_bytes: f64,
    /// Bytes needed the first time this worker exceeded the cap.
    oom: Option<f64>,
    queue: WgradQueue,
    spans: Vec<Span>,
}

/// Seconds from iteration start in whole nanoseconds, the resolution of
/// every span the engine books.
fn ns(t: f64) -> u64 {
    (t * 1e9).round_ties_even() as u64
}

/// An untagged span over `[start, end)` seconds.
fn span(kind: SpanKind, start: f64, end: f64) -> Span {
    Span {
        kind,
        mb: NO_TAG,
        slice: NO_TAG,
        chunk: NO_TAG,
        peer: NO_TAG,
        start_ns: ns(start),
        end_ns: ns(end),
    }
}

/// The span that books `op` over `[start, end)` seconds.
fn op_span(op: Op, start: f64, end: f64) -> Span {
    let kind = match op.kind {
        OpKind::Forward => SpanKind::Forward,
        OpKind::Backward => SpanKind::Backward,
        OpKind::BackwardInput => SpanKind::BackwardInput,
        OpKind::BackwardWeight => SpanKind::BackwardWeight,
    };
    Span {
        mb: op.micro_batch as u32,
        slice: op.slice as u32,
        chunk: op.chunk as u32,
        ..span(kind, start, end)
    }
}

/// The schedule op a span runs, if it runs exactly one: drains and waits
/// run none.
pub fn span_op(span: &Span) -> Option<Op> {
    let kind = match span.kind {
        SpanKind::Forward => OpKind::Forward,
        SpanKind::Backward => OpKind::Backward,
        SpanKind::BackwardInput => OpKind::BackwardInput,
        SpanKind::BackwardWeight => OpKind::BackwardWeight,
        SpanKind::WgradDrain | SpanKind::Send | SpanKind::RecvWait => return None,
    };
    Some(Op::new(
        kind,
        span.mb as usize,
        span.slice as usize,
        span.chunk as usize,
    ))
}

impl WorkerState {
    fn current_bytes(&self) -> f64 {
        self.act_bytes + self.queue.retained_bytes()
    }

    fn note_peak(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.current_bytes());
    }

    /// Books `spent` seconds of drained weight GEMMs from `free` on.
    fn drain(&mut self, spent: f64) {
        if spent > 0.0 {
            self.spans
                .push(span(SpanKind::WgradDrain, self.free, self.free + spent));
            self.busy += spent;
            self.free += spent;
        }
    }
}

/// The timing loop one op at a time.
///
/// An op's start depends only on its own worker's earlier ops and on its
/// producers' finish times: link occupancy is keyed by the consuming
/// worker, and the weight-gradient queue and memory admission are
/// per-worker state. So the order in which workers are advanced never
/// changes a result, and a caller may advance each worker for as long as
/// its next op's producers have finished.
#[derive(Clone)]
pub struct Engine<'a> {
    meta: &'a ScheduleMeta,
    cost: &'a dyn Cost,
    config: SimConfig,
    workers: Vec<WorkerState>,
    /// Finish time of every op that has run, at [`slot`]; NaN until then.
    finish: Vec<f64>,
    /// When the directed link `from → to` is next free, at `from·p + to`.
    link_free: Vec<f64>,
}

/// Dense index of `op` on `stage`. A schedule holds either fused or
/// input-gradient backwards (dependency derivation rejects the other
/// kind), so the two share a slot.
fn slot(meta: &ScheduleMeta, stage: usize, op: Op) -> usize {
    let kind = match op.kind {
        OpKind::Forward => 0,
        OpKind::Backward | OpKind::BackwardInput => 1,
        OpKind::BackwardWeight => 2,
    };
    let unit = (op.micro_batch * meta.virtual_chunks + op.chunk) * meta.slices + op.slice;
    (stage * 3 + kind) * slots_per_kind(meta) + unit
}

/// Every `(micro-batch, chunk, slice)` of the shape, whether or not the
/// placement runs it on a given stage.
fn slots_per_kind(meta: &ScheduleMeta) -> usize {
    meta.micro_batches * meta.virtual_chunks * meta.slices
}

impl<'a> Engine<'a> {
    /// An engine at time zero with no op run.
    pub fn new(meta: &'a ScheduleMeta, cost: &'a dyn Cost, config: SimConfig) -> Self {
        let p = meta.stages;
        // Room for every op plus one wait or drain before each, and the
        // final drain.
        let ops = meta.units_per_worker() * if meta.split_backward { 3 } else { 2 };
        let worker = || WorkerState {
            free: 0.0,
            busy: 0.0,
            act_bytes: 0.0,
            peak_bytes: 0.0,
            oom: None,
            queue: WgradQueue::new(),
            spans: Vec::with_capacity(2 * ops + 1),
        };
        Self {
            meta,
            cost,
            config,
            workers: (0..p).map(|_| worker()).collect(),
            finish: vec![f64::NAN; p * 3 * slots_per_kind(meta)],
            link_free: vec![0.0; p * p],
        }
    }

    /// When `op` finished on `stage`, if it has run.
    pub fn finish_time(&self, stage: usize, op: Op) -> Option<f64> {
        let t = self.finish[slot(self.meta, stage, op)];
        (!t.is_nan()).then_some(t)
    }

    /// When worker `stage` finishes the last op it has run.
    pub fn free_at(&self, stage: usize) -> f64 {
        self.workers[stage].free
    }

    /// The spans worker `stage` has booked so far, time-ordered.
    pub fn spans(&self, stage: usize) -> &[Span] {
        &self.workers[stage].spans
    }

    /// Runs `op` next on worker `stage`. Returns `false`, changing
    /// nothing, while one of its producers has not finished. A deferred
    /// weight-gradient op (dynamic W) runs through the queue its
    /// input-gradient op filled, so it is accepted as a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `stage` or the op's coordinates are outside the engine's
    /// shape, or if the op's backward kind does not match the shape's.
    pub fn try_run(&mut self, stage: usize, op: Op) -> bool {
        let (meta, cost, config) = (self.meta, self.cost, self.config);
        if config.dynamic_wgrad && op.kind == OpKind::BackwardWeight {
            return true;
        }
        let w = stage;
        let p = meta.stages;
        let deps = dependencies(meta, w, op);
        let mut start = self.workers[w].free;
        // The producer whose tensor arrives last, when it arrives after
        // the worker is free.
        let mut waited_on = None;
        for d in &deps {
            let t = self.finish[slot(meta, d.stage, d.op)];
            if t.is_nan() {
                return false;
            }
            let arrival = if d.cross_stage {
                t.max(self.link_free[d.stage * p + w]) + cost.transfer_time(d.stage, w)
            } else {
                t
            };
            if arrival > start {
                start = arrival;
                waited_on = Some(d.stage);
            }
        }
        let st = &mut self.workers[w];

        // Fill the wait gap with queued weight-gradient GEMMs.
        if config.dynamic_wgrad && start > st.free {
            let (spent, _done) = st.queue.drain_for(start - st.free);
            st.drain(spent);
        }
        // What the drain left of the wait, the worker spends blocked.
        if let Some(peer) = waited_on.filter(|_| start > st.free) {
            st.spans.push(Span {
                peer: peer as u32,
                ..span(SpanKind::RecvWait, st.free, start)
            });
        }

        // Memory admission for forwards.
        if op.kind == OpKind::Forward {
            let need = cost.activation_bytes();
            if let Some(limit) = config.memory_limit_bytes {
                let over = st.current_bytes() + need - limit;
                if over > 0.0 {
                    let (spent, _done) = st.queue.drain_for_bytes(over);
                    if spent > 0.0 {
                        st.free = st.free.max(start);
                        st.drain(spent);
                        start = start.max(st.free);
                    }
                    if st.current_bytes() + need > limit && st.oom.is_none() {
                        st.oom = Some(st.current_bytes() + need);
                    }
                }
            }
            st.act_bytes += need;
            st.note_peak();
        }

        start = start.max(st.free);
        let dur = cost.duration(w, op);
        let end = start + dur;
        st.spans.push(op_span(op, start, end));
        st.busy += dur;
        st.free = end;

        // Memory release / deferral at backward completion.
        match op.kind {
            OpKind::Backward | OpKind::BackwardWeight => {
                st.act_bytes -= cost.activation_bytes();
            }
            OpKind::BackwardInput if config.dynamic_wgrad => {
                // Activation + gradient retained until the W drain.
                st.act_bytes -= cost.activation_bytes();
                let retained = cost.activation_bytes() + cost.deferred_bytes();
                let units = cost.wgrad_units();
                let w_time = cost.wgrad_time(w, op);
                st.queue.enqueue(
                    op.with_kind(OpKind::BackwardWeight),
                    units,
                    w_time / units as f64,
                    retained,
                );
                st.note_peak();
                // Deferred retention must also respect the cap — this is
                // the Section 5 observation that memory-pressed early
                // stages have to run their weight gradients eagerly.
                if let Some(limit) = config.memory_limit_bytes {
                    let over = st.current_bytes() - limit;
                    if over > 0.0 {
                        let (spent, _done) = st.queue.drain_for_bytes(over);
                        st.drain(spent);
                    }
                }
            }
            // Static split: the W op follows in the list; keep the
            // activation charged until it completes.
            OpKind::BackwardInput | OpKind::Forward => {}
        }

        self.finish[slot(meta, w, op)] = end;
        // Commit the link occupancy of every transfer this op consumed.
        for d in deps.iter().filter(|d| d.cross_stage) {
            let t = self.finish[slot(meta, d.stage, d.op)];
            let link = &mut self.link_free[d.stage * p + w];
            *link = t.max(*link) + cost.transfer_time(d.stage, w);
        }
        true
    }

    /// Drains every worker's remaining deferred weight work and closes
    /// the iteration.
    pub fn finish(mut self) -> SimResult {
        for st in &mut self.workers {
            let (spent, _done) = st.queue.drain_all();
            st.drain(spent);
        }
        let makespan = self.workers.iter().map(|s| s.free).fold(0.0, f64::max);
        SimResult {
            iteration_time: makespan + self.cost.dp_sync_time() + self.cost.optimizer_time(),
            makespan,
            busy: self.workers.iter().map(|s| s.busy).collect(),
            peak_activation_bytes: self.workers.iter().map(|s| s.peak_bytes).collect(),
            oom: self
                .workers
                .iter()
                .enumerate()
                .find_map(|(w, s)| s.oom.map(|b| (w, b))),
            trace: IterationTrace {
                stages: self
                    .workers
                    .into_iter()
                    .enumerate()
                    .map(|(stage, s)| StageTrace {
                        stage,
                        replica: 0,
                        epoch_ns: 0,
                        spans: s.spans,
                        dropped: 0,
                    })
                    .collect(),
            },
        }
    }
}

/// Simulates one iteration of `schedule` under `cost`.
///
/// Returns `Err` only on a malformed (deadlocking) schedule; OOM is
/// reported in-band via [`SimResult::oom`].
///
/// # Examples
///
/// ```
/// use mepipe_schedule::exec::{simulate, SimConfig, UnitCost};
/// use mepipe_schedule::generator::{Dapple, Dims, ScheduleGenerator};
///
/// let schedule = Dapple.generate(&Dims::new(4, 8)).unwrap();
/// let result = simulate(&schedule, &UnitCost::default(), &SimConfig::default()).unwrap();
/// // 1F1B at p=4, n=8 with balanced unit costs: bubble (p-1)/(p-1+n).
/// assert!((result.bubble_ratio() - 3.0 / 11.0).abs() < 1e-9);
/// ```
pub fn simulate(
    schedule: &Schedule,
    cost: &dyn Cost,
    config: &SimConfig,
) -> Result<SimResult, String> {
    let meta = &schedule.meta;
    if schedule.num_workers() != meta.stages {
        return Err(format!(
            "schedule has {} worker lists but meta declares {} stages",
            schedule.num_workers(),
            meta.stages
        ));
    }
    let mut engine = Engine::new(meta, cost, *config);
    let mut next = vec![0usize; meta.stages];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (w, ops) in schedule.workers.iter().enumerate() {
            while let Some(&op) = ops.get(next[w]) {
                if !engine.try_run(w, op) {
                    break;
                }
                next[w] += 1;
                progressed = true;
            }
        }
    }
    let mut pending = schedule.workers.iter().zip(&next).enumerate();
    if let Some((w, (ops, &i))) = pending.find(|(_, (ops, &i))| i < ops.len()) {
        return Err(format!("simulation deadlock at worker {w}: {}", ops[i]));
    }
    Ok(engine.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualpipe::DualPipe;
    use crate::generator::{Dapple, Dims, GPipe, ScheduleGenerator, Zb};
    use crate::ir::{ChunkPlacement, ScheduleMeta};

    fn two_stage_two_mb() -> Schedule {
        let meta = ScheduleMeta {
            name: "t".into(),
            stages: 2,
            virtual_chunks: 1,
            slices: 1,
            micro_batches: 2,
            split_backward: false,
            placement: ChunkPlacement::Interleaved,
        };
        let f = |mb| Op::new(OpKind::Forward, mb, 0, 0);
        let b = |mb| Op::new(OpKind::Backward, mb, 0, 0);
        Schedule {
            meta,
            workers: vec![vec![f(0), f(1), b(0), b(1)], vec![f(0), b(0), f(1), b(1)]],
        }
    }

    /// Start/end of one op on one stage, nanoseconds.
    fn time_of(r: &SimResult, stage: usize, op: Op) -> Option<(u64, u64)> {
        r.trace.stages[stage]
            .spans
            .iter()
            .find(|s| span_op(s) == Some(op))
            .map(|s| (s.start_ns, s.end_ns))
    }

    fn static_run(s: &Schedule, cost: &dyn Cost) -> Result<SimResult, String> {
        simulate(s, cost, &SimConfig::default())
    }

    #[test]
    fn gpipe_like_timing_is_exact() {
        // Stage0: F0@0-1 F1@1-2; Stage1: F0@1-2 B0@2-3; Stage0: B0@3-4;
        // Stage1: F1@2-3? F1 needs stage0 F1 done @2 and stage1 free @3
        // (after B0) -> F1@3-4, B1@4-5; stage0 B1@5-6. Makespan 6.
        let s = two_stage_two_mb();
        let t = static_run(&s, &UnitCost::ones()).unwrap();
        assert_eq!(t.makespan, 6.0);
        assert_eq!(
            time_of(&t, 0, Op::new(OpKind::Backward, 1, 0, 0)),
            Some((5_000_000_000, 6_000_000_000))
        );
        assert_eq!(t.busy, vec![4.0, 4.0]);
        assert!((t.bubble_ratio() - (1.0 - 4.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn transfers_delay_downstream() {
        let with_comm = UnitCost {
            comm: 0.5,
            ..UnitCost::ones()
        };
        let s = two_stage_two_mb();
        let t = static_run(&s, &with_comm).unwrap();
        // Every cross-stage hop now adds 0.5.
        assert!(t.makespan > 6.0);
        let (start, _) = time_of(&t, 1, Op::new(OpKind::Forward, 0, 0, 0)).unwrap();
        assert_eq!(start, 1_500_000_000);
    }

    #[test]
    fn deadlock_is_reported() {
        let mut s = two_stage_two_mb();
        s.workers[1].swap(0, 1); // B0 before F0 on the last stage.
        let err = static_run(&s, &UnitCost::ones()).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn uniform_cost_fused_backward_includes_weight() {
        let c = UnitCost {
            bwd: 2.0,
            wgrad: 1.5,
            ..Default::default()
        };
        let fused = Op::new(OpKind::Backward, 0, 0, 0);
        assert_eq!(c.duration(0, fused), 3.5);
        // Slot counting prices the fused backward as one slot.
        assert_eq!(UnitCost::ones().duration(0, fused), 1.0);
    }

    #[test]
    fn peak_memory_counts_in_flight_units() {
        let sch = GPipe.generate(&Dims::new(4, 8)).unwrap();
        let r = static_run(&sch, &UnitCost::default()).unwrap();
        // GPipe stage 0 holds all 8 micro-batches.
        assert_eq!(r.peak_activation_bytes[0], 8.0);
    }

    #[test]
    fn fine_grained_dynamic_wgrad_beats_static_with_comm_waits() {
        // The Section 5 claim: with communication waits in the pipeline,
        // draining weight GEMMs into the gaps shortens the iteration. At
        // GEMM granularity (units = 8) the gaps are actually fillable;
        // whole-op deferral (units = 1) can even lose to the static layout
        // because a 0.4-long gap cannot hold a 1.0-long W op.
        let sch = Zb.generate(&Dims::new(4, 8)).unwrap();
        let cost = UnitCost {
            comm: 0.4,
            wgrad_units: 8,
            ..Default::default()
        };
        let stat = static_run(&sch, &cost).unwrap();
        let dynr = simulate(
            &sch,
            &cost,
            &SimConfig {
                dynamic_wgrad: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            dynr.makespan < stat.makespan + 1e-9,
            "dynamic {} vs static {}",
            dynr.makespan,
            stat.makespan
        );
    }

    #[test]
    fn memory_limit_triggers_forced_drain_or_oom() {
        let sch = GPipe.generate(&Dims::new(4, 8)).unwrap();
        let conf = SimConfig {
            memory_limit_bytes: Some(4.0),
            ..Default::default()
        };
        let r = simulate(&sch, &UnitCost::default(), &conf).unwrap();
        // GPipe cannot shed activations; it must OOM at the cap.
        let (worker, bytes) = r.oom.expect("gpipe at cap 4 must OOM");
        assert_eq!(worker, 0);
        assert!(bytes > 4.0);
    }

    #[test]
    fn link_occupancy_serialises_back_to_back_transfers() {
        // Two micro-batches on a 2-stage pipeline with transfers slower
        // than compute: the second forward's tensor must queue behind the
        // first on the boundary link.
        let sch = Dapple.generate(&Dims::new(2, 2)).unwrap();
        let slow = UnitCost {
            comm: 3.0,
            ..Default::default()
        };
        let r = static_run(&sch, &slow).unwrap();
        // Stage 0: F0@0-1, F1@1-2. Transfer of F0 occupies [1,4]; F1's
        // transfer queues [4,7], so stage 1 starts F1 no earlier than 7.
        let (f1_start, _) =
            time_of(&r, 1, Op::new(OpKind::Forward, 1, 0, 0)).expect("F1 on stage 1");
        assert!(
            f1_start >= 7_000_000_000,
            "F1 started at {f1_start}, link not serialised"
        );
    }

    #[test]
    fn iteration_time_includes_sync_and_optimizer() {
        struct Synced(UnitCost);
        impl Cost for Synced {
            fn duration(&self, s: usize, o: Op) -> f64 {
                self.0.duration(s, o)
            }
            fn transfer_time(&self, a: usize, b: usize) -> f64 {
                self.0.transfer_time(a, b)
            }
            fn wgrad_time(&self, s: usize, o: Op) -> f64 {
                self.0.wgrad_time(s, o)
            }
            fn wgrad_units(&self) -> usize {
                self.0.wgrad_units()
            }
            fn activation_bytes(&self) -> f64 {
                self.0.activation_bytes()
            }
            fn deferred_bytes(&self) -> f64 {
                self.0.deferred_bytes()
            }
            fn dp_sync_time(&self) -> f64 {
                2.5
            }
            fn optimizer_time(&self) -> f64 {
                1.5
            }
        }
        let sch = Dapple.generate(&Dims::new(2, 2)).unwrap();
        let cost = Synced(UnitCost::default());
        let r = static_run(&sch, &cost).unwrap();
        assert_eq!(r.iteration_time, r.makespan + 2.5 + 1.5);
        assert_eq!(
            r.makespan,
            static_run(&sch, &UnitCost::default()).unwrap().makespan
        );
    }

    #[test]
    fn oom_names_the_lowest_stage_over_the_cap() {
        // DualPipe's odd micro-batches enter at the last stage, so stage 1
        // overflows a 2-unit cap before stage 0 does in time; the verdict
        // still names the lowest stage over the cap, with the bytes it
        // needed the first time.
        let sch = DualPipe::new()
            .generate(&Dims::new(4, 4).virtual_chunks(2))
            .unwrap();
        let cost = UnitCost {
            comm: 0.3,
            ..Default::default()
        };
        let conf = SimConfig {
            memory_limit_bytes: Some(2.0),
            ..Default::default()
        };
        let r = simulate(&sch, &cost, &conf).unwrap();
        assert_eq!(r.oom, Some((0, 3.0)));
    }

    #[test]
    fn engine_runs_ops_only_after_their_producers() {
        let s = two_stage_two_mb();
        let cost = UnitCost::ones();
        let mut e = Engine::new(&s.meta, &cost, SimConfig::default());
        let f0 = Op::new(OpKind::Forward, 0, 0, 0);
        // Stage 1's F0 needs stage 0's F0 first.
        assert!(!e.try_run(1, f0));
        assert_eq!(e.finish_time(1, f0), None);
        assert!(e.try_run(0, f0));
        assert!(e.try_run(1, f0));
        assert_eq!(e.finish_time(1, f0), Some(2.0));
        assert_eq!(e.free_at(1), 2.0);
        // Stage 1 waited on stage 0's tensor before its F0.
        let booked: Vec<_> = e.spans(1).iter().map(|s| (s.kind, s.peer)).collect();
        assert_eq!(
            booked,
            vec![(SpanKind::RecvWait, 0), (SpanKind::Forward, NO_TAG)]
        );
    }
}
