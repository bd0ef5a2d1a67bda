//! OptPipe-style per-worker op-order synthesis.
//!
//! The hand-written zoo (and SVPP's greedy generator) fixes each worker's
//! op order with a heuristic: deepest-position-first with strict 1F1B
//! alternation. OptPipe shows those orders are just one point of a search
//! space — under a concrete cost model, *other* per-worker orders have
//! strictly less bubble time, especially where the forward/backward cost
//! ratio departs from the 1:2 the heuristics were tuned for.
//!
//! [`Synth`] searches that space directly in the schedule IR:
//!
//! 1. **Seeds** — the hot-swap-shaped MEPipe variants (the warmup sweep)
//!    are priced exactly with list-order execution
//!    ([`mepipe_schedule::exec::makespan`]); the fastest memory-feasible
//!    one becomes the incumbent, so the solver is never worse than the
//!    best hand-written template of the same shape. The widest seed that
//!    fits the memory cap is priced first, and a seed whose in-flight
//!    floor ([`crate::analytic::inflight_floor`]) already exceeds it is
//!    ruled out without being generated.
//! 2. **Beam search over orders** — a tick-synchronous constructive
//!    search branches on the one genuine scheduling decision a worker
//!    faces (run the ready forward or the ready backward), times every
//!    placed op on the same engine ([`mepipe_schedule::exec::Engine`]),
//!    keeps the `BEAM` cheapest partial states, and prunes with a *sound*
//!    bound: a partial state cannot finish before `max_w(free_w +
//!    remaining busy work of w)`, nor before the closed-form analytic floor
//!    ([`crate::analytic::compute_floor_seconds`] — "Bubbles,
//!    communication stalls and memory-induced drains only push the
//!    simulated time above this floor"). Each tick's children are ranked
//!    before any is built: the parent's engine previews every worker's
//!    move ([`mepipe_schedule::exec::Engine::preview`]), which gives each
//!    child's bound exactly, and only the children the beam keeps are
//!    built, each parent moving into its last one.
//!
//! Peak in-flight units are gated against a memory cap during
//! construction (the same admission/reservation bookkeeping as the greedy
//! generator), so every emitted order respects the budget by
//! construction. The output keeps MEPipe's shape (interleaved placement,
//! split backward, same `p/v/n`), which makes it eligible for the
//! `retune_mepipe` hot-swap path.

use std::collections::VecDeque;
use std::rc::Rc;

use mepipe_schedule::{
    exec::{makespan, Engine, SimConfig, UnitCost},
    generate::{cap_floor, default_caps, greedy_generate, pick, shallow_chunk, ProducerCounts},
    generator::{Dims, ScheduleError, ScheduleGenerator},
    ir::{ChunkPlacement, Op, OpKind, Schedule, ScheduleMeta},
    validate,
};

use crate::analytic::{compute_floor_seconds, inflight_floor, AnalysisParams, FloorInputs};
use crate::svpp::SvppConfig;

/// The solver's order pricing: the conventional 1F/2B weighting with unit
/// weight gradients and free transfers — deterministic,
/// machine-independent costs every process of a launch regenerates
/// identically from CLI flags. Only ratios matter for the order search.
const COSTS: UnitCost = UnitCost {
    bwd: 2.0,
    ..UnitCost::ones()
};
/// Beam width of the order search.
const BEAM: usize = 6;
/// Hard budget on expanded search nodes; the search stops (keeping the
/// best complete order found so far) when it is exhausted. Keeps a grid
/// point well under the check.sh smoke cap.
const NODE_BUDGET: usize = 20_000;

/// Solver inputs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SolverConfig {
    /// Pricing model for orders.
    costs: UnitCost,
    /// Per-worker in-flight unit cap (activation-memory gate). `None`
    /// leaves memory unconstrained.
    cap: Option<usize>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            costs: COSTS,
            cap: None,
        }
    }
}

/// What the solver did and how good the result is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverStats {
    /// Warmup-sweep seeds considered: generated, or ruled out by their
    /// in-flight floor without being generated.
    pub seeds_tried: usize,
    /// Beam states expanded.
    pub nodes_expanded: usize,
    /// Children discarded by the lower bound.
    pub nodes_pruned: usize,
    /// Makespan of the best seed (the hand-written incumbent).
    pub seed_makespan: f64,
    /// Makespan of the returned schedule.
    pub makespan: f64,
    /// The analytic floor no schedule of this shape can beat.
    pub floor: f64,
    /// Whether the order search improved on the best seed.
    pub improved: bool,
}

/// A synthesized schedule plus provenance.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The winning schedule (MEPipe-shaped: interleaved, split backward).
    pub schedule: Schedule,
    /// Warmup cap of the winning seed (the order search keeps its
    /// admission budget).
    pub warmup: usize,
    /// Search statistics.
    pub stats: SolverStats,
}

/// Ops-per-pipeline threshold above which the beam phase is skipped and
/// only the seed sweep runs — keeps worst-case grid points bounded.
const BEAM_OPS_LIMIT: usize = 6_000;
/// An order must beat the incumbent by more than this to count (guards
/// against floating-point noise reordering equal schedules).
const IMPROVE_MARGIN: f64 = 1e-9;

/// Synthesizes a per-worker op order for MEPipe-shaped dims under `cfg`.
pub(crate) fn synthesize(dims: &Dims, cfg: &SolverConfig) -> Result<Synthesis, ScheduleError> {
    let meta = ScheduleMeta {
        name: "Synth".into(),
        stages: dims.p,
        virtual_chunks: dims.v,
        slices: dims.s,
        micro_batches: dims.n,
        split_backward: true,
        placement: ChunkPlacement::Interleaved,
    };
    meta.check_shape().map_err(ScheduleError::InvalidShape)?;
    let base = SvppConfig::from_dims(dims);
    let floor = {
        let fwd = vec![cfg.costs.fwd; dims.s];
        let bwd = vec![cfg.costs.bwd; dims.s];
        compute_floor_seconds(
            AnalysisParams {
                p: dims.p,
                v: dims.v,
                s: dims.s,
                n: dims.n,
            },
            FloorInputs {
                forward: &fwd,
                backward_input: &bwd,
                wgrad: cfg.costs.wgrad,
                overhead: 0.0,
            },
        )
    };

    // Phase 1: warmup sweep over the hot-swap-shaped greedy variants:
    // drop the memory-infeasible ones, keep the fastest (the earliest on
    // ties). A seed holds at most its default caps in flight, the widest
    // at stage 0, so the widest warmup within the memory cap fits by
    // construction; it is priced first. A seed that must fit the cap holds
    // at most `min(caps[w], cap)`, and one whose in-flight floor under
    // those caps exceeds the first-priced makespan cannot win, so it is
    // ruled out without being generated. Skipping it leaves the winner
    // unchanged because seed makespans that differ do so by more than
    // `IMPROVE_MARGIN` (they are integers under `COSTS`).
    let (lo, hi) = (base.min_warmup(), base.max_warmup());
    let widest = cfg.cap.map_or(hi, |c| c.clamp(lo, hi));
    let mut first = Some(seed(&meta, widest, cfg)?);
    let incumbent = match &first {
        Some(Seed::Priced(_, t)) => *t,
        _ => f64::INFINITY,
    };
    let mut seeds_tried = 0usize;
    let mut best: Option<(Schedule, usize, f64)> = None;
    for f in lo..=hi {
        let outcome = if f == widest {
            first.take().expect("the widest warmup is swept once")
        } else {
            let caps: Vec<usize> = default_caps(&meta, f)
                .into_iter()
                .map(|c| cfg.cap.map_or(c, |cap| c.min(cap)))
                .collect();
            if inflight_floor(&meta, &caps, &cfg.costs) > incumbent + IMPROVE_MARGIN {
                Seed::Dropped
            } else {
                seed(&meta, f, cfg)?
            }
        };
        match outcome {
            Seed::Failed => {}
            Seed::Dropped => seeds_tried += 1,
            Seed::Priced(sched, makespan) => {
                seeds_tried += 1;
                if best
                    .as_ref()
                    .is_none_or(|&(_, _, t)| makespan < t - IMPROVE_MARGIN)
                {
                    best = Some((sched, f, makespan));
                }
            }
        }
    }
    let (seed_schedule, warmup, seed_makespan) =
        best.ok_or_else(|| ScheduleError::Unsupported {
            method: "Synth",
            reason: format!(
                "no memory-feasible seed: cap {:?} below the floor {}",
                cfg.cap,
                cap_floor(&meta)
            ),
        })?;

    // Phase 2: beam search over per-worker orders, seeded budget-wise by
    // the winning warmup, pruned against the incumbent and the floor.
    let mut stats = SolverStats {
        seeds_tried,
        nodes_expanded: 0,
        nodes_pruned: 0,
        seed_makespan,
        makespan: seed_makespan,
        floor,
        improved: false,
    };
    let mut winner = seed_schedule;
    let total_ops = 3 * meta.units_per_worker() * meta.stages;
    if total_ops <= BEAM_OPS_LIMIT && seed_makespan > floor + IMPROVE_MARGIN {
        let caps = match cfg.cap {
            // The cap is per-worker; the sloped default caps of the seed
            // warmup stay as the admission policy, clamped to the cap.
            Some(c) => default_caps(&meta, warmup)
                .into_iter()
                .map(|x| x.min(c.max(cap_floor(&meta))))
                .collect(),
            None => default_caps(&meta, warmup),
        };
        if let Some((sched, makespan)) =
            beam_search(&meta, &caps, &cfg.costs, seed_makespan, &mut stats)
        {
            if makespan < seed_makespan - IMPROVE_MARGIN {
                stats.makespan = makespan;
                stats.improved = true;
                winner = sched;
            }
        }
    }
    Ok(Synthesis {
        schedule: winner,
        warmup,
        stats,
    })
}

/// What one warmup of the seed sweep came to.
enum Seed {
    /// Generation failed; the warmup does not count as tried.
    Failed,
    /// Ruled out by its in-flight floor, or over the memory cap.
    Dropped,
    /// Generated within the cap, with its makespan.
    Priced(Schedule, f64),
}

/// Generates and prices the seed of warmup `f`.
fn seed(meta: &ScheduleMeta, f: usize, cfg: &SolverConfig) -> Result<Seed, ScheduleError> {
    let Ok(sched) = greedy_generate(meta, &default_caps(meta, f)) else {
        return Ok(Seed::Failed);
    };
    if let Some(cap) = cfg.cap {
        let peak = validate::peak_in_flight(&sched)
            .into_iter()
            .max()
            .unwrap_or(0);
        if peak > cap {
            return Ok(Seed::Dropped);
        }
    }
    let makespan =
        makespan(&sched, &cfg.costs, &SimConfig::default()).map_err(ScheduleError::InvalidShape)?;
    Ok(Seed::Priced(sched, makespan))
}

/// One partial construction state of the order search. Ticks are
/// synchronous (each worker places at most one op per tick); the engine
/// times each placed op as it is appended to its worker's list, and the
/// trail records it.
#[derive(Clone)]
struct State<'a> {
    timing: Engine<'a>,
    /// The ops placed so far, one tick per link, newest first.
    trail: Option<Rc<Tick>>,
    ready_fwd: Vec<Vec<Op>>,
    ready_bwd: Vec<Vec<Op>>,
    /// Weight ops whose input-gradient half has run but which have not
    /// been placed yet — the zero-bubble deferral pool, oldest first.
    /// Drained into ticks where the worker would otherwise idle.
    pending_w: Vec<VecDeque<Op>>,
    /// How many producers of each op have not been placed yet.
    producers: ProducerCounts,
    in_flight: Vec<usize>,
    reserved: Vec<usize>,
    prefer_forward: Vec<bool>,
    remaining_fwd: Vec<usize>,
    remaining_bwd: Vec<usize>,
    remaining_w: Vec<usize>,
    remaining: usize,
}

impl<'a> State<'a> {
    /// Sound completion bound: worker `w`'s unplaced work must run on `w`
    /// after its last placed op ends. The beam ranks children by this
    /// bound before building them (see [`Ranked`]), so any change here
    /// must be made there too; a debug assertion compares the two.
    fn lower_bound(&self, costs: &UnitCost) -> f64 {
        (0..self.remaining_fwd.len())
            .map(|w| {
                self.timing.free_at(w)
                    + self.remaining_fwd[w] as f64 * costs.fwd
                    + self.remaining_bwd[w] as f64 * costs.bwd
                    + self.remaining_w[w] as f64 * costs.wgrad
            })
            .fold(0.0, f64::max)
    }

    /// The op worker `w` places under `action`, if any.
    fn op_of(&self, w: usize, action: Action) -> Option<Op> {
        match action {
            Action::Idle => None,
            Action::Fwd(i) => Some(self.ready_fwd[w][i]),
            Action::Bwd(i) => Some(self.ready_bwd[w][i]),
            Action::Drain => self.pending_w[w].front().copied(),
        }
    }

    /// Worker `w`'s move under `action`, with when the worker is free
    /// after it. Within a tick no worker affects another: every op placed
    /// in a tick has all its producers finished before the tick, link
    /// occupancy is keyed by the consuming worker, and a drain runs a
    /// weight op whose input-gradient half ran in an earlier tick. So
    /// this state's engine previews each move exactly as the child that
    /// makes it will book it; under the beam's default `SimConfig` a
    /// worker is free exactly when its last op ends.
    fn preview(&self, w: usize, action: Action) -> Move {
        let free = match self.op_of(w, action) {
            None => self.timing.free_at(w),
            Some(op) => self
                .timing
                .preview(w, op)
                .expect("a ready op's producers have all finished"),
        };
        Move { action, free }
    }

    /// The per-worker lists placed so far, read off the trail, followed
    /// by one more tick's `actions`.
    fn schedule(&self, meta: &ScheduleMeta, actions: &[Action]) -> Schedule {
        let mut ticks = Vec::new();
        let mut at = self.trail.as_deref();
        while let Some(tick) = at {
            ticks.push(tick);
            at = tick.prev.as_deref();
        }
        let mut workers = vec![Vec::new(); meta.stages];
        for tick in ticks.iter().rev() {
            for &(w, op) in &tick.placed {
                workers[w].push(op);
            }
        }
        for (w, &action) in actions.iter().enumerate() {
            workers[w].extend(self.op_of(w, action));
        }
        Schedule {
            meta: meta.clone(),
            workers,
        }
    }

    /// Applies one tick's joint actions in place; `place` times one op
    /// whose producers have all run.
    fn advance(
        &mut self,
        meta: &ScheduleMeta,
        shallow: &[usize],
        actions: &[Action],
        place: &mut impl FnMut(&mut Engine<'a>, usize, Op),
    ) {
        let mut placed = Vec::with_capacity(actions.len());
        for (w, &action) in actions.iter().enumerate() {
            match action {
                Action::Idle | Action::Drain => {}
                Action::Fwd(i) => {
                    let op = self.ready_fwd[w].swap_remove(i);
                    place(&mut self.timing, w, op);
                    if op.chunk == shallow[w] {
                        self.reserved[w] += meta.virtual_chunks - 1;
                    } else {
                        self.reserved[w] -= 1;
                    }
                    self.in_flight[w] += 1;
                    self.remaining_fwd[w] -= 1;
                    self.remaining -= 1;
                    self.prefer_forward[w] = false;
                    placed.push((w, op));
                }
                Action::Bwd(i) => {
                    let op = self.ready_bwd[w].swap_remove(i);
                    place(&mut self.timing, w, op);
                    // Zero-bubble deferral: the weight op joins the pool and
                    // runs in a tick where this worker would otherwise idle.
                    self.pending_w[w].push_back(op.with_kind(OpKind::BackwardWeight));
                    self.in_flight[w] -= 1;
                    self.remaining_bwd[w] -= 1;
                    self.remaining -= 1;
                    self.prefer_forward[w] = true;
                    placed.push((w, op));
                }
            }
        }
        // Idle workers drain one deferred weight op (oldest first) — the
        // gap-filling move that makes deferral pay.
        for (w, &action) in actions.iter().enumerate() {
            if action == Action::Drain {
                let wop = self.pending_w[w].pop_front().expect("a deferred weight op");
                place(&mut self.timing, w, wop);
                self.remaining_w[w] -= 1;
                self.remaining -= 1;
                placed.push((w, wop));
            }
        }
        // This tick's placements unlock their dependents for the next
        // tick (weight ops unlock nothing).
        for &(w, op) in &placed {
            self.producers
                .finish(meta, w, op, &mut self.ready_fwd, &mut self.ready_bwd);
        }
        self.trail = Some(Rc::new(Tick {
            placed,
            prev: self.trail.take(),
        }));
    }
}

/// The ops one tick placed, in placement order, and the tick before it.
/// Beam states branch from a shared history, so they share its links
/// instead of each copying every op placed so far. Dropping a trail
/// recurses once per link; the beam only runs at `p ≥ 2` (one stage has
/// no bubble to remove), so under `BEAM_OPS_LIMIT` a trail is at most
/// about 3,000 ticks deep.
struct Tick {
    placed: Vec<(usize, Op)>,
    prev: Option<Rc<Tick>>,
}

/// What a worker does in one tick.
#[derive(Clone, Copy, PartialEq)]
enum Action {
    Idle,
    Fwd(usize),
    Bwd(usize),
    /// Run the oldest deferred weight op: what an otherwise idle worker
    /// does while it has one.
    Drain,
}

/// A worker's action in one tick, and when the worker is free after it.
#[derive(Clone, Copy)]
struct Move {
    action: Action,
    free: f64,
}

/// A worker's moves in one tick: `lo`, or `hi` when the tick's branch
/// mask sets bit `.0`. Only contested workers (a forward and a backward
/// both available, within the branch limit) have a `hi`: their forward.
#[derive(Clone, Copy)]
struct Branch {
    lo: Move,
    hi: Option<(usize, Move)>,
}

impl Branch {
    fn at(&self, mask: usize) -> Move {
        match self.hi {
            Some((bit, m)) if mask & (1 << bit) != 0 => m,
            _ => self.lo,
        }
    }
}

/// A child of the beam, ranked before it is built: the `mask` branch of
/// the `parent`-th state, with the [`State::lower_bound`] and remaining
/// op count it will have.
struct Ranked {
    bound: f64,
    remaining: usize,
    parent: usize,
    mask: usize,
}

fn beam_search<'a>(
    meta: &'a ScheduleMeta,
    caps: &[usize],
    costs: &'a UnitCost,
    incumbent: f64,
    stats: &mut SolverStats,
) -> Option<(Schedule, f64)> {
    let p = meta.stages;
    let units = meta.units_per_worker();
    let shallow: Vec<usize> = (0..p).map(|w| shallow_chunk(meta, w)).collect();
    let mut init = State {
        timing: Engine::new(meta, costs, SimConfig::default()),
        trail: None,
        ready_fwd: vec![Vec::new(); p],
        ready_bwd: vec![Vec::new(); p],
        pending_w: vec![VecDeque::new(); p],
        producers: ProducerCounts::new(meta),
        in_flight: vec![0; p],
        reserved: vec![0; p],
        prefer_forward: vec![false; p],
        remaining_fwd: vec![units; p],
        remaining_bwd: vec![units; p],
        remaining_w: vec![units; p],
        remaining: 3 * units * p,
    };
    for mb in 0..meta.micro_batches {
        let (w0, c0) = meta.chain_stage_chunk(mb, 0);
        init.ready_fwd[w0].push(Op::new(OpKind::Forward, mb, 0, c0));
    }

    // The trail keeps each worker's list, so the spans the engine books
    // are not: they go to one scratch list, cleared after every op.
    let mut scratch = Vec::new();
    let mut place = |timing: &mut Engine<'a>, w: usize, op: Op| {
        assert!(
            timing.try_run(w, op, &mut scratch),
            "placed {op} before a producer"
        );
        scratch.clear();
    };

    // A parent leaves the beam when its last surviving child takes it.
    let mut beam = vec![Some(init)];
    let mut next = Vec::new();
    // Per-tick scratch: every parent's branches (`p` per parent), the
    // ranked children, survivors per parent, one joint action.
    let mut branches: Vec<Branch> = Vec::new();
    let mut ranked: Vec<Ranked> = Vec::new();
    let mut survivors: Vec<usize> = Vec::new();
    let mut actions: Vec<Action> = Vec::with_capacity(p);
    let mut best: Option<(Schedule, f64)> = None;
    let mut best_time = incumbent;
    // Branch on at most this many genuinely contested workers per tick.
    const BRANCH_WORKERS: usize = 2;

    while !beam.is_empty() && stats.nodes_expanded < NODE_BUDGET {
        branches.clear();
        ranked.clear();
        for (parent, state) in beam.iter().enumerate() {
            let state = state.as_ref().expect("parents stay until the build");
            stats.nodes_expanded += 1;
            // Per-worker candidates under the greedy generator's pick
            // rule, each move previewed on the parent's engine.
            let mut contested = 0;
            for w in 0..p {
                let full = state.in_flight[w] + state.reserved[w] + meta.virtual_chunks > caps[w];
                let picks = pick(
                    meta,
                    w,
                    shallow[w],
                    full,
                    &state.ready_fwd[w],
                    &state.ready_bwd[w],
                );
                let only = |action| Branch {
                    lo: state.preview(w, action),
                    hi: None,
                };
                branches.push(match (picks.fwd, picks.bwd) {
                    (Some(i), Some(j)) if contested < BRANCH_WORKERS => {
                        contested += 1;
                        Branch {
                            lo: state.preview(w, Action::Bwd(j)),
                            hi: Some((contested - 1, state.preview(w, Action::Fwd(i)))),
                        }
                    }
                    // Beyond the branch limit: follow the 1F1B alternation
                    // default.
                    (Some(i), Some(j)) => only(if state.prefer_forward[w] {
                        Action::Fwd(i)
                    } else {
                        Action::Bwd(j)
                    }),
                    (Some(i), None) => only(Action::Fwd(i)),
                    (None, Some(j)) => only(Action::Bwd(j)),
                    (None, None) if !state.pending_w[w].is_empty() => only(Action::Drain),
                    (None, None) => only(Action::Idle),
                });
            }
            // Each child's keys, from its moves alone: the same f64
            // expressions as `State::lower_bound`, over the free times
            // and remaining counts the child will have.
            let moves = &branches[parent * p..];
            for mask in 0..1usize << contested {
                let mut bound = 0.0;
                let mut makespan = 0.0;
                let mut remaining = state.remaining;
                for (w, branch) in moves.iter().enumerate() {
                    let m = branch.at(mask);
                    let (mut f, mut b, mut wg) = (
                        state.remaining_fwd[w],
                        state.remaining_bwd[w],
                        state.remaining_w[w],
                    );
                    match m.action {
                        Action::Idle => {}
                        Action::Fwd(_) => f -= 1,
                        Action::Bwd(_) => b -= 1,
                        Action::Drain => wg -= 1,
                    }
                    if m.action != Action::Idle {
                        remaining -= 1;
                    }
                    bound = f64::max(
                        bound,
                        m.free
                            + f as f64 * costs.fwd
                            + b as f64 * costs.bwd
                            + wg as f64 * costs.wgrad,
                    );
                    makespan = f64::max(makespan, m.free);
                }
                if remaining == 0 {
                    // Complete: only a schedule that beats the incumbent
                    // is built.
                    if makespan < best_time - IMPROVE_MARGIN {
                        best_time = makespan;
                        actions.clear();
                        actions.extend(moves.iter().map(|b| b.at(mask).action));
                        best = Some((state.schedule(meta, &actions), makespan));
                    }
                    continue;
                }
                if bound >= best_time - IMPROVE_MARGIN {
                    stats.nodes_pruned += 1;
                    continue;
                }
                ranked.push(Ranked {
                    bound,
                    remaining,
                    parent,
                    mask,
                });
            }
        }
        // Keep the most promising children; a stable sort over the
        // (parent, mask) generation order keeps the search deterministic.
        ranked.sort_by(|a, b| {
            a.bound
                .total_cmp(&b.bound)
                .then(a.remaining.cmp(&b.remaining))
        });
        ranked.truncate(BEAM);
        // Build only the survivors: each parent moves into its last
        // surviving child and is cloned for the others.
        survivors.clear();
        survivors.resize(beam.len(), 0);
        for r in &ranked {
            survivors[r.parent] += 1;
        }
        for r in &ranked {
            survivors[r.parent] -= 1;
            let mut child = if survivors[r.parent] == 0 {
                beam[r.parent].take()
            } else {
                beam[r.parent].clone()
            }
            .expect("a parent stays until its last child takes it");
            actions.clear();
            actions.extend(
                branches[r.parent * p..(r.parent + 1) * p]
                    .iter()
                    .map(|b| b.at(r.mask).action),
            );
            child.advance(meta, &shallow, &actions, &mut place);
            debug_assert_eq!(
                child.lower_bound(costs).to_bits(),
                r.bound.to_bits(),
                "the previewed bound is the built child's"
            );
            next.push(Some(child));
        }
        beam.clear();
        std::mem::swap(&mut beam, &mut next);
    }
    best
}

/// The solver as a [`ScheduleGenerator`], with deterministic default
/// costs so every process of a launch regenerates the identical order
/// from CLI flags alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Synth {
    cfg: SolverConfig,
}

impl Synth {
    /// A solver generator with no memory cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the memory cap (per-worker in-flight units).
    pub fn cap(mut self, cap: usize) -> Self {
        self.cfg.cap = Some(cap);
        self
    }

    /// Runs the full synthesis, returning stats alongside the schedule.
    pub fn synthesize(&self, dims: &Dims) -> Result<Synthesis, ScheduleError> {
        synthesize(dims, &self.cfg)
    }
}

impl ScheduleGenerator for Synth {
    fn name(&self) -> &'static str {
        "Synth"
    }

    fn generate(&self, dims: &Dims) -> Result<Schedule, ScheduleError> {
        Ok(synthesize(dims, &self.cfg)?.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_schedule::exec::simulate;
    use mepipe_schedule::validate::validate;

    /// The reported makespan is the engine's on the returned lists, bit
    /// for bit — whether they are a seed or rebuilt from the beam's trail.
    fn assert_makespan_replays(syn: &Synthesis, cfg: &SolverConfig, dims: &Dims) {
        let replay = simulate(&syn.schedule, &cfg.costs, &SimConfig::default())
            .unwrap_or_else(|e| panic!("{dims}: {e}"));
        assert_eq!(
            replay.makespan.to_bits(),
            syn.stats.makespan.to_bits(),
            "{dims}: replayed {} vs reported {}",
            replay.makespan,
            syn.stats.makespan
        );
    }

    #[test]
    fn solver_output_is_valid_and_never_worse_than_seed() {
        let capped = SolverConfig {
            cap: Some(3),
            ..Default::default()
        };
        for (dims, cfg) in [
            (Dims::new(2, 4).slices(2), SolverConfig::default()),
            (Dims::new(4, 8).slices(2), SolverConfig::default()),
            (
                Dims::new(4, 4).virtual_chunks(2).slices(2),
                SolverConfig::default(),
            ),
            (Dims::new(4, 8).slices(2), capped),
        ] {
            let syn = synthesize(&dims, &cfg).unwrap();
            validate(&syn.schedule).unwrap_or_else(|e| panic!("{dims}: {e}"));
            assert!(syn.stats.makespan <= syn.stats.seed_makespan + 1e-12);
            assert!(syn.stats.makespan >= syn.stats.floor - 1e-9, "{dims}");
            assert!(syn.stats.seeds_tried > 0);
            assert_makespan_replays(&syn, &cfg, &dims);
        }
    }

    #[test]
    fn solver_is_deterministic() {
        let dims = Dims::new(4, 8).slices(2);
        let a = synthesize(&dims, &SolverConfig::default()).unwrap();
        let b = synthesize(&dims, &SolverConfig::default()).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.stats.makespan, b.stats.makespan);
    }

    #[test]
    fn memory_cap_is_respected() {
        let dims = Dims::new(4, 8).slices(2);
        let floor = dims.v * dims.s;
        let syn = synthesize(
            &dims,
            &SolverConfig {
                cap: Some(floor + 1),
                ..Default::default()
            },
        )
        .unwrap();
        let peak = validate::peak_in_flight(&syn.schedule)
            .into_iter()
            .max()
            .unwrap();
        assert!(peak <= floor + 1, "peak {peak}");
    }

    #[test]
    fn infeasible_cap_is_rejected() {
        let dims = Dims::new(4, 8).slices(4);
        let err = synthesize(
            &dims,
            &SolverConfig {
                cap: Some(1),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("feasible"), "{err}");
    }

    #[test]
    fn skewed_costs_let_the_order_search_win() {
        // With cheap backwards and expensive forwards the 1F1B
        // alternation default is far from optimal, so the beam should
        // find a strictly better order on at least one small shape.
        let cfg = SolverConfig {
            costs: UnitCost {
                fwd: 3.0,
                bwd: 1.0,
                wgrad: 0.5,
                ..UnitCost::ones()
            },
            cap: None,
        };
        let mut improved = false;
        for dims in [
            Dims::new(2, 4).slices(2),
            Dims::new(2, 8).slices(2),
            Dims::new(4, 8).slices(2),
            Dims::new(4, 8),
        ] {
            let syn = synthesize(&dims, &cfg).unwrap();
            assert_makespan_replays(&syn, &cfg, &dims);
            improved |= syn.stats.improved;
        }
        assert!(improved, "beam never improved on the greedy seed");
    }
}
