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
//! 1. **Seeds** — every hot-swap-shaped MEPipe variant (the full warmup
//!    sweep) is generated and priced exactly with list-order execution
//!    ([`mepipe_schedule::exec::simulate`]); the fastest memory-feasible
//!    one becomes the incumbent, so the solver is never worse than the
//!    best hand-written template of the same shape.
//! 2. **Beam search over orders** — a tick-synchronous constructive
//!    search branches on the one genuine scheduling decision a worker
//!    faces (run the ready forward or the ready backward), times every
//!    placed op on the same engine ([`mepipe_schedule::exec::Engine`]),
//!    keeps the `BEAM` cheapest partial states, and prunes with a *sound*
//!    bound: a partial state cannot finish before `max_w(free_w +
//!    remaining busy work of w)`, nor before the closed-form analytic floor
//!    ([`crate::analytic::compute_floor_seconds`] — "Bubbles,
//!    communication stalls and memory-induced drains only push the
//!    simulated time above this floor").
//!
//! Peak in-flight units are gated against a memory cap during
//! construction (the same admission/reservation bookkeeping as the greedy
//! generator), so every emitted order respects the budget by
//! construction. The output keeps MEPipe's shape (interleaved placement,
//! split backward, same `p/v/n`), which makes it eligible for the
//! `retune_mepipe` hot-swap path.

use std::collections::HashSet;

use mepipe_schedule::{
    exec::{simulate, span_op, Engine, SimConfig, UnitCost},
    generate::{cap_floor, default_caps, dependents, greedy_generate},
    generator::{Dims, ScheduleError, ScheduleGenerator},
    ir::{ChunkPlacement, Op, OpKind, Schedule, ScheduleMeta},
    validate,
};

use crate::analytic::{compute_floor_seconds, AnalysisParams, FloorInputs};
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
    /// Warmup-sweep seeds generated and priced.
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

    // Phase 1: warmup sweep. Generate every hot-swap-shaped greedy
    // variant, drop the memory-infeasible ones, keep the fastest.
    let mut seeds_tried = 0usize;
    let mut best: Option<(Schedule, usize, f64)> = None;
    for f in base.min_warmup()..=base.max_warmup() {
        let caps = default_caps(&meta, f);
        let sched = match greedy_generate(&meta, &caps) {
            Ok(s) => s,
            Err(_) => continue,
        };
        seeds_tried += 1;
        if let Some(cap) = cfg.cap {
            let peak = validate::peak_in_flight(&sched)
                .into_iter()
                .max()
                .unwrap_or(0);
            if peak > cap {
                continue;
            }
        }
        let makespan = simulate(&sched, &cfg.costs, &SimConfig::default())
            .map_err(ScheduleError::InvalidShape)?
            .makespan;
        if best
            .as_ref()
            .is_none_or(|&(_, _, t)| makespan < t - IMPROVE_MARGIN)
        {
            best = Some((sched, f, makespan));
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

/// One partial construction state of the order search. Ticks are
/// synchronous (each worker places at most one unit per tick); the
/// engine times each placed op as it is appended to its worker's list.
#[derive(Clone)]
struct State<'a> {
    timing: Engine<'a>,
    ready_fwd: Vec<Vec<Op>>,
    ready_bwd: Vec<Vec<Op>>,
    /// Weight ops whose input-gradient half has run but which have not
    /// been placed yet — the zero-bubble deferral pool. Drained into
    /// ticks where the worker would otherwise idle.
    pending_w: Vec<Vec<Op>>,
    queued: HashSet<(usize, Op)>,
    in_flight: Vec<usize>,
    reserved: Vec<usize>,
    prefer_forward: Vec<bool>,
    remaining_fwd: Vec<usize>,
    remaining_bwd: Vec<usize>,
    remaining_w: Vec<usize>,
    remaining: usize,
}

impl State<'_> {
    /// Sound completion bound: worker `w`'s unplaced work must run on `w`
    /// after its last placed op ends.
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

    fn makespan(&self) -> f64 {
        (0..self.remaining_fwd.len())
            .map(|w| self.timing.free_at(w))
            .fold(0.0, f64::max)
    }

    /// Appends `op` to worker `w`'s list; its producers have all run.
    fn place(&mut self, w: usize, op: Op) {
        assert!(self.timing.try_run(w, op), "placed {op} before a producer");
    }

    /// The per-worker lists placed so far.
    fn schedule(&self, meta: &ScheduleMeta) -> Schedule {
        let workers = (0..meta.stages)
            .map(|w| self.timing.spans(w).iter().filter_map(span_op).collect())
            .collect();
        Schedule {
            meta: meta.clone(),
            workers,
        }
    }
}

/// What a worker does in one tick.
#[derive(Clone, Copy, PartialEq)]
enum Action {
    Idle,
    Fwd(usize),
    Bwd(usize),
}

fn beam_search(
    meta: &ScheduleMeta,
    caps: &[usize],
    costs: &UnitCost,
    incumbent: f64,
    stats: &mut SolverStats,
) -> Option<(Schedule, f64)> {
    let p = meta.stages;
    let units = meta.units_per_worker();
    let mut init = State {
        timing: Engine::new(meta, costs, SimConfig::default()),
        ready_fwd: vec![Vec::new(); p],
        ready_bwd: vec![Vec::new(); p],
        pending_w: vec![Vec::new(); p],
        queued: HashSet::new(),
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

    let mut beam = vec![init];
    let mut best: Option<(Schedule, f64)> = None;
    let mut best_time = incumbent;
    // Branch on at most this many genuinely contested workers per tick.
    const BRANCH_WORKERS: usize = 2;

    while !beam.is_empty() && stats.nodes_expanded < NODE_BUDGET {
        let mut children: Vec<State> = Vec::new();
        for state in beam.drain(..) {
            stats.nodes_expanded += 1;
            // Per-worker candidate selection — greedy's priority rules.
            let mut fwd_pick: Vec<Option<usize>> = vec![None; p];
            let mut bwd_pick: Vec<Option<usize>> = vec![None; p];
            for w in 0..p {
                let mut bb: Option<(usize, usize)> = None;
                for (i, op) in state.ready_bwd[w].iter().enumerate() {
                    let g = meta.chain_pos(op.micro_batch, w, op.chunk);
                    let better = match bb {
                        None => true,
                        Some((bi, bg)) => {
                            let b = state.ready_bwd[w][bi];
                            g > bg || (g == bg && op.micro_batch < b.micro_batch)
                        }
                    };
                    if better {
                        bb = Some((i, g));
                    }
                }
                bwd_pick[w] = bb.map(|(i, _)| i);
                let shallow = (0..meta.virtual_chunks)
                    .min_by_key(|&c| meta.placement.global_pos(p, w, c))
                    .expect("chunk");
                let mut fb: Option<(usize, usize)> = None;
                for (i, op) in state.ready_fwd[w].iter().enumerate() {
                    if op.chunk == shallow
                        && state.in_flight[w] + state.reserved[w] + meta.virtual_chunks > caps[w]
                    {
                        continue;
                    }
                    let g = meta.chain_pos(op.micro_batch, w, op.chunk);
                    let better = match fb {
                        None => true,
                        Some((bi, bg)) => {
                            let b = state.ready_fwd[w][bi];
                            g > bg
                                || (g == bg
                                    && (op.micro_batch, op.slice) < (b.micro_batch, b.slice))
                        }
                    };
                    if better {
                        fb = Some((i, g));
                    }
                }
                fwd_pick[w] = fb.map(|(i, _)| i);
            }
            // Contested workers: both a forward and a backward available.
            let contested: Vec<usize> = (0..p)
                .filter(|&w| fwd_pick[w].is_some() && bwd_pick[w].is_some())
                .take(BRANCH_WORKERS)
                .collect();
            let variants = 1usize << contested.len();
            for mask in 0..variants {
                let mut actions = vec![Action::Idle; p];
                for w in 0..p {
                    let choice_bit = contested.iter().position(|&c| c == w);
                    actions[w] = match (fwd_pick[w], bwd_pick[w]) {
                        (Some(i), Some(j)) => match choice_bit {
                            Some(b) => {
                                if mask & (1 << b) != 0 {
                                    Action::Fwd(i)
                                } else {
                                    Action::Bwd(j)
                                }
                            }
                            // Beyond the branch limit: follow the 1F1B
                            // alternation default.
                            None => {
                                if state.prefer_forward[w] {
                                    Action::Fwd(i)
                                } else {
                                    Action::Bwd(j)
                                }
                            }
                        },
                        (Some(i), None) => Action::Fwd(i),
                        (None, Some(j)) => Action::Bwd(j),
                        (None, None) => Action::Idle,
                    };
                }
                let child = apply_tick(meta, &state, &actions);
                if child.remaining == 0 {
                    let t = child.makespan();
                    if t < best_time - IMPROVE_MARGIN {
                        best_time = t;
                        best = Some((child.schedule(meta), t));
                    }
                    continue;
                }
                if child.lower_bound(costs) >= best_time - IMPROVE_MARGIN {
                    stats.nodes_pruned += 1;
                    continue;
                }
                children.push(child);
            }
        }
        // Keep the most promising states; stable order keeps the search
        // deterministic.
        children.sort_by(|a, b| {
            a.lower_bound(costs)
                .total_cmp(&b.lower_bound(costs))
                .then(a.remaining.cmp(&b.remaining))
        });
        children.truncate(BEAM);
        beam = children;
    }
    best
}

/// Applies one tick's joint actions, returning the advanced state.
fn apply_tick<'a>(meta: &ScheduleMeta, state: &State<'a>, actions: &[Action]) -> State<'a> {
    let mut s = state.clone();
    let mut fresh: Vec<(usize, Op)> = Vec::new();
    for (w, action) in actions.iter().enumerate() {
        match *action {
            Action::Idle => {}
            Action::Fwd(i) => {
                let op = s.ready_fwd[w].swap_remove(i);
                s.place(w, op);
                let shallow = (0..meta.virtual_chunks)
                    .min_by_key(|&c| meta.placement.global_pos(meta.stages, w, c))
                    .expect("chunk");
                if op.chunk == shallow {
                    s.reserved[w] += meta.virtual_chunks - 1;
                } else {
                    s.reserved[w] -= 1;
                }
                s.in_flight[w] += 1;
                s.remaining_fwd[w] -= 1;
                s.remaining -= 1;
                s.prefer_forward[w] = false;
                fresh.push((w, op));
            }
            Action::Bwd(i) => {
                let op = s.ready_bwd[w].swap_remove(i);
                s.place(w, op);
                // Zero-bubble deferral: the weight op joins the pool and
                // runs in a tick where this worker would otherwise idle.
                s.pending_w[w].push(op.with_kind(OpKind::BackwardWeight));
                s.in_flight[w] -= 1;
                s.remaining_bwd[w] -= 1;
                s.remaining -= 1;
                s.prefer_forward[w] = true;
                fresh.push((w, op));
            }
        }
    }
    // Idle workers drain one deferred weight op (oldest first) — the
    // gap-filling move that makes deferral pay.
    for (w, action) in actions.iter().enumerate() {
        if *action == Action::Idle && !s.pending_w[w].is_empty() {
            let wop = s.pending_w[w].remove(0);
            s.place(w, wop);
            s.remaining_w[w] -= 1;
            s.remaining -= 1;
        }
    }
    for &(w, op) in &fresh {
        let backward_kind = if meta.split_backward {
            OpKind::BackwardInput
        } else {
            OpKind::Backward
        };
        for (dw, dep) in dependents(meta, w, op, backward_kind) {
            let all_done = mepipe_schedule::deps::dependencies(meta, dw, dep)
                .iter()
                .all(|d| s.timing.finish_time(d.stage, d.op).is_some());
            if all_done && s.queued.insert((dw, dep)) {
                match dep.kind {
                    OpKind::Forward => s.ready_fwd[dw].push(dep),
                    _ => s.ready_bwd[dw].push(dep),
                }
            }
        }
    }
    s
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
    use mepipe_schedule::validate::validate;

    #[test]
    fn solver_output_is_valid_and_never_worse_than_seed() {
        for dims in [
            Dims::new(2, 4).slices(2),
            Dims::new(4, 8).slices(2),
            Dims::new(4, 4).virtual_chunks(2).slices(2),
        ] {
            let syn = synthesize(&dims, &SolverConfig::default()).unwrap();
            validate(&syn.schedule).unwrap_or_else(|e| panic!("{dims}: {e}"));
            assert!(syn.stats.makespan <= syn.stats.seed_makespan + 1e-12);
            assert!(syn.stats.makespan >= syn.stats.floor - 1e-9, "{dims}");
            assert!(syn.stats.seeds_tried > 0);
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
        let improved = [
            Dims::new(2, 4).slices(2),
            Dims::new(2, 8).slices(2),
            Dims::new(4, 8).slices(2),
            Dims::new(4, 8),
        ]
        .iter()
        .any(|d| synthesize(d, &cfg).unwrap().stats.improved);
        assert!(improved, "beam never improved on the greedy seed");
    }
}
