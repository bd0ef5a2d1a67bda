//! Greedy capacity-bounded schedule generation.
//!
//! The generator runs a synchronous unit-time simulation. At every tick
//! each idle worker picks, in priority order:
//!
//! 1. a *ready backward* pass (oldest micro-batch first, slices and chunks
//!    in backward-chain order) — the one-forward-one-backward steady state;
//! 2. otherwise a *ready forward* pass, but only while the worker's count
//!    of in-flight forward units is below its capacity `cap[w]` — the
//!    paper's `f` parameter (forwards admitted before the first backward),
//!    which is exactly the activation-memory knob of Section 4.2;
//! 3. otherwise it idles (a bubble).
//!
//! Among ready forwards, the deepest global chunk position wins (drain
//! in-flight work before admitting new micro-batches), which reproduces
//! the Figure 4(b) interleaving where a sample's second chunk preempts the
//! next sample's first chunk.
//!
//! For split-backward schedules, weight-gradient ops are appended directly
//! after their input-gradient op — the "compute W immediately" layout of
//! Figure 7(a); the simulator's dynamic drain (Section 5) reorders them at
//! execution time.
//!
//! Readiness is one count per op ([`ProducerCounts`]): how many of its
//! producers have not finished yet. A finished op decrements its
//! [`dependents`], and an op whose count reaches zero joins its worker's
//! ready list for the next tick. The order synthesizer in `mepipe-core`
//! keeps the same counts in each of its search states.

use crate::{
    deps::InlineList,
    ir::{Op, OpKind, Schedule, ScheduleMeta},
};

/// The per-worker in-flight floor below which generation cannot make
/// progress: the first backward needs one whole micro-batch's units on the
/// loss worker — `v·s` for interleaved placements (Section 4.2: "at least
/// `v × s` forward passes must be executed before the first backward
/// pass"), `s` for bidirectional placement where each micro-batch holds
/// only one chunk per worker.
pub fn cap_floor(meta: &ScheduleMeta) -> usize {
    if meta.bidirectional() {
        meta.slices
    } else {
        meta.virtual_chunks * meta.slices
    }
}

/// Generates a schedule under per-stage in-flight capacities.
///
/// `caps[w]` bounds the number of forward units worker `w` may hold before
/// backing off; every cap must be at least [`cap_floor`].
///
/// Bidirectional metas are handled natively: each micro-batch is seeded at
/// its own end of the pipeline and all position arithmetic follows its
/// direction, so the same greedy machinery produces DualPipe-style
/// two-stream schedules.
pub fn greedy_generate(meta: &ScheduleMeta, caps: &[usize]) -> Result<Schedule, String> {
    meta.check_shape()?;
    let p = meta.stages;
    if caps.len() != p {
        return Err(format!("need {p} caps, got {}", caps.len()));
    }
    let min_cap = cap_floor(meta);
    if let Some(w) = caps.iter().position(|&c| c < min_cap) {
        return Err(format!(
            "cap {} at stage {w} below the feasibility floor {min_cap}",
            caps[w]
        ));
    }

    // Incremental readiness tracking: instead of re-scanning every pending
    // op per tick, ops enter per-worker ready lists the moment their last
    // producer finishes. Ready lists stay small, so a tick costs O(ready)
    // instead of O(pending).
    let mut producers = ProducerCounts::new(meta);
    let mut ready_fwd: Vec<Vec<Op>> = vec![Vec::new(); p];
    let mut ready_bwd: Vec<Vec<Op>> = vec![Vec::new(); p];

    // Seed: forwards with no producers — slice 0 of every micro-batch at
    // its chain entry (position 0 for everyone; bidirectional streams
    // enter from opposite ends).
    for mb in 0..meta.micro_batches {
        let (w0, c0) = meta.chain_stage_chunk(mb, 0);
        ready_fwd[w0].push(Op::new(OpKind::Forward, mb, 0, c0));
    }

    // Each worker places every unit's forward and backward, and its
    // weight op when the backward is split.
    let list_len = meta.units_per_worker() * if meta.split_backward { 3 } else { 2 };
    let mut lists: Vec<Vec<Op>> = (0..p).map(|_| Vec::with_capacity(list_len)).collect();
    let mut in_flight = vec![0usize; p];
    // Deep-chunk reservations: once a worker admits a (micro-batch, slice)
    // pair at its shallowest chunk, the pair's remaining chunks *will*
    // arrive and must never be starved by new admissions (they sit on the
    // backward critical path). `reserved[w]` counts those outstanding deep
    // units; admissions of new pairs are charged against them.
    let mut reserved = vec![0usize; p];
    // Steady-state 1F1B alternation at slice granularity: after a backward
    // the worker prefers a forward (the paper inserts "single bubbles ...
    // between two consecutive backward passes of different slices" exactly
    // so the next micro-batch's forwards can fill them). Without this,
    // same-worker backward chains (s > 1 or v > 1) would monopolise the
    // worker and starve downstream stages.
    let mut prefer_forward = vec![false; p];
    // Under bidirectional placement every admitted unit is its own "pair"
    // (one chunk per worker per micro-batch), so the reservation machinery
    // degenerates: every admission is shallow and reserves nothing.
    let bidir = meta.bidirectional();
    let pair_units = if bidir { 1 } else { meta.virtual_chunks };
    let shallow: Vec<usize> = (0..p).map(|w| shallow_chunk(meta, w)).collect();
    let total_units = meta.units_per_worker();
    let mut remaining = 2 * total_units * p;
    let mut tick = 0usize;
    // Generous upper bound: every op could in the worst case wait for the
    // whole pipeline to drain.
    let tick_limit = 4 * (remaining + p * p + 16);

    // Newly finished ops of the current tick (their dependents unlock at
    // the next tick).
    let mut freshly_done: Vec<(usize, Op)> = Vec::new();

    while remaining > 0 {
        if tick > tick_limit {
            let state: Vec<String> = (0..p)
                .map(|w| {
                    format!(
                        "w{w}: placed {} ready_f {:?} ready_b {:?} if {} rsv {}",
                        lists[w].len(),
                        ready_fwd[w],
                        ready_bwd[w],
                        in_flight[w],
                        reserved[w]
                    )
                })
                .collect();
            return Err(format!(
                "generation exceeded {tick_limit} ticks; caps {caps:?} likely deadlock\n{}",
                state.join("\n")
            ));
        }
        freshly_done.clear();
        for w in 0..p {
            let full = in_flight[w] + reserved[w] + pair_units > caps[w];
            let picks = pick(meta, w, shallow[w], full, &ready_fwd[w], &ready_bwd[w]);
            // Run one of them per the 1F1B alternation preference.
            let run_forward = match (picks.fwd, picks.bwd) {
                (Some(_), Some(_)) => prefer_forward[w],
                (Some(_), None) => true,
                (None, _) => false,
            };
            if run_forward {
                let i = picks.fwd.expect("forward candidate exists");
                let op = ready_fwd[w].swap_remove(i);
                if bidir {
                    // One-chunk pairs: nothing to reserve.
                } else if op.chunk == shallow[w] {
                    reserved[w] += pair_units - 1;
                } else {
                    reserved[w] -= 1;
                }
                lists[w].push(op);
                in_flight[w] += 1;
                remaining -= 1;
                prefer_forward[w] = false;
                freshly_done.push((w, op));
            } else if let Some(i) = picks.bwd {
                let op = ready_bwd[w].swap_remove(i);
                lists[w].push(op);
                if meta.split_backward {
                    // Default static layout: weight grads right after.
                    lists[w].push(op.with_kind(OpKind::BackwardWeight));
                }
                in_flight[w] -= 1;
                remaining -= 1;
                prefer_forward[w] = true;
                freshly_done.push((w, op));
            }
        }
        // Commit this tick's completions: their dependents unlock for the
        // next tick.
        for &(w, op) in &freshly_done {
            producers.finish(meta, w, op, &mut ready_fwd, &mut ready_bwd);
        }
        tick += 1;
    }

    Ok(Schedule {
        meta: meta.clone(),
        workers: lists,
    })
}

/// Worker `w`'s shallowest chunk: where an interleaved placement admits
/// a new (micro-batch, slice) pair.
pub fn shallow_chunk(meta: &ScheduleMeta, w: usize) -> usize {
    (0..meta.virtual_chunks)
        .min_by_key(|&c| meta.placement.global_pos(meta.stages, w, c))
        .expect("at least one chunk")
}

/// One worker's candidates at a tick, as indices into its ready lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Picks {
    /// The forward to run, if one is ready and admissible.
    pub fwd: Option<usize>,
    /// The backward to run, if one is ready.
    pub bwd: Option<usize>,
}

/// Worker `w`'s candidates under the generator's priority rules, which
/// order searches share.
///
/// The backward is the ready one deepest in its chain (the backward
/// wavefront), the older micro-batch on ties. The forward is the ready
/// one deepest in its chain, then the older micro-batch, then the earlier
/// slice — this keeps an admitted micro-batch's slice chain ahead of
/// newer admissions, which is what guarantees the first backward can
/// always be reached within the capacity.
///
/// `full` says whether admitting a new (micro-batch, slice) pair would
/// take the worker past its cap, counting the units reserved for the deep
/// chunks of pairs already admitted; a full worker skips admissions.
/// Interleaved placements admit at the worker's `shallow_chunk` (see
/// [`shallow_chunk`]) and reserve room for the whole pair, whose deep
/// chunks then bypass the check, so the cap is a hard bound on in-flight
/// units. Bidirectional placements admit at the chain
/// entry (position 0) and let pass-through forwards bypass the check —
/// capping them creates a store-and-forward cycle between the two
/// streams (each end full of its own admissions while the other stream's
/// loss unit waits), i.e. deadlock. An interleaved admission is known by
/// its chunk alone, so a full worker skips it before computing its chain
/// position.
pub fn pick(
    meta: &ScheduleMeta,
    w: usize,
    shallow_chunk: usize,
    full: bool,
    ready_fwd: &[Op],
    ready_bwd: &[Op],
) -> Picks {
    let mut bwd: Option<(usize, usize)> = None; // (index, position)
    for (i, op) in ready_bwd.iter().enumerate() {
        let g = meta.chain_pos(op.micro_batch, w, op.chunk);
        let better = match bwd {
            None => true,
            Some((bi, bg)) => g > bg || (g == bg && op.micro_batch < ready_bwd[bi].micro_batch),
        };
        if better {
            bwd = Some((i, g));
        }
    }
    let bidir = meta.bidirectional();
    let mut fwd: Option<(usize, usize)> = None;
    for (i, op) in ready_fwd.iter().enumerate() {
        if full && !bidir && op.chunk == shallow_chunk {
            continue;
        }
        let g = meta.chain_pos(op.micro_batch, w, op.chunk);
        if full && bidir && g == 0 {
            continue;
        }
        let better = match fwd {
            None => true,
            Some((bi, bg)) => {
                let b = ready_fwd[bi];
                g > bg || (g == bg && (op.micro_batch, op.slice) < (b.micro_batch, b.slice))
            }
        };
        if better {
            fwd = Some((i, g));
        }
    }
    Picks {
        fwd: fwd.map(|(i, _)| i),
        bwd: bwd.map(|(i, _)| i),
    }
}

/// How many producers of each forward and backward op have not finished
/// yet, at its [`ScheduleMeta::op_slot`] — the readiness rule
/// [`greedy_generate`] and order searches share. Weight ops are not
/// counted: generators place them after their input-gradient op.
#[derive(Debug, Clone)]
pub struct ProducerCounts {
    outstanding: Vec<u8>,
}

impl ProducerCounts {
    /// Every op's full producer count: for a forward, its chain
    /// predecessor and its previous slice; for a backward, its own
    /// forward, its chain successor and its next slice — what
    /// [`crate::deps::dependencies`] lists for it.
    pub fn new(meta: &ScheduleMeta) -> Self {
        let backward_kind = backward_kind(meta);
        let last = meta.last_chain_pos();
        let mut outstanding = vec![0; meta.op_slots()];
        for w in 0..meta.stages {
            for mb in 0..meta.micro_batches {
                for c in meta
                    .chunk_of_mb(mb)
                    .map_or(0..meta.virtual_chunks, |c| c..c + 1)
                {
                    let g = meta.chain_pos(mb, w, c);
                    for slice in 0..meta.slices {
                        let f = Op::new(OpKind::Forward, mb, slice, c);
                        outstanding[meta.op_slot(w, f)] = u8::from(g > 0) + u8::from(slice > 0);
                        outstanding[meta.op_slot(w, f.with_kind(backward_kind))] =
                            1 + u8::from(g < last) + u8::from(slice + 1 < meta.slices);
                    }
                }
            }
        }
        Self { outstanding }
    }

    /// Records that `op` finished on `stage`: each of its [`dependents`]
    /// has one producer fewer outstanding, and one with none left joins
    /// its worker's ready list, forwards in `ready_fwd` and backwards in
    /// `ready_bwd`.
    pub fn finish(
        &mut self,
        meta: &ScheduleMeta,
        stage: usize,
        op: Op,
        ready_fwd: &mut [Vec<Op>],
        ready_bwd: &mut [Vec<Op>],
    ) {
        for (dw, dep) in dependents(meta, stage, op, backward_kind(meta)) {
            let count = &mut self.outstanding[meta.op_slot(dw, dep)];
            *count -= 1;
            if *count == 0 {
                match dep.kind {
                    OpKind::Forward => ready_fwd[dw].push(dep),
                    _ => ready_bwd[dw].push(dep),
                }
            }
        }
    }
}

/// The backward kind `meta`'s lists hold: input-gradient when the
/// backward is split, fused otherwise.
fn backward_kind(meta: &ScheduleMeta) -> OpKind {
    if meta.split_backward {
        OpKind::BackwardInput
    } else {
        OpKind::Backward
    }
}

/// Consumers an op can unlock — the inverse of
/// [`crate::deps::dependencies`]: each op listed here lists `op` among
/// its producers, and each producer of an op lists that op here exactly
/// once, so [`ProducerCounts::finish`] decrements every count once per
/// producer. Weight ops are excluded (generators place them after their
/// input-gradient op).
pub fn dependents(
    meta: &ScheduleMeta,
    stage: usize,
    op: Op,
    backward_kind: OpKind,
) -> InlineList<(usize, Op)> {
    let g = meta.chain_pos(op.micro_batch, stage, op.chunk);
    let mut out = InlineList::new((stage, op));
    match op.kind {
        OpKind::Forward => {
            if g < meta.last_chain_pos() {
                let (nw, nc) = meta.chain_stage_chunk(op.micro_batch, g + 1);
                out.push((nw, Op::new(OpKind::Forward, op.micro_batch, op.slice, nc)));
            }
            if op.slice + 1 < meta.slices {
                out.push((
                    stage,
                    Op::new(OpKind::Forward, op.micro_batch, op.slice + 1, op.chunk),
                ));
            }
            // Its own backward becomes a candidate once the rest of its
            // producers complete.
            out.push((
                stage,
                Op::new(backward_kind, op.micro_batch, op.slice, op.chunk),
            ));
        }
        OpKind::Backward | OpKind::BackwardInput => {
            if g > 0 {
                let (pw, pc) = meta.chain_stage_chunk(op.micro_batch, g - 1);
                out.push((pw, Op::new(backward_kind, op.micro_batch, op.slice, pc)));
            }
            if op.slice > 0 {
                out.push((
                    stage,
                    Op::new(backward_kind, op.micro_batch, op.slice - 1, op.chunk),
                ));
            }
        }
        OpKind::BackwardWeight => {}
    }
    out
}

/// Default per-stage capacities for a warmup budget `f` at stage 0:
/// `max(f − w, floor)` — later stages start later and drain sooner, so
/// they never need the full budget (Section 4.1's analysis focuses on
/// stage 0). For bidirectional metas the slope is symmetric — both ends
/// are entry stages — so the budget decays toward the middle:
/// `max(f − min(w, p−1−w), floor)`.
pub fn default_caps(meta: &ScheduleMeta, f: usize) -> Vec<usize> {
    let floor = cap_floor(meta);
    let p = meta.stages;
    (0..p)
        .map(|w| {
            let depth = if meta.bidirectional() {
                w.min(p - 1 - w)
            } else {
                w
            };
            f.saturating_sub(depth).max(floor)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ChunkPlacement;
    use crate::validate::{peak_in_flight, validate};

    fn meta(p: usize, v: usize, s: usize, n: usize) -> ScheduleMeta {
        ScheduleMeta {
            name: "greedy".into(),
            stages: p,
            virtual_chunks: v,
            slices: s,
            micro_batches: n,
            split_backward: false,
            placement: ChunkPlacement::Interleaved,
        }
    }

    #[test]
    fn figure4a_shape() {
        // p=4, s=2, v=1, n=4, f = v·max(p,s)+min(p,s)-1 = 5.
        let m = meta(4, 1, 2, 4);
        let caps = default_caps(&m, 5);
        let s = greedy_generate(&m, &caps).unwrap();
        validate(&s).unwrap();
        let peaks = peak_in_flight(&s);
        // Section 4.1: "The peak memory consumption of activations in
        // Figure 4(a) is 5/8 A" — five slice units on stage 0.
        assert_eq!(peaks[0], 5, "peaks = {peaks:?}");
        assert!(peaks[3] <= 3);
    }

    #[test]
    fn figure4b_shape() {
        // p=4, s=2, v=2, n=4: peak = 9 units of A/16 (Section 4.1).
        let m = meta(4, 2, 2, 4);
        let caps = default_caps(&m, 9);
        let s = greedy_generate(&m, &caps).unwrap();
        validate(&s).unwrap();
        // The closed-form bound is 9 units (Section 4.1); the greedy
        // generator drains backwards eagerly and reserves whole pairs at
        // admission, so it can undershoot the bound by up to v units.
        let peak = peak_in_flight(&s)[0];
        assert!((7..=9).contains(&peak), "peak = {peak}");
    }

    #[test]
    fn caps_bound_memory() {
        let m = meta(4, 1, 2, 8);
        for f in [2usize, 3, 4, 5, 6] {
            let s = greedy_generate(&m, &default_caps(&m, f)).unwrap();
            validate(&s).unwrap();
            let peaks = peak_in_flight(&s);
            assert!(
                peaks[0] <= f.max(2),
                "f={f}: stage-0 peak {} exceeds cap",
                peaks[0]
            );
        }
    }

    #[test]
    fn cap_below_floor_is_rejected() {
        let m = meta(4, 2, 2, 4);
        let err = greedy_generate(&m, &[3, 4, 4, 4]).unwrap_err();
        assert!(err.contains("floor"), "{err}");
    }

    #[test]
    fn split_backward_appends_weight_ops() {
        let m = ScheduleMeta {
            split_backward: true,
            ..meta(4, 1, 2, 4)
        };
        let s = greedy_generate(&m, &default_caps(&m, 5)).unwrap();
        validate(&s).unwrap();
        // Every Bi is immediately followed by its W in the static layout.
        for ops in &s.workers {
            for pair in ops.windows(2) {
                if pair[0].kind == OpKind::BackwardInput {
                    assert_eq!(pair[1].kind, OpKind::BackwardWeight);
                    assert_eq!(pair[1].micro_batch, pair[0].micro_batch);
                    assert_eq!(pair[1].slice, pair[0].slice);
                }
            }
        }
    }

    #[test]
    fn vshape_generation_is_valid() {
        let m = ScheduleMeta {
            placement: ChunkPlacement::VShape,
            split_backward: true,
            ..meta(4, 2, 1, 8)
        };
        let caps: Vec<usize> = (0..4).map(|w| (2 * (4 - w)).max(2)).collect();
        let s = greedy_generate(&m, &caps).unwrap();
        validate(&s).unwrap();
    }

    #[test]
    fn bidirectional_generation_is_valid() {
        for (p, s, n) in [(2usize, 1usize, 4usize), (4, 2, 4), (4, 1, 8)] {
            let m = ScheduleMeta {
                placement: ChunkPlacement::Bidirectional,
                split_backward: true,
                ..meta(p, 2, s, n)
            };
            for f in [cap_floor(&m), 2 * cap_floor(&m)] {
                let caps = default_caps(&m, f);
                let sched = greedy_generate(&m, &caps)
                    .unwrap_or_else(|e| panic!("p={p} s={s} n={n} f={f}: {e}"));
                validate(&sched).unwrap_or_else(|e| panic!("p={p} s={s} n={n} f={f}: {e}"));
                // Pass-through forwards bypass the cap (only admissions
                // are charged), so a stage can hold up to both directions'
                // budgets at once — but never more.
                let peaks = peak_in_flight(&sched);
                let bound = 2 * f.max(cap_floor(&m));
                assert!(
                    peaks.iter().all(|&pk| pk <= bound),
                    "p={p} s={s} n={n} f={f}: peaks {peaks:?} exceed {bound}"
                );
            }
        }
    }

    #[test]
    fn producer_counts_start_at_each_ops_dependency_count() {
        use crate::deps::dependencies;
        use crate::generator::{
            Dapple, Dims, GPipe, Hanayo, ScheduleGenerator, TeraPipe, Vpp, Zb, Zbv,
        };
        use crate::{Blocks, DualPipe};
        let mut placements = Vec::new();
        for (p, n, s) in [(1usize, 2usize, 1usize), (2, 4, 2), (3, 6, 2), (4, 8, 4)] {
            let flat = Dims::new(p, n);
            let zoo: Vec<(Box<dyn ScheduleGenerator>, Dims)> = vec![
                (Box::new(GPipe), flat),
                (Box::new(Dapple), flat),
                (Box::new(Zb), flat),
                (Box::new(Vpp), flat.virtual_chunks(2)),
                (Box::new(Hanayo), flat.virtual_chunks(2)),
                (Box::new(Zbv), flat.virtual_chunks(2)),
                (Box::new(TeraPipe), flat.slices(s)),
                (Box::new(DualPipe::new()), flat.virtual_chunks(2).slices(s)),
                (Box::new(Blocks::uniform()), flat.slices(s)),
                (
                    Box::new(Blocks::v_shape()),
                    flat.virtual_chunks(2).slices(s),
                ),
            ];
            for (gen, dims) in zoo {
                let Ok(sched) = gen.generate(&dims) else {
                    continue;
                };
                let m = &sched.meta;
                placements.push(m.placement);
                let counts = ProducerCounts::new(m);
                for (w, ops) in sched.workers.iter().enumerate() {
                    for &op in ops {
                        if op.kind != OpKind::BackwardWeight {
                            assert_eq!(
                                usize::from(counts.outstanding[m.op_slot(w, op)]),
                                dependencies(m, w, op).len(),
                                "{} {dims}: {op} on {w}",
                                gen.name()
                            );
                        }
                    }
                }
            }
        }
        for placement in [
            ChunkPlacement::Interleaved,
            ChunkPlacement::VShape,
            ChunkPlacement::Wave,
            ChunkPlacement::Bidirectional,
        ] {
            assert!(placements.contains(&placement), "{placement:?} not covered");
        }
    }

    #[test]
    fn degenerate_single_stage_works() {
        let m = meta(1, 1, 1, 3);
        let s = greedy_generate(&m, &default_caps(&m, 1)).unwrap();
        validate(&s).unwrap();
        // Pure 1F1B on one stage: F B F B F B.
        let kinds: Vec<OpKind> = s.workers[0].iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::Forward,
                OpKind::Backward,
                OpKind::Forward,
                OpKind::Backward,
                OpKind::Forward,
                OpKind::Backward
            ]
        );
    }
}
