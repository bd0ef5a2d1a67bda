//! Backward rescheduling optimisation (Section 4.3, Figure 6).
//!
//! With `v > 1`, the baseline construction can leave bubbles between the
//! last few backward passes. The paper removes them by re-ordering the
//! backward passes using:
//!
//! 1. a *priority* per backward — the number of its children (backwards it
//!    transitively unblocks on the same worker);
//! 2. a table of *earliest possible initiation times*, updated as parents
//!    are placed;
//! 3. a greedy sweep that, at every decision point, picks the ready
//!    backward with the highest priority.
//!
//! Our implementation keeps every worker's forward subsequence fixed and
//! rebuilds the interleaving of backward passes with that exact rule. The
//! result is dependency-valid by construction and never increases the
//! unit-cost makespan on the benchmarked shapes (asserted by tests).

use mepipe_schedule::{
    deps::{backward_descendants, dependencies},
    exec::{simulate, SimConfig, UnitCost},
    ir::{Op, OpKind, Schedule},
};

/// Rebuilds backward placements by descendant-count priority, preserving
/// each worker's forward order. Weight-gradient ops follow their
/// input-gradient op as in the input schedule.
pub fn reschedule_backwards(schedule: &Schedule) -> Result<Schedule, String> {
    let meta = schedule.meta.clone();
    let p = meta.stages;

    // Fixed forward orders.
    let fwd_order: Vec<Vec<Op>> = schedule
        .workers
        .iter()
        .map(|ops| {
            ops.iter()
                .copied()
                .filter(|o| o.kind == OpKind::Forward)
                .collect()
        })
        .collect();
    // Pending backwards per worker.
    let mut bwd_pending: Vec<Vec<Op>> = schedule
        .workers
        .iter()
        .map(|ops| {
            ops.iter()
                .copied()
                .filter(|o| o.kind.is_backward_pass())
                .collect()
        })
        .collect();

    let mut fwd_next = vec![0usize; p];
    // Keep the generator's 1F1B alternation: a backward hands the next
    // slot to a forward when one is ready, preserving the "single bubble
    // between consecutive backwards" structure the peak-memory analysis
    // relies on.
    let mut prefer_forward = vec![false; p];
    // Section 4.3: substitutions "maintain the same peak memory
    // utilization" — cap each worker's in-flight units at the input
    // schedule's peak.
    let caps = mepipe_schedule::validate::peak_in_flight(schedule);
    let mut in_flight = vec![0usize; p];
    // Tick at which each placed op finishes, at its `op_slot`.
    let mut finish: Vec<Option<usize>> = vec![None; meta.op_slots()];
    let mut lists: Vec<Vec<Op>> = vec![Vec::new(); p];
    let total: usize = fwd_order.iter().map(Vec::len).sum::<usize>()
        + bwd_pending.iter().map(Vec::len).sum::<usize>();
    let mut placed = 0usize;
    let mut tick = 0usize;
    let limit = 6 * total + 64;

    while placed < total {
        if tick > limit {
            return Err("rescheduling did not converge (dependency cycle?)".into());
        }
        for w in 0..p {
            // Highest-priority ready backward (Section 4.3's rule).
            let mut best: Option<(usize, usize)> = None; // (index, priority)
            for (i, op) in bwd_pending[w].iter().enumerate() {
                let ready = dependencies(&meta, w, *op)
                    .iter()
                    .all(|d| finish[meta.op_slot(d.stage, d.op)].is_some_and(|t| t <= tick));
                if !ready {
                    continue;
                }
                let prio = backward_descendants(&meta, w, *op);
                let better = match best {
                    None => true,
                    Some((bi, bp)) => {
                        prio > bp || (prio == bp && op.micro_batch < bwd_pending[w][bi].micro_batch)
                    }
                };
                if better {
                    best = Some((i, prio));
                }
            }
            // The next forward in the fixed order, if ready and within the
            // original schedule's memory envelope.
            let fwd_ready = fwd_next[w] < fwd_order[w].len() && in_flight[w] < caps[w] && {
                let op = fwd_order[w][fwd_next[w]];
                dependencies(&meta, w, op)
                    .iter()
                    .all(|d| finish[meta.op_slot(d.stage, d.op)].is_some_and(|t| t <= tick))
            };
            let run_forward = match (fwd_ready, best) {
                (true, Some(_)) => prefer_forward[w],
                (true, None) => true,
                (false, _) => false,
            };
            if run_forward {
                let op = fwd_order[w][fwd_next[w]];
                finish[meta.op_slot(w, op)] = Some(tick + 1);
                lists[w].push(op);
                fwd_next[w] += 1;
                in_flight[w] += 1;
                placed += 1;
                prefer_forward[w] = false;
            } else if let Some((i, _)) = best {
                let op = bwd_pending[w].remove(i);
                finish[meta.op_slot(w, op)] = Some(tick + 1);
                lists[w].push(op);
                if meta.split_backward {
                    lists[w].push(op.with_kind(OpKind::BackwardWeight));
                }
                in_flight[w] -= 1;
                placed += 1;
                prefer_forward[w] = true;
            }
        }
        tick += 1;
    }

    // Weight ops were already interleaved above for split schedules;
    // fused schedules carry none.
    let rescheduled = Schedule {
        meta,
        workers: lists,
    };

    // The optimisation targets the tail bubbles of v > 1 schedules; on
    // shapes where the descendant-priority order does not help, keep the
    // input (the paper applies the pass only where it removes bubbles).
    let makespan =
        |s: &Schedule| simulate(s, &UnitCost::ones(), &SimConfig::default()).map(|r| r.makespan);
    let before = makespan(schedule)?;
    if makespan(&rescheduled)? <= before {
        Ok(rescheduled)
    } else {
        Ok(schedule.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svpp::{fused, SvppConfig};
    use mepipe_schedule::validate::{peak_in_flight, validate};

    fn figure5a_config() -> SvppConfig {
        SvppConfig::new(4, 2, 2).virtual_chunks(2)
    }

    #[test]
    fn rescheduled_schedule_is_valid() {
        let s = fused(&figure5a_config()).unwrap();
        let r = reschedule_backwards(&s).unwrap();
        validate(&r).unwrap();
        assert_eq!(r.num_ops(), s.num_ops());
    }

    #[test]
    fn rescheduling_does_not_hurt_makespan() {
        for (p, v, s, n) in [
            (4usize, 2usize, 2usize, 2usize),
            (4, 2, 2, 4),
            (4, 1, 4, 8),
            (8, 2, 2, 8),
        ] {
            let cfg = SvppConfig::new(p, s, n).virtual_chunks(v);
            let before = fused(&cfg).unwrap();
            let after = reschedule_backwards(&before).unwrap();
            let tb = simulate(&before, &UnitCost::ones(), &SimConfig::default()).unwrap();
            let ta = simulate(&after, &UnitCost::ones(), &SimConfig::default()).unwrap();
            assert!(
                ta.makespan <= tb.makespan + 1e-9,
                "p={p} v={v} s={s} n={n}: {} > {}",
                ta.makespan,
                tb.makespan
            );
        }
    }

    #[test]
    fn rescheduling_preserves_peak_memory() {
        // Section 4.3: substitutions before the last forward keep the same
        // peak memory; the figure-6 result keeps peak at 1/2 A (8 units of
        // A/16 at p=4, v=2, s=2).
        let s = fused(&figure5a_config()).unwrap();
        let r = reschedule_backwards(&s).unwrap();
        assert!(peak_in_flight(&r)[0] <= peak_in_flight(&s)[0]);
    }

    #[test]
    fn works_on_split_schedules() {
        let cfg = figure5a_config();
        let s = crate::svpp::split(&cfg).unwrap();
        let r = reschedule_backwards(&s).unwrap();
        validate(&r).unwrap();
    }
}
