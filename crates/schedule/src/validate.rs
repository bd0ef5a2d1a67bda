//! Schedule validation: completeness and executability.
//!
//! Two properties make a schedule well-formed:
//!
//! 1. **Completeness** — every worker lists exactly one forward and one
//!    backward (plus one weight op when split) for each of its
//!    `n × s × v` units, with no duplicates and no foreign ops.
//! 2. **Executability** — following each worker's list order never
//!    deadlocks: an op only needs producers that appear earlier in their
//!    own workers' lists. This is checked by a worklist simulation.

use crate::{
    deps::dependencies,
    ir::{OpKind, Schedule},
};

/// Validates completeness and executability; `Err` describes the first
/// violation found.
pub fn validate(schedule: &Schedule) -> Result<(), String> {
    schedule.meta.check_shape()?;
    check_completeness(schedule)?;
    check_executability(schedule)
}

fn check_completeness(schedule: &Schedule) -> Result<(), String> {
    let meta = &schedule.meta;
    if schedule.workers.len() != meta.stages {
        return Err(format!(
            "schedule has {} worker lists but meta declares {} stages",
            schedule.workers.len(),
            meta.stages
        ));
    }
    let backward_kind = if meta.split_backward {
        OpKind::BackwardInput
    } else {
        OpKind::Backward
    };
    let mut seen = vec![false; meta.op_slots()];
    for (w, ops) in schedule.workers.iter().enumerate() {
        if ops.len() != schedule.expected_ops_per_worker() {
            return Err(format!(
                "worker {w} has {} ops, expected {}",
                ops.len(),
                schedule.expected_ops_per_worker()
            ));
        }
        for op in ops {
            if op.micro_batch >= meta.micro_batches
                || op.slice >= meta.slices
                || op.chunk >= meta.virtual_chunks
            {
                return Err(format!("worker {w}: op {op} out of shape"));
            }
            if let Some(c) = meta.chunk_of_mb(op.micro_batch) {
                if op.chunk != c {
                    return Err(format!(
                        "worker {w}: op {op} on chunk {} but its micro-batch's \
                         direction uses chunk {c}",
                        op.chunk
                    ));
                }
            }
            match op.kind {
                OpKind::Forward => {}
                k if k == backward_kind => {}
                OpKind::BackwardWeight if meta.split_backward => {}
                k => {
                    return Err(format!(
                        "worker {w}: op kind {k:?} not allowed (split_backward = {})",
                        meta.split_backward
                    ))
                }
            }
            // In shape and of an allowed kind, so its slot is its own.
            let slot = meta.op_slot(w, *op);
            if seen[slot] {
                return Err(format!("worker {w}: duplicate op {op}"));
            }
            seen[slot] = true;
        }
    }
    Ok(())
}

fn check_executability(schedule: &Schedule) -> Result<(), String> {
    let meta = &schedule.meta;
    let mut next = vec![0usize; schedule.num_workers()];
    let mut done = vec![false; meta.op_slots()];
    let total = schedule.num_ops();
    let mut executed = 0usize;
    loop {
        let mut progress = false;
        for (w, ptr) in next.iter_mut().enumerate() {
            // Drain every currently-runnable op on this worker.
            while *ptr < schedule.workers[w].len() {
                let op = schedule.workers[w][*ptr];
                let ready = dependencies(meta, w, op)
                    .iter()
                    .all(|d| done[meta.op_slot(d.stage, d.op)]);
                if !ready {
                    break;
                }
                done[meta.op_slot(w, op)] = true;
                *ptr += 1;
                executed += 1;
                progress = true;
            }
        }
        if executed == total {
            return Ok(());
        }
        if !progress {
            let (w, op) = (0..schedule.num_workers())
                .find(|&w| next[w] < schedule.workers[w].len())
                .map(|w| (w, schedule.workers[w][next[w]]))
                .expect("some worker must be stuck");
            let missing: Vec<String> = dependencies(meta, w, op)
                .iter()
                .filter(|d| !done[meta.op_slot(d.stage, d.op)])
                .map(|d| format!("{} on stage {}", d.op, d.stage))
                .collect();
            return Err(format!(
                "deadlock at worker {w}: {op} waits for [{}]",
                missing.join(", ")
            ));
        }
    }
}

/// Peak number of in-flight forward units per worker (forwards issued minus
/// backward passes completed, running maximum over the list order) — the
/// quantity the paper's activation-memory analysis counts.
pub fn peak_in_flight(schedule: &Schedule) -> Vec<usize> {
    schedule
        .workers
        .iter()
        .map(|ops| {
            let mut cur: isize = 0;
            let mut peak: isize = 0;
            for op in ops {
                match op.kind {
                    OpKind::Forward => {
                        cur += 1;
                        peak = peak.max(cur);
                    }
                    OpKind::Backward | OpKind::BackwardInput => cur -= 1,
                    OpKind::BackwardWeight => {}
                }
            }
            peak.max(0) as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ChunkPlacement, Op, ScheduleMeta};

    fn tiny_meta() -> ScheduleMeta {
        ScheduleMeta {
            name: "tiny".into(),
            stages: 2,
            virtual_chunks: 1,
            slices: 1,
            micro_batches: 1,
            split_backward: false,
            placement: ChunkPlacement::Interleaved,
        }
    }

    fn op(kind: OpKind, mb: usize) -> Op {
        Op::new(kind, mb, 0, 0)
    }

    #[test]
    fn valid_two_stage_schedule_passes() {
        let s = Schedule {
            meta: tiny_meta(),
            workers: vec![
                vec![op(OpKind::Forward, 0), op(OpKind::Backward, 0)],
                vec![op(OpKind::Forward, 0), op(OpKind::Backward, 0)],
            ],
        };
        assert!(validate(&s).is_ok());
        assert_eq!(peak_in_flight(&s), vec![1, 1]);
    }

    #[test]
    fn missing_op_is_rejected() {
        let s = Schedule {
            meta: tiny_meta(),
            workers: vec![
                vec![op(OpKind::Forward, 0)],
                vec![op(OpKind::Forward, 0), op(OpKind::Backward, 0)],
            ],
        };
        assert!(validate(&s).unwrap_err().contains("expected"));
    }

    #[test]
    fn duplicate_op_is_rejected() {
        let s = Schedule {
            meta: tiny_meta(),
            workers: vec![
                vec![op(OpKind::Forward, 0), op(OpKind::Forward, 0)],
                vec![op(OpKind::Forward, 0), op(OpKind::Backward, 0)],
            ],
        };
        assert!(validate(&s).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn backward_before_forward_deadlocks() {
        let s = Schedule {
            meta: tiny_meta(),
            workers: vec![
                vec![op(OpKind::Backward, 0), op(OpKind::Forward, 0)],
                vec![op(OpKind::Forward, 0), op(OpKind::Backward, 0)],
            ],
        };
        let err = validate(&s).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn wrong_backward_kind_is_rejected() {
        let s = Schedule {
            meta: tiny_meta(),
            workers: vec![
                vec![op(OpKind::Forward, 0), op(OpKind::BackwardInput, 0)],
                vec![op(OpKind::Forward, 0), op(OpKind::Backward, 0)],
            ],
        };
        assert!(validate(&s).is_err());
    }
}
