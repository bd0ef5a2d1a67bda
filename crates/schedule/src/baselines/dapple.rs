//! DAPPLE / PipeDream-flush 1F1B scheduling (Figure 2 of the paper).
//!
//! Worker `w` warms up with `min(p − 1 − w, n)` forward passes, then
//! alternates one forward with one backward, and drains the remaining
//! backwards. The first stage holds `p` micro-batches of activations at
//! its peak — the memory behaviour MEPipe attacks.

use crate::ir::{ChunkPlacement, Op, OpKind, Schedule, ScheduleMeta};

/// Generates a DAPPLE (1F1B) schedule.
pub(crate) fn build(stages: usize, micro_batches: usize) -> Result<Schedule, String> {
    let meta = ScheduleMeta {
        name: "DAPPLE".into(),
        stages,
        virtual_chunks: 1,
        slices: 1,
        micro_batches,
        split_backward: false,
        placement: ChunkPlacement::Interleaved,
    };
    meta.check_shape()?;
    let workers = (0..stages)
        .map(|w| one_f_one_b_order(stages, micro_batches, w, false))
        .collect();
    Ok(Schedule { meta, workers })
}

/// The canonical 1F1B op order for one worker; shared with the ZB-1P
/// generator (which splits each backward).
pub(crate) fn one_f_one_b_order(
    stages: usize,
    micro_batches: usize,
    worker: usize,
    split: bool,
) -> Vec<Op> {
    let warmup = (stages - 1 - worker).min(micro_batches);
    let mut ops = Vec::new();
    let push_b = |ops: &mut Vec<Op>, mb: usize| {
        if split {
            ops.push(Op::new(OpKind::BackwardInput, mb, 0, 0));
            ops.push(Op::new(OpKind::BackwardWeight, mb, 0, 0));
        } else {
            ops.push(Op::new(OpKind::Backward, mb, 0, 0));
        }
    };
    for mb in 0..warmup {
        ops.push(Op::new(OpKind::Forward, mb, 0, 0));
    }
    let mut next_b = 0usize;
    for mb in warmup..micro_batches {
        ops.push(Op::new(OpKind::Forward, mb, 0, 0));
        push_b(&mut ops, next_b);
        next_b += 1;
    }
    while next_b < micro_batches {
        push_b(&mut ops, next_b);
        next_b += 1;
    }
    ops
}

/// Generates a DAPPLE (1F1B) schedule.
///
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, SimConfig, UnitCost};
    use crate::validate::{peak_in_flight, validate};

    #[test]
    fn dapple_is_valid() {
        for (p, n) in [(2usize, 2usize), (4, 8), (8, 16), (4, 2)] {
            let s = build(p, n).unwrap();
            validate(&s).expect("valid");
        }
    }

    #[test]
    fn first_stage_holds_p_microbatches() {
        // Section 2.1: "the first stage still needs to save activations
        // for p forward passes".
        let s = build(4, 8).unwrap();
        let peaks = peak_in_flight(&s);
        assert_eq!(peaks[0], 4);
        assert_eq!(peaks[3], 1);
        // Monotone decrease across stages.
        assert!(peaks.windows(2).all(|x| x[0] >= x[1]));
    }

    #[test]
    fn bubble_matches_table3_formula() {
        // Table 3: bubble ratio (p-1)/(p-1+n) with balanced F/B; with
        // fwd = bwd = 1 the makespan is 2n + 2(p-1).
        for (p, n) in [(4usize, 8usize), (8, 16), (4, 4)] {
            let s = build(p, n).unwrap();
            let t = simulate(&s, &UnitCost::ones(), &SimConfig::default()).unwrap();
            let expected = (p as f64 - 1.0) / (p as f64 - 1.0 + n as f64);
            assert!(
                (t.bubble_ratio() - expected).abs() < 1e-9,
                "p={p} n={n}: got {}, want {expected}",
                t.bubble_ratio()
            );
        }
    }

    #[test]
    fn fewer_microbatches_than_stages_still_valid() {
        let s = build(8, 3).unwrap();
        validate(&s).unwrap();
        assert_eq!(peak_in_flight(&s)[0], 3);
    }
}
