//! GPipe scheduling: all forwards, then all backwards.
//!
//! GPipe (Huang et al., NeurIPS '19) divides a batch into micro-batches
//! and runs every forward pass before any backward pass, so each worker
//! retains the activations of all `n` micro-batches — the memory behaviour
//! the 1F1B family was invented to fix (Section 2.1).

use crate::ir::{ChunkPlacement, Op, OpKind, Schedule, ScheduleMeta};

/// Generates a GPipe schedule for `stages` stages and `micro_batches`
/// micro-batches.
pub(crate) fn build(stages: usize, micro_batches: usize) -> Result<Schedule, String> {
    let meta = ScheduleMeta {
        name: "GPipe".into(),
        stages,
        virtual_chunks: 1,
        slices: 1,
        micro_batches,
        split_backward: false,
        placement: ChunkPlacement::Interleaved,
    };
    meta.check_shape()?;
    let workers = (0..stages)
        .map(|_| {
            let mut ops = Vec::with_capacity(2 * micro_batches);
            for mb in 0..micro_batches {
                ops.push(Op::new(OpKind::Forward, mb, 0, 0));
            }
            for mb in 0..micro_batches {
                ops.push(Op::new(OpKind::Backward, mb, 0, 0));
            }
            ops
        })
        .collect();
    Ok(Schedule { meta, workers })
}

/// Generates a GPipe schedule.
///
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, SimConfig, UnitCost};
    use crate::validate::{peak_in_flight, validate};

    #[test]
    fn gpipe_is_valid_and_memory_hungry() {
        let s = build(4, 8).unwrap();
        validate(&s).unwrap();
        // Every worker holds all n micro-batches at the forward/backward
        // boundary.
        assert_eq!(peak_in_flight(&s), vec![8, 8, 8, 8]);
    }

    #[test]
    fn gpipe_bubble_ratio_matches_formula() {
        // With fwd = bwd = 1, GPipe's bubble fraction is
        // 2(p-1) / (2n + 2(p-1)).
        let (p, n) = (4usize, 8usize);
        let s = build(p, n).unwrap();
        let t = simulate(&s, &UnitCost::ones(), &SimConfig::default()).unwrap();
        let expected = 2.0 * (p as f64 - 1.0) / (2.0 * n as f64 + 2.0 * (p as f64 - 1.0));
        assert!(
            (t.bubble_ratio() - expected).abs() < 1e-9,
            "got {}, want {expected}",
            t.bubble_ratio()
        );
    }

    #[test]
    fn zero_stage_is_rejected() {
        assert!(build(0, 4).is_err());
        assert!(build(4, 0).is_err());
    }
}
