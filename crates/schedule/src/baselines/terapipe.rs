//! TeraPipe: token-level (slice-level) sequence pipeline parallelism
//! scheduled GPipe-style (Figure 3 of the paper).
//!
//! TeraPipe cuts every sample into `s` token slices and pipelines the
//! slices, exploiting causal attention: slice `i` only needs the key/value
//! tensors of slices `≤ i`. Scheduling, however, remains GPipe-shaped —
//! all forward passes of all samples run before the first backward pass —
//! so every worker retains the activations of the *entire batch*
//! (`n/p · A` per worker, Table 3), the memory problem SVPP solves.

use crate::ir::{ChunkPlacement, Op, OpKind, Schedule, ScheduleMeta};

/// Generates a TeraPipe schedule: `stages` stages, `micro_batches`
/// samples, `slices` slices per sample.
pub(crate) fn build(
    stages: usize,
    micro_batches: usize,
    slices: usize,
) -> Result<Schedule, String> {
    let meta = ScheduleMeta {
        name: "TeraPipe".into(),
        stages,
        virtual_chunks: 1,
        slices,
        micro_batches,
        split_backward: false,
        placement: ChunkPlacement::Interleaved,
    };
    meta.check_shape()?;
    let workers = (0..stages)
        .map(|_| {
            let mut ops = Vec::with_capacity(2 * micro_batches * slices);
            for mb in 0..micro_batches {
                for sl in 0..slices {
                    ops.push(Op::new(OpKind::Forward, mb, sl, 0));
                }
            }
            // Backwards mirror the forwards: same sample order, slices
            // reversed (dK/dV accumulate from later slices first).
            for mb in 0..micro_batches {
                for sl in (0..slices).rev() {
                    ops.push(Op::new(OpKind::Backward, mb, sl, 0));
                }
            }
            ops
        })
        .collect();
    Ok(Schedule { meta, workers })
}

/// Generates a TeraPipe schedule.
///
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, SimConfig, UnitCost};
    use crate::validate::{peak_in_flight, validate};

    #[test]
    fn terapipe_is_valid() {
        for (p, n, s) in [(4usize, 4usize, 2usize), (4, 8, 4), (8, 4, 8), (2, 1, 4)] {
            let sch = build(p, n, s).unwrap();
            validate(&sch).expect("valid");
        }
    }

    #[test]
    fn all_activations_retained() {
        // Section 2.1: "workers need to preserve the activations of all
        // samples before processing the first backward passes".
        let sch = build(4, 8, 4).unwrap();
        assert_eq!(peak_in_flight(&sch), vec![32; 4]);
    }

    #[test]
    fn bubble_matches_table3_formula() {
        // Table 3: (p-1)/(ns+p-1). With unit costs the forward phase spans
        // ns + p - 1 and the backward phase the same, both with p-1 idle.
        for (p, n, s) in [(4usize, 8usize, 2usize), (4, 4, 4), (8, 8, 2)] {
            let sch = build(p, n, s).unwrap();
            let t = simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
            let expected = (p as f64 - 1.0) / (n as f64 * s as f64 + p as f64 - 1.0);
            assert!(
                (t.bubble_ratio() - expected).abs() < 1e-9,
                "p={p} n={n} s={s}: got {}, want {expected}",
                t.bubble_ratio()
            );
        }
    }

    #[test]
    fn finer_slices_shrink_bubbles() {
        let coarse = build(4, 4, 1).unwrap();
        let fine = build(4, 4, 8).unwrap();
        let bc = simulate(&coarse, &UnitCost::ones(), &SimConfig::default())
            .unwrap()
            .bubble_ratio();
        let bf = simulate(&fine, &UnitCost::ones(), &SimConfig::default())
            .unwrap()
            .bubble_ratio();
        assert!(bf < bc);
    }
}
