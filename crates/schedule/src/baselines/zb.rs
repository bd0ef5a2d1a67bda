//! ZB-1P: zero-bubble pipeline parallelism over the 1F1B skeleton.
//!
//! Zero bubble PP (Qi et al., ICLR '24) splits every backward pass into an
//! input-gradient half `B` (on the critical path — it feeds the upstream
//! stage) and a weight-gradient half `W` (free to float). The static list
//! here places each `W` right after its `B`, which is exactly DAPPLE; the
//! zero-bubble effect comes from *deferring* `W`s into bubbles, which the
//! simulator performs with its dynamic weight-gradient drain — the same
//! mechanism MEPipe refines to GEMM granularity (Section 5).

use crate::{
    baselines::dapple::one_f_one_b_order,
    ir::{ChunkPlacement, Schedule, ScheduleMeta},
};

/// Generates a ZB-1P schedule (split-backward 1F1B).
pub(crate) fn build(stages: usize, micro_batches: usize) -> Result<Schedule, String> {
    let meta = ScheduleMeta {
        name: "ZB".into(),
        stages,
        virtual_chunks: 1,
        slices: 1,
        micro_batches,
        split_backward: true,
        placement: ChunkPlacement::Interleaved,
    };
    meta.check_shape()?;
    let workers = (0..stages)
        .map(|w| one_f_one_b_order(stages, micro_batches, w, true))
        .collect();
    Ok(Schedule { meta, workers })
}

/// Generates a ZB-1P schedule.
///
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, SimConfig, UnitCost};
    use crate::ir::OpKind;
    use crate::validate::{peak_in_flight, validate};

    #[test]
    fn zb_is_valid() {
        for (p, n) in [(2usize, 4usize), (4, 8), (8, 16)] {
            let s = build(p, n).unwrap();
            validate(&s).expect("valid");
        }
    }

    #[test]
    fn zb_has_three_ops_per_unit() {
        let s = build(4, 8).unwrap();
        assert_eq!(s.workers[0].len(), 3 * 8);
        let weights = s.workers[0]
            .iter()
            .filter(|o| o.kind == OpKind::BackwardWeight)
            .count();
        assert_eq!(weights, 8);
    }

    #[test]
    fn same_peak_activations_as_dapple() {
        let zb = build(4, 8).unwrap();
        let dapple = crate::baselines::dapple::build(4, 8).unwrap();
        assert_eq!(peak_in_flight(&zb), peak_in_flight(&dapple));
    }

    #[test]
    fn splitting_b_shortens_the_critical_path() {
        // With B = 1 and W = 1 (together equal to DAPPLE's fused bwd = 2),
        // the split schedule can finish no later even in the static layout,
        // and the downstream stage unblocks earlier.
        let (p, n) = (4usize, 8usize);
        let zb = build(p, n).unwrap();
        let da = crate::baselines::dapple::build(p, n).unwrap();
        let tz = simulate(&zb, &UnitCost::ones(), &SimConfig::default()).unwrap();
        let td = simulate(&da, &UnitCost::one_two(), &SimConfig::default()).unwrap();
        assert!(tz.makespan <= td.makespan);
    }
}
