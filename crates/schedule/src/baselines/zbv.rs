//! ZBV: zero-bubble scheduling over a V-shaped two-chunk placement.
//!
//! ZBV (Qi et al.) gives every worker two model chunks placed in a "V":
//! chunk 0 descends the stages, chunk 1 climbs back, so stage 0 hosts both
//! the model's entry and its exit. The loss is therefore computed on stage
//! 0 and backward chains start where forwards end, shrinking fill/drain
//! bubbles. Backwards are split zero-bubble style. The paper uses ZBV as
//! the strongest baseline but notes it replicates more parameters per
//! worker (only `p = slots/2` stages possible) and consumes more memory
//! (Section 7.2).
//!
//! Generation uses the shared greedy capacity-bounded generator with the
//! V placement; capacities default to `2(p − w)` chunk units (stage 0's
//! natural fill under the V shape), floored at 2.

use crate::{
    generate::greedy_generate,
    ir::{ChunkPlacement, Schedule, ScheduleMeta},
};

/// Generates a ZBV schedule: `stages` stages, two V-placed chunks each.
pub(crate) fn build(stages: usize, micro_batches: usize) -> Result<Schedule, String> {
    let meta = ScheduleMeta {
        name: "ZBV".into(),
        stages,
        virtual_chunks: 2,
        slices: 1,
        micro_batches,
        split_backward: true,
        placement: ChunkPlacement::VShape,
    };
    meta.check_shape()?;
    // ZBV bounds activation memory to the 1F1B level — `p` full-stage
    // units, i.e. `2p` half-size chunk units — roughly uniformly across
    // stages (the balanced memory profile is one of ZBV's selling points).
    let caps: Vec<usize> = vec![(2 * stages).max(2); stages];
    greedy_generate(&meta, &caps)
}

/// Generates a ZBV schedule.
///
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, SimConfig, UnitCost};
    use crate::validate::{peak_in_flight, validate};

    #[test]
    fn zbv_is_valid() {
        for (p, n) in [(2usize, 4usize), (4, 8), (4, 4), (8, 8)] {
            let s = build(p, n).unwrap();
            validate(&s).unwrap_or_else(|_| panic!("p={p} n={n}"));
        }
    }

    #[test]
    fn stage0_peak_is_about_2p() {
        let s = build(4, 8).unwrap();
        let peaks = peak_in_flight(&s);
        assert!(peaks[0] <= 8, "peaks = {peaks:?}");
        assert!(peaks[0] >= 4, "peaks = {peaks:?}");
    }

    #[test]
    fn zbv_beats_dapple_bubbles_at_equal_work() {
        let (p, n) = (4usize, 8usize);
        let zbv = build(p, n).unwrap();
        let da = crate::baselines::dapple::build(p, n).unwrap();
        // ZBV chunk ops are half-size: F/B/W = 1 tick each per half-chunk
        // vs DAPPLE's 2-tick forward / 4-tick fused backward.
        let tz = simulate(&zbv, &UnitCost::ones(), &SimConfig::default()).unwrap();
        let td = simulate(
            &da,
            &UnitCost {
                fwd: 2.0,
                bwd: 4.0,
                wgrad: 0.0,
                ..UnitCost::ones()
            },
            &SimConfig::default(),
        )
        .unwrap();
        assert!(
            tz.bubble_ratio() < td.bubble_ratio(),
            "zbv {} vs dapple {}",
            tz.bubble_ratio(),
            td.bubble_ratio()
        );
    }
}
