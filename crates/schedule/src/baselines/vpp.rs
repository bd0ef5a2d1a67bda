//! Megatron-LM interleaved virtual pipeline parallelism (VPP).
//!
//! VPP splits the model into `v` chunks per stage (interleaved placement)
//! and runs 1F1B over chunk-level units. Micro-batches are processed in
//! groups of `p`: within a group the scheduler sweeps chunk 0 across the
//! group's `p` micro-batches, then chunk 1, and so on, which keeps every
//! stage fed during the fill phase. Stage `w` warms up with
//! `2(p − 1 − w) + (v − 1)·p` chunk passes — the reason VPP's peak
//! activation count is `v·p + p − 1` units (Table 3: `(1 + (p−1)/(p·v))·A`).

use crate::ir::{ChunkPlacement, Op, OpKind, Schedule, ScheduleMeta};

/// Generates a Megatron-style interleaved VPP schedule.
///
/// Requires `micro_batches % stages == 0` (Megatron's own constraint for
/// the interleaved scheduler).
pub(crate) fn build(
    stages: usize,
    virtual_chunks: usize,
    micro_batches: usize,
) -> Result<Schedule, String> {
    let meta = ScheduleMeta {
        name: "VPP".into(),
        stages,
        virtual_chunks,
        slices: 1,
        micro_batches,
        split_backward: false,
        placement: ChunkPlacement::Interleaved,
    };
    meta.check_shape()?;
    if !micro_batches.is_multiple_of(stages) {
        return Err(format!(
            "interleaved VPP requires micro_batches ({micro_batches}) divisible by stages ({stages})"
        ));
    }
    let p = stages;
    let v = virtual_chunks;
    let total = micro_batches * v;

    // Unit `k` of the forward (or backward) sequence on any worker.
    let fwd_unit = |k: usize| -> Op {
        let group = k / (p * v);
        let r = k % (p * v);
        Op::new(OpKind::Forward, group * p + r % p, 0, r / p)
    };
    let bwd_unit = |k: usize| -> Op {
        let group = k / (p * v);
        let r = k % (p * v);
        Op::new(OpKind::Backward, group * p + r % p, 0, v - 1 - r / p)
    };

    let workers = (0..p)
        .map(|w| {
            // Megatron's warmup count; with a single chunk the interleaved
            // scheduler degenerates to plain 1F1B (warmup p − 1 − w).
            let warmup = if v == 1 {
                (p - 1 - w).min(total)
            } else {
                (2 * (p - 1 - w) + (v - 1) * p).min(total)
            };
            let mut ops = Vec::with_capacity(2 * total);
            let mut fi = 0usize;
            let mut bi = 0usize;
            while fi < warmup {
                ops.push(fwd_unit(fi));
                fi += 1;
            }
            while fi < total {
                ops.push(fwd_unit(fi));
                fi += 1;
                ops.push(bwd_unit(bi));
                bi += 1;
            }
            while bi < total {
                ops.push(bwd_unit(bi));
                bi += 1;
            }
            ops
        })
        .collect();
    Ok(Schedule { meta, workers })
}

/// Generates a Megatron interleaved (VPP) schedule.
///
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, SimConfig, UnitCost};
    use crate::validate::{peak_in_flight, validate};

    #[test]
    fn vpp_is_valid() {
        for (p, v, n) in [(2usize, 2usize, 4usize), (4, 2, 8), (4, 4, 8), (4, 2, 4)] {
            let s = build(p, v, n).unwrap();
            validate(&s).unwrap_or_else(|_| panic!("p={p} v={v} n={n}"));
        }
    }

    #[test]
    fn indivisible_microbatches_rejected() {
        assert!(build(4, 2, 6).is_err());
    }

    #[test]
    fn v1_reduces_to_dapple_memory() {
        let s = build(4, 1, 8).unwrap();
        validate(&s).unwrap();
        assert_eq!(peak_in_flight(&s)[0], 4);
    }

    #[test]
    fn peak_units_match_table3() {
        // Table 3 VPP memory: (1 + (p-1)/(p·v))·A = (v·p + p − 1) units of
        // A/(p·v) on stage 0.
        let (p, v, n) = (4usize, 2usize, 16usize);
        let s = build(p, v, n).unwrap();
        let peak = peak_in_flight(&s)[0];
        assert_eq!(peak, v * p + p - 1);
    }

    #[test]
    fn bubble_shrinks_with_v() {
        let (p, n) = (4usize, 8usize);
        let b: Vec<f64> = [1usize, 2, 4]
            .iter()
            .map(|&v| {
                let s = build(p, v, n).unwrap();
                // Chunk passes take 1/v the time of a full-stage pass.
                let cost = UnitCost {
                    wgrad: 0.0,
                    ..UnitCost::ones()
                };
                let t = simulate(&s, &cost, &SimConfig::default()).unwrap();
                // Normalise: busy work per worker is 2·n·v ticks regardless
                // of v only because chunk ticks shrink; compare ratios.
                t.bubble_ratio()
            })
            .collect();
        assert!(b[1] < b[0], "v=2 should beat v=1: {b:?}");
        assert!(b[2] < b[1], "v=4 should beat v=2: {b:?}");
    }

    #[test]
    fn bubble_close_to_table3_formula() {
        // Table 3: (p-1)/(p-1+n·v). The interleaved schedule has a few
        // extra transition bubbles, so allow a modest tolerance.
        let (p, v, n) = (4usize, 2usize, 16usize);
        let s = build(p, v, n).unwrap();
        let t = simulate(&s, &UnitCost::ones(), &SimConfig::default()).unwrap();
        let expected = (p as f64 - 1.0) / (p as f64 - 1.0 + (n * v) as f64);
        assert!(
            (t.bubble_ratio() - expected).abs() < 0.06,
            "got {}, want ~{expected}",
            t.bubble_ratio()
        );
    }
}
