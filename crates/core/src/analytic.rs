//! Closed-form bubble-ratio and activation-memory analysis (Table 3).
//!
//! All expressions are taken verbatim from Table 3 of the paper, under its
//! assumptions: evenly partitioned computation graph, balanced stages,
//! inter-stage communication ignored, forward and backward of one unit
//! costing one slot each. Memory is reported as a fraction of `A`, the
//! activation footprint of one whole sample through the whole model.
//!
//! The analysis distinguishes two regimes: `n ≥ p` (small clusters, plenty
//! of micro-batches) and `n < p` (very large clusters where the global
//! batch size constrains `n`).

use mepipe_schedule::{exec::UnitCost, ir::ScheduleMeta};

/// Shape parameters of the analysis (Table 1 notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalysisParams {
    /// Pipeline stages `p`.
    pub p: usize,
    /// Virtual pipeline size `v`.
    pub v: usize,
    /// Sequence pipeline size `s`.
    pub s: usize,
    /// Number of micro-batches `n`.
    pub n: usize,
}

impl AnalysisParams {
    fn pf(&self) -> f64 {
        self.p as f64
    }
    fn vf(&self) -> f64 {
        self.v as f64
    }
    fn sf(&self) -> f64 {
        self.s as f64
    }
    fn nf(&self) -> f64 {
        self.n as f64
    }
}

/// One row of Table 3 for concrete parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisRow {
    /// Method name as printed in the paper.
    pub method: &'static str,
    /// Bubble ratio, or `None` where the paper marks the case unsupported.
    pub bubble_ratio: Option<f64>,
    /// Peak activation memory as a fraction of `A`, or `None` if
    /// unsupported.
    pub memory_fraction: Option<f64>,
}

/// DAPPLE: bubble `(p−1)/(p−1+n)`; memory `A` when `n ≥ p`, else `n/p·A`.
pub fn dapple(a: AnalysisParams) -> AnalysisRow {
    let bubble = (a.pf() - 1.0) / (a.pf() - 1.0 + a.nf());
    let mem = if a.n >= a.p { 1.0 } else { a.nf() / a.pf() };
    AnalysisRow {
        method: "DAPPLE",
        bubble_ratio: Some(bubble),
        memory_fraction: Some(mem),
    }
}

/// Megatron VPP: bubble `(p−1)/(p−1+n·v)`; memory
/// `min(1 + (p−1)/(p·v), n/p)·A` — the first term is the interleaved
/// warmup's `v·p + p − 1` chunk units, the second caps it at holding the
/// entire batch (`n` micro-batches of `A/p` each). Table 3 marks the
/// `n < p` case unsupported.
pub fn vpp(a: AnalysisParams) -> AnalysisRow {
    if a.n < a.p {
        return AnalysisRow {
            method: "VPP",
            bubble_ratio: None,
            memory_fraction: None,
        };
    }
    let bubble = (a.pf() - 1.0) / (a.pf() - 1.0 + a.nf() * a.vf());
    let mem = (1.0 + (a.pf() - 1.0) / (a.pf() * a.vf())).min(a.nf() / a.pf());
    AnalysisRow {
        method: "VPP",
        bubble_ratio: Some(bubble),
        memory_fraction: Some(mem),
    }
}

/// Hanayo: bubble `(p−1)/(p−1+n·v)` and memory `A` for `n ≥ p`;
/// bubble `(v·p+n−1−n·v)/(v·p+n−1)` and memory `n/p·A` for `n < p`.
pub fn hanayo(a: AnalysisParams) -> AnalysisRow {
    if a.n >= a.p {
        let bubble = (a.pf() - 1.0) / (a.pf() - 1.0 + a.nf() * a.vf());
        AnalysisRow {
            method: "Hanayo",
            bubble_ratio: Some(bubble),
            memory_fraction: Some(1.0),
        }
    } else {
        let bubble =
            (a.vf() * a.pf() + a.nf() - 1.0 - a.nf() * a.vf()) / (a.vf() * a.pf() + a.nf() - 1.0);
        AnalysisRow {
            method: "Hanayo",
            bubble_ratio: Some(bubble),
            memory_fraction: Some(a.nf() / a.pf()),
        }
    }
}

/// TeraPipe: bubble `(p−1)/(n·s+p−1)`; memory `n/p·A` in both regimes.
pub fn terapipe(a: AnalysisParams) -> AnalysisRow {
    let bubble = (a.pf() - 1.0) / (a.nf() * a.sf() + a.pf() - 1.0);
    AnalysisRow {
        method: "TeraPipe",
        bubble_ratio: Some(bubble),
        memory_fraction: Some(a.nf() / a.pf()),
    }
}

/// SVPP peak activation fraction: `(v·max(p,s) + min(p,s) − 1)/(v·s·p)`.
pub fn svpp_memory_fraction(a: AnalysisParams) -> f64 {
    let num = a.vf() * a.pf().max(a.sf()) + a.pf().min(a.sf()) - 1.0;
    num / (a.vf() * a.sf() * a.pf())
}

/// SVPP (MEPipe): bubble `(p−1)/(n·s·v+p−1)` for `n ≥ p`; for `n < p`,
/// `(p−1+(v−1)·max(p−s·n,0)) / (p−1+(v−1)·max(p−s·n,0)+n·v·s)`. Memory is
/// the Section 4.1 peak, additionally capped by the TeraPipe bound `n/p`
/// in the large-cluster regime.
pub fn svpp(a: AnalysisParams) -> AnalysisRow {
    let mem_small = svpp_memory_fraction(a);
    if a.n >= a.p {
        let bubble = (a.pf() - 1.0) / (a.nf() * a.sf() * a.vf() + a.pf() - 1.0);
        AnalysisRow {
            method: "SVPP",
            bubble_ratio: Some(bubble),
            memory_fraction: Some(mem_small),
        }
    } else {
        let extra = (a.vf() - 1.0) * (a.pf() - a.sf() * a.nf()).max(0.0);
        let bubble = (a.pf() - 1.0 + extra) / (a.pf() - 1.0 + extra + a.nf() * a.vf() * a.sf());
        AnalysisRow {
            method: "SVPP",
            bubble_ratio: Some(bubble),
            memory_fraction: Some(mem_small.min(a.nf() / a.pf())),
        }
    }
}

/// Per-slice pricing of one schedulable unit, the inputs to
/// [`compute_floor_seconds`].
#[derive(Debug, Clone, Copy)]
pub struct FloorInputs<'a> {
    /// Forward time per slice (length `s`).
    pub forward: &'a [f64],
    /// Input-gradient backward time per slice (length `s`).
    pub backward_input: &'a [f64],
    /// Weight-gradient time per unit (slice-independent).
    pub wgrad: f64,
    /// Per-iteration terms appended after the last compute (data-parallel
    /// sync and the optimizer step).
    pub overhead: f64,
}

/// A sound lower bound, in seconds, on the simulated iteration time of
/// *any* pipeline schedule with these shape parameters.
///
/// The floor is the larger of two dependency arguments, each of which no
/// schedule in the 1F1B family can beat:
///
/// * **ramp + busy** — the last stage's first op consumes a tensor that
///   already crossed `p−1` stages (≥ `(p−1)·min f`), and after that the
///   stage still executes the forward, input-gradient *and*
///   weight-gradient work of all `n·v` units of every slice serially;
/// * **ramp + chain** — the last stage cannot emit its final activation
///   gradient before finishing all of its forward and input-gradient
///   work, and that gradient then traverses a dependency chain of at
///   least `p−1` further backward ops (≥ `(p−1)·min b`).
///
/// Bubbles, communication stalls and memory-induced drains only push the
/// simulated time *above* this floor, so branch-and-bound pruning with
/// it never discards the optimum.
pub fn compute_floor_seconds(a: AnalysisParams, inputs: FloorInputs<'_>) -> f64 {
    let units = (a.n * a.v) as f64;
    let hops = (a.p - 1) as f64;
    let fwd_sum: f64 = inputs.forward.iter().sum();
    let bwd_sum: f64 = inputs.backward_input.iter().sum();
    let f_min = inputs.forward.iter().copied().fold(f64::INFINITY, f64::min);
    let b_min = inputs
        .backward_input
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let ramp = hops * f_min;
    let slices = inputs.forward.len() as f64;
    let busy = units * (fwd_sum + bwd_sum + slices * inputs.wgrad) + ramp;
    let chain = ramp + units * (fwd_sum + bwd_sum) + hops * b_min;
    busy.max(chain) + inputs.overhead
}

/// A sound lower bound on the makespan, priced by `costs`, of any
/// schedule of `meta` in which worker `w` never holds more than
/// `caps[w]` units in flight (`validate::peak_in_flight`; every cap at
/// least 1). The greedy generator guarantees that bound for an
/// interleaved schedule it builds under `caps`.
///
/// A unit stays in flight on its worker from the start of its forward
/// to the end of its input-gradient backward, and in between its
/// forwards run out to the loss position and its backwards come back: at
/// chain position `g` that takes at least `(last − g + 1)·(fwd + bwd)`.
/// By Little's law a worker that holds at most `caps[w]` units at once
/// needs at least `Σ latency / caps[w]` to hold all of its units, so the
/// makespan is at least the largest such quotient. Transfers and waits
/// only lengthen a unit's stay.
pub fn inflight_floor(meta: &ScheduleMeta, caps: &[usize], costs: &UnitCost) -> f64 {
    let last = meta.last_chain_pos();
    (0..meta.stages)
        .map(|w| {
            let links: usize = (0..meta.micro_batches)
                .flat_map(|mb| {
                    meta.chunk_of_mb(mb)
                        .map_or(0..meta.virtual_chunks, |c| c..c + 1)
                        .map(move |c| last - meta.chain_pos(mb, w, c) + 1)
                })
                .sum();
            (links * meta.slices) as f64 * (costs.fwd + costs.bwd) / caps[w] as f64
        })
        .fold(0.0, f64::max)
}

/// A sound lower bound on the peak in-flight units of the 1F1B schedule
/// family (DAPPLE, zero bubble, and the interleaved variants).
///
/// Stage 0 cannot retire its first unit before that unit has traversed
/// the whole pipeline and come back, by which time it has issued at
/// least `min(p, n·v)` forwards. Schedules that defer weight gradients
/// or interleave chunks only hold *more*. Used by the search pre-pass to
/// discard candidates whose peak cannot fit the activation budget
/// without generating the schedule at all.
pub fn warmup_units_floor(a: AnalysisParams) -> usize {
    a.p.min(a.n * a.v)
}

/// The limiting row `s → +∞`: zero bubbles, `A/p` of memory.
pub fn svpp_limit(a: AnalysisParams) -> AnalysisRow {
    AnalysisRow {
        method: "SVPP (s→∞)",
        bubble_ratio: Some(0.0),
        memory_fraction: Some(1.0 / a.pf()),
    }
}

/// Builds the full Table 3 for concrete parameters.
///
/// # Examples
///
/// ```
/// use mepipe_core::analytic::{table3, AnalysisParams};
///
/// let rows = table3(AnalysisParams { p: 8, v: 2, s: 4, n: 16 });
/// let svpp = rows.iter().find(|r| r.method == "SVPP").unwrap();
/// let dapple = rows.iter().find(|r| r.method == "DAPPLE").unwrap();
/// assert!(svpp.bubble_ratio < dapple.bubble_ratio);
/// assert!(svpp.memory_fraction < dapple.memory_fraction);
/// ```
pub fn table3(a: AnalysisParams) -> Vec<AnalysisRow> {
    vec![
        dapple(a),
        vpp(a),
        hanayo(a),
        terapipe(a),
        svpp(a),
        svpp_limit(a),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_schedule::exec::{simulate, SimConfig, UnitCost};

    fn small() -> AnalysisParams {
        AnalysisParams {
            p: 8,
            v: 2,
            s: 4,
            n: 16,
        }
    }

    #[test]
    fn svpp_has_lowest_bubble_in_small_regime() {
        let rows = table3(small());
        let svpp_b = rows[4].bubble_ratio.unwrap();
        for r in &rows[..4] {
            assert!(
                svpp_b < r.bubble_ratio.unwrap(),
                "SVPP {} !< {} ({})",
                svpp_b,
                r.bubble_ratio.unwrap(),
                r.method
            );
        }
    }

    #[test]
    fn svpp_has_lowest_memory_among_supported() {
        let rows = table3(small());
        let svpp_m = rows[4].memory_fraction.unwrap();
        for r in &rows[..4] {
            assert!(svpp_m < r.memory_fraction.unwrap(), "{}", r.method);
        }
        // And it approaches A/p as s grows.
        let big_s = AnalysisParams {
            s: 1 << 20,
            ..small()
        };
        assert!((svpp_memory_fraction(big_s) - 1.0 / 8.0).abs() < 1e-3);
    }

    #[test]
    fn figure4_worked_examples() {
        // Section 4.1: 5/8·A at p=4, s=2, v=1 and 9/16·A at v=2.
        let a1 = AnalysisParams {
            p: 4,
            v: 1,
            s: 2,
            n: 4,
        };
        assert!((svpp_memory_fraction(a1) - 5.0 / 8.0).abs() < 1e-12);
        let a2 = AnalysisParams {
            p: 4,
            v: 2,
            s: 2,
            n: 4,
        };
        assert!((svpp_memory_fraction(a2) - 9.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn vpp_unsupported_below_p() {
        let a = AnalysisParams {
            p: 8,
            v: 2,
            s: 1,
            n: 4,
        };
        assert_eq!(vpp(a).bubble_ratio, None);
        // Hanayo and SVPP still defined.
        assert!(hanayo(a).bubble_ratio.is_some());
        assert!(svpp(a).bubble_ratio.is_some());
    }

    #[test]
    fn large_cluster_regime_memory_caps_at_n_over_p() {
        let a = AnalysisParams {
            p: 16,
            v: 1,
            s: 2,
            n: 4,
        };
        let r = svpp(a);
        assert!(r.memory_fraction.unwrap() <= 4.0 / 16.0 + 1e-12);
    }

    #[test]
    fn svpp_reduction_matches_abstract_claims() {
        // Abstract: slicing into 4 and 8 slices cuts peak activation
        // memory by >70% and >80% versus DAPPLE's A (p=8, v=2 config of
        // Figure 1).
        for (s, floor) in [(4usize, 0.70f64), (8, 0.80)] {
            let a = AnalysisParams {
                p: 8,
                v: 2,
                s,
                n: 8,
            };
            let reduction = 1.0 - svpp_memory_fraction(a) / 1.0;
            assert!(
                reduction > floor,
                "s={s}: reduction {reduction} below {floor}"
            );
        }
    }

    #[test]
    fn dapple_matches_measured_bubble() {
        // Cross-check the formula against the executed schedule (the
        // schedule-crate test does the same from the other side).
        let a = AnalysisParams {
            p: 4,
            v: 1,
            s: 1,
            n: 8,
        };
        let sch = {
            use mepipe_schedule::generator::{Dapple, Dims, ScheduleGenerator};
            Dapple.generate(&Dims::new(4, 8)).unwrap()
        };
        let t = simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
        assert!((t.bubble_ratio() - dapple(a).bubble_ratio.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn compute_floor_covers_both_dependency_arguments() {
        let a = AnalysisParams {
            p: 4,
            v: 2,
            s: 2,
            n: 8,
        };
        let inputs = FloorInputs {
            forward: &[1.0, 2.0],
            backward_input: &[2.0, 3.0],
            wgrad: 1.5,
            overhead: 0.5,
        };
        // busy  = 16·(3 + 5 + 2·1.5) + 3·1 = 179; chain = 3 + 16·8 + 3·2 = 137.
        let floor = compute_floor_seconds(a, inputs);
        assert!((floor - (179.0 + 0.5)).abs() < 1e-12, "floor {floor}");
        // With negligible weight work, the backward chain dominates.
        let light = FloorInputs {
            wgrad: 0.0,
            ..inputs
        };
        let floor = compute_floor_seconds(a, light);
        assert!((floor - (137.0 + 0.5)).abs() < 1e-12, "floor {floor}");
    }

    #[test]
    fn warmup_floor_never_exceeds_generated_peaks() {
        // The floor must under-approximate the peak in-flight units of
        // every 1F1B-family generator it gates, on every shape the search
        // enumerates, else the pre-pass would discard feasible candidates.
        use mepipe_schedule::generator::{Dapple, Dims, ScheduleGenerator, Vpp, Zb, Zbv};
        use mepipe_schedule::validate::peak_in_flight;
        for p in [2usize, 4, 8] {
            for n in [2usize, 4, 8, 16] {
                let cases: Vec<(usize, Result<_, _>)> = vec![
                    (1, Dapple.generate(&Dims::new(p, n))),
                    (1, Zb.generate(&Dims::new(p, n))),
                    (2, Vpp.generate(&Dims::new(p, n).virtual_chunks(2))),
                    (2, Zbv.generate(&Dims::new(p, n).virtual_chunks(2))),
                ];
                for (v, sch) in cases {
                    let Ok(sch) = sch else { continue };
                    let peak = peak_in_flight(&sch).into_iter().max().unwrap();
                    let floor = warmup_units_floor(AnalysisParams { p, v, s: 1, n });
                    assert!(
                        floor <= peak,
                        "{}: floor {floor} > peak {peak} at p={p} v={v} n={n}",
                        sch.meta.name
                    );
                }
            }
        }
    }

    #[test]
    fn svpp_formula_close_to_generated_schedule() {
        // The greedy construction should land near the closed form in the
        // small-cluster regime.
        let a = AnalysisParams {
            p: 4,
            v: 1,
            s: 4,
            n: 8,
        };
        let cfg = crate::svpp::SvppConfig::new(4, 4, 8);
        let sch = crate::svpp::fused(&cfg).unwrap();
        let t = simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
        let formula = svpp(a).bubble_ratio.unwrap();
        assert!(
            (t.bubble_ratio() - formula).abs() < 0.05,
            "measured {} vs formula {formula}",
            t.bubble_ratio()
        );
    }
}
