//! Measured-span → cost-model calibration, and the convergence report
//! that proves it worked.
//!
//! [`fidelity::time`](crate::fidelity::time) diffs a measured trace
//! against the model's prediction; this module *closes* that loop. It
//! extracts per-(op-kind, shape) samples from the measured spans
//! ([`extract_samples`]), fits the model's GEMM-efficiency curve and
//! pipeline-link alpha–beta through `mepipe_model::calibrate`
//! ([`fit_execution_cost`]), and accumulates one time comparison per
//! calibration round into a [`ConvergenceReport`] whose mean relative
//! error must shrink as the fits take hold.
//!
//! Sample extraction expects split-backward traces (`F`/`b`/`W`/`w`
//! spans, the MEPipe execution mode); fused `B` spans mix input- and
//! weight-gradient work and are skipped.

use mepipe_model::calibrate::{fit_gemm_efficiency, fit_link, GemmSample, LinkSample};
use mepipe_model::cost::ExecutionCost;
use mepipe_trace::{IterationTrace, SpanKind};

use crate::fidelity::{Kind, Report};

/// Per-(op-kind, shape) samples extracted from measured traces, in the
/// regressor form `mepipe_model::calibrate` fits. Samples from several
/// rounds can be pooled with [`MeasuredSamples::merge`] — more data per
/// fit is the main reason later calibration rounds keep improving.
#[derive(Debug, Clone, Default)]
pub struct MeasuredSamples {
    /// GEMM-class samples: one per forward / input-gradient span, plus
    /// one per input-gradient op for the weight-gradient work (each the
    /// stage's mean).
    pub gemm: Vec<GemmSample>,
    /// Send-side traffic aggregates, one per directed link per trace.
    pub links: Vec<LinkSample>,
}

impl MeasuredSamples {
    /// Pools another round's samples into this set.
    pub fn merge(&mut self, other: &MeasuredSamples) {
        self.gemm.extend_from_slice(&other.gemm);
        self.links.extend_from_slice(&other.links);
    }

    /// Whether any compute sample was extracted (an empty set means the
    /// trace had no split-backward compute spans to fit from).
    pub fn is_empty(&self) -> bool {
        self.gemm.is_empty()
    }
}

/// Extracts fitting samples from one measured iteration.
///
/// `prior` supplies the regressor shapes — FLOPs, tokens, and kernel
/// counts per op — and the non-GEMM share subtracted from each measured
/// span so only the GEMM term is fitted. Only replica 0 is read (DP
/// replicas run the same schedule); spans whose non-GEMM share exceeds
/// the measurement are clamped to a small positive residual rather than
/// dropped, so a badly wrong prior still yields a full sample set.
pub fn extract_samples(trace: &IterationTrace, prior: &ExecutionCost) -> MeasuredSamples {
    let slices = prior.partition().seq.spp_slices();
    let mut out = MeasuredSamples::default();
    for st in trace.stages.iter().filter(|s| s.replica == 0) {
        let mut wgrad_s = 0.0f64;
        let mut bwd_ops = 0u64;
        let mut send_s: Vec<(u32, f64, u64)> = Vec::new(); // (peer, secs, msgs)
        for span in &st.spans {
            let secs = span.duration_ns() as f64 * 1e-9;
            match span.kind {
                SpanKind::Forward | SpanKind::BackwardInput => {
                    let sl = span.slice as usize;
                    if sl >= slices {
                        continue;
                    }
                    let ((flops, tokens, kernels), non_gemm) = if span.kind == SpanKind::Forward {
                        (
                            prior.forward_gemm_shape(sl),
                            prior.forward_non_gemm_time(sl),
                        )
                    } else {
                        bwd_ops += 1;
                        (
                            prior.backward_input_gemm_shape(sl),
                            prior.backward_input_non_gemm_time(sl),
                        )
                    };
                    out.gemm.push(GemmSample {
                        flops,
                        tokens,
                        kernels,
                        // Clamp: a grossly wrong prior must not zero out
                        // the sample.
                        seconds: (secs - non_gemm).max(secs * 0.01),
                    });
                }
                SpanKind::BackwardWeight | SpanKind::WgradDrain => wgrad_s += secs,
                SpanKind::Send => match send_s.iter_mut().find(|(p, _, _)| *p == span.peer) {
                    Some((_, s, n)) => {
                        *s += secs;
                        *n += 1;
                    }
                    None => send_s.push((span.peer, secs, 1)),
                },
                // Fused backwards mix W into b; recv waits measure the
                // peer, not this stage.
                SpanKind::Backward | SpanKind::RecvWait => {}
            }
        }
        // Weight-gradient GEMMs drain in fragments ('w' spans) whose
        // boundaries are scheduling accidents; only the per-stage total
        // over the input-gradient op count is meaningful. It enters as
        // that many mean samples, so the least-squares fit weighs W work
        // like the F and b ops it rides with: one aggregate sample would
        // weigh `bwd_ops` times more and, whenever W runs at a different
        // per-FLOP rate, pull the fit off the F and b ops.
        if bwd_ops > 0 && wgrad_s > 0.0 {
            let (flops, tokens, kernels) = prior.wgrad_gemm_shape();
            let per_op = GemmSample {
                flops,
                tokens,
                kernels,
                seconds: wgrad_s / bwd_ops as f64,
            };
            out.gemm
                .extend(std::iter::repeat_n(per_op, bwd_ops as usize));
        }
        for (_, secs, msgs) in send_s {
            out.links.push(LinkSample {
                messages: msgs as f64,
                bytes: msgs as f64 * prior.boundary_bytes() as f64,
                seconds: secs,
            });
        }
    }
    out
}

/// Fits a calibrated [`ExecutionCost`]: the prior with its
/// GEMM-efficiency curve and pipeline link replaced by least-squares
/// fits over `samples`. With no usable samples the prior is returned
/// unchanged (the fit helpers each keep their prior on degenerate
/// input).
pub fn fit_execution_cost(prior: &ExecutionCost, samples: &MeasuredSamples) -> ExecutionCost {
    let eff = fit_gemm_efficiency(
        &samples.gemm,
        prior.peak_matmul_flops(),
        prior.gemm_efficiency(),
    );
    let link = fit_link(&samples.links, prior.pp_link());
    prior.clone().with_gemm_efficiency(eff).with_pp_link(link)
}

/// One calibration round's modeled-vs-measured fit quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationRound {
    /// Round index (0 = uncalibrated model).
    pub round: usize,
    /// [`Report::mean_relative_error`] of the model in force *before*
    /// this round's refit, against this round's measurement.
    pub mean_rel_error: f64,
    /// [`Report::max_misfit`] of the same comparison.
    pub max_misfit: f64,
    /// Measured makespan, seconds.
    pub measured_makespan_s: f64,
    /// Modeled makespan, seconds.
    pub modeled_makespan_s: f64,
}

/// The calibration loop's round-by-round error trajectory.
///
/// Each round records the fit of the model *entering* the round (round 0
/// = the uncalibrated datasheet constants), so the trajectory shows
/// measured spans driving the model toward the hardware:
/// [`ConvergenceReport::is_strictly_decreasing`] is the loop's
/// acceptance criterion.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceReport {
    /// One entry per calibration round, in order.
    pub rounds: Vec<CalibrationRound>,
}

impl ConvergenceReport {
    /// Appends one round from its
    /// [`fidelity::time`](crate::fidelity::time) comparison (any
    /// other kind of report leaves the round's makespans `NaN`).
    pub fn push_round(&mut self, check: &Report) {
        let (measured_makespan_s, modeled_makespan_s) = match &check.kind {
            Kind::Time { makespan, .. } => (makespan.measured, makespan.modeled),
            Kind::Wire { .. } | Kind::Memory { .. } => (f64::NAN, f64::NAN),
        };
        self.rounds.push(CalibrationRound {
            round: self.rounds.len(),
            mean_rel_error: check.mean_relative_error(),
            max_misfit: check.max_misfit(),
            measured_makespan_s,
            modeled_makespan_s,
        });
    }

    /// Whether the mean relative error strictly decreased every round.
    /// Vacuously true with fewer than two rounds; false if any round's
    /// error is `NaN`.
    pub fn is_strictly_decreasing(&self) -> bool {
        self.rounds.iter().all(|r| r.mean_rel_error.is_finite())
            && self
                .rounds
                .windows(2)
                .all(|w| w[1].mean_rel_error < w[0].mean_rel_error)
    }

    /// Plain-text trajectory for logs and EXPERIMENTS.md-style reports.
    pub fn render(&self) -> String {
        let mut out = String::from("calibration convergence:\n");
        for r in &self.rounds {
            out.push_str(&format!(
                "  round {}: mean rel error {:.4}, max misfit {:.4}, \
                 makespan measured {:.3} ms vs modeled {:.3} ms\n",
                r.round,
                r.mean_rel_error,
                r.max_misfit,
                r.measured_makespan_s * 1e3,
                r.modeled_makespan_s * 1e3,
            ));
        }
        out.push_str(&format!(
            "  monotone decrease: {}\n",
            if self.is_strictly_decreasing() {
                "yes"
            } else {
                "NO"
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ModelCost;
    use crate::fidelity;
    use mepipe_core::svpp::Mepipe;
    use mepipe_hw::{accelerator::AcceleratorSpec, link::LinkSpec, topology::ClusterSpec};
    use mepipe_model::{
        config::TransformerConfig,
        gemm::GemmEfficiency,
        partition::{PartitionSpec, SequenceSplit},
    };
    use mepipe_schedule::exec::{simulate, SimConfig};
    use mepipe_schedule::generator::{Dims, ScheduleGenerator};

    fn tiny_cost() -> ExecutionCost {
        let cfg = TransformerConfig {
            seq_len: 64,
            ..TransformerConfig::tiny(4)
        };
        let spec = PartitionSpec {
            pp: 2,
            vp: 1,
            dp: 1,
            seq: SequenceSplit::SlicePipeline { slices: 4 },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 4,
        };
        let cluster = ClusterSpec {
            nodes: 1,
            gpus_per_node: 2,
            accelerator: AcceleratorSpec::rtx4090(),
            intra_node: LinkSpec::pcie4(),
            inter_node: LinkSpec::ib_100g(),
        };
        ExecutionCost::new(cfg, spec, &cluster).unwrap()
    }

    fn sim_cfg() -> SimConfig {
        SimConfig {
            dynamic_wgrad: true,
            ..Default::default()
        }
    }

    #[test]
    fn fitting_recovers_a_perturbed_truth() {
        // Ground truth: the tiny model with a 3x slower GEMM curve and
        // 10x launch overhead. Calibration starting from the default
        // constants must close most of the gap from one trace.
        let prior = tiny_cost();
        let truth = prior.clone().with_gemm_efficiency(GemmEfficiency {
            max_efficiency: prior.gemm_efficiency().max_efficiency / 3.0,
            half_saturation_tokens: prior.gemm_efficiency().half_saturation_tokens,
            launch_overhead: prior.gemm_efficiency().launch_overhead * 10.0,
        });
        let sch = Mepipe::new().generate(&Dims::new(2, 4).slices(4)).unwrap();
        let truth_sim = simulate(&sch, &ModelCost::new(truth.clone()), &sim_cfg()).unwrap();
        let trace = truth_sim.trace;

        let samples = extract_samples(&trace, &prior);
        assert!(!samples.is_empty());
        let fitted = fit_execution_cost(&prior, &samples);

        let err = |cost: &ExecutionCost| {
            let sim = simulate(&sch, &ModelCost::new(cost.clone()), &sim_cfg()).unwrap();
            fidelity::time(&trace, &sim).mean_relative_error()
        };
        let before = err(&prior);
        let after = err(&fitted);
        assert!(
            after < before * 0.2,
            "calibration barely helped: {before:.4} -> {after:.4}"
        );
        assert!(after < 0.15, "fitted error still large: {after:.4}");
    }

    #[test]
    fn convergence_report_tracks_rounds() {
        let prior = tiny_cost();
        let truth = prior.clone().with_gemm_efficiency(GemmEfficiency {
            max_efficiency: prior.gemm_efficiency().max_efficiency / 4.0,
            half_saturation_tokens: prior.gemm_efficiency().half_saturation_tokens,
            launch_overhead: prior.gemm_efficiency().launch_overhead,
        });
        let sch = Mepipe::new().generate(&Dims::new(2, 4).slices(4)).unwrap();
        let truth_sim = simulate(&sch, &ModelCost::new(truth.clone()), &sim_cfg()).unwrap();
        let trace = truth_sim.trace;

        let mut report = ConvergenceReport::default();
        let mut current = prior.clone();
        let mut pooled = MeasuredSamples::default();
        for _ in 0..3 {
            let sim = simulate(&sch, &ModelCost::new(current.clone()), &sim_cfg()).unwrap();
            report.push_round(&fidelity::time(&trace, &sim));
            pooled.merge(&extract_samples(&trace, &current));
            current = fit_execution_cost(&current, &pooled);
        }
        assert_eq!(report.rounds.len(), 3);
        assert!(
            report.rounds[1].mean_rel_error < report.rounds[0].mean_rel_error,
            "{}",
            report.render()
        );
        assert!(report.render().contains("round 0"));
    }

    #[test]
    fn empty_trace_keeps_the_prior() {
        let prior = tiny_cost();
        let samples = extract_samples(&IterationTrace::default(), &prior);
        assert!(samples.is_empty());
        let fitted = fit_execution_cost(&prior, &samples);
        assert_eq!(fitted.gemm_efficiency(), prior.gemm_efficiency());
        assert_eq!(fitted.pp_link(), prior.pp_link());
    }

    #[test]
    fn degenerate_report_is_not_decreasing() {
        let mut r = ConvergenceReport::default();
        assert!(r.is_strictly_decreasing()); // vacuous
        r.rounds.push(CalibrationRound {
            round: 0,
            mean_rel_error: 0.5,
            max_misfit: 0.0,
            measured_makespan_s: 0.0,
            modeled_makespan_s: 0.0,
        });
        r.rounds.push(CalibrationRound {
            round: 1,
            mean_rel_error: 0.5,
            max_misfit: 0.0,
            measured_makespan_s: 0.0,
            modeled_makespan_s: 0.0,
        });
        assert!(!r.is_strictly_decreasing());
        assert!(r.render().contains("NO"));
    }
}
