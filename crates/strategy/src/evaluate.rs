//! Evaluation of one strategy candidate on the simulator.

use std::sync::Arc;

use mepipe_core::svpp::SvppConfig;
use mepipe_hw::topology::ClusterSpec;
use mepipe_model::{config::TransformerConfig, cost::ExecutionCost, memory};
use mepipe_schedule::{
    exec::{simulate, SimConfig},
    generator::Dims,
    validate, Blocks, DualPipe,
};
use mepipe_sim::{metrics, ModelCost};

use crate::engine::ScheduleCache;
use crate::space::{Candidate, Method, ScheduleSpec};

/// Outcome of evaluating one candidate.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The candidate evaluated.
    pub candidate: Candidate,
    /// Simulated iteration time in seconds.
    pub iteration_time: f64,
    /// Mean pipeline bubble ratio.
    pub bubble_ratio: f64,
    /// Peak activation bytes on the most loaded worker.
    pub peak_activation_bytes: f64,
    /// Model FLOPS utilisation.
    pub mfu: f64,
    /// The memory-knob value actually used: SVPP warmup (MEPipe),
    /// per-direction admissions (DualPipe), lifespan (Blocks) or the
    /// solver's unit cap (Synth). `None` for knob-free methods.
    pub warmup: Option<usize>,
}

/// Evaluates a candidate; `Err` carries the infeasibility reason (OOM,
/// shape constraint, etc.) — the paper's "OOM" table cells.
///
/// This is the uncached entry point; [`crate::engine::SearchEngine`]
/// wraps it with schedule and result memoization and returns
/// bit-identical outcomes.
pub fn evaluate(
    candidate: &Candidate,
    model: &TransformerConfig,
    cluster: &ClusterSpec,
) -> Result<Evaluated, String> {
    evaluate_with(candidate, model, cluster, None)
}

/// [`evaluate`] with an optional shared schedule cache: generation goes
/// through `schedules` when present, so candidates that differ only in
/// pricing (DP size, CP degree, recomputation) share one generated
/// schedule across the grid.
pub(crate) fn evaluate_with(
    candidate: &Candidate,
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    schedules: Option<&ScheduleCache>,
) -> Result<Evaluated, String> {
    let spec = candidate.spec;
    let cost = ExecutionCost::new(*model, spec, cluster)?;
    let usable = cluster.accelerator.usable_memory_bytes();
    let budget = memory::activation_budget_bytes(model, &spec, usable);
    if budget <= 0.0 {
        return Err(format!(
            "static memory alone exceeds the device ({:.1} GiB over)",
            -budget / 1024f64.powi(3)
        ));
    }
    let max_units = memory::max_in_flight_units(model, &spec, usable);
    // Bidirectional schedules pay for a second parameter replica before
    // any activation fits.
    let (budget, max_units) = if candidate.method == Method::DualPipe {
        let b = budget - memory::bidirectional_extra_static_bytes(model, &spec);
        if b <= 0.0 {
            return Err(format!(
                "the reverse-direction parameter replica alone overflows the device ({:.1} GiB over)",
                -b / 1024f64.powi(3)
            ));
        }
        let unit = memory::activation_bytes_per_unit(model, &spec);
        (b, (b / unit).floor() as usize)
    } else {
        (budget, max_units)
    };

    let dims = candidate.dims();
    let warmup = memory_knob(candidate.method, &dims, max_units)?;
    let schedule_spec = ScheduleSpec {
        warmup,
        ..ScheduleSpec::new(candidate.method, dims)
    };
    let schedule = match schedules {
        Some(cache) => cache.get_or_generate(&schedule_spec)?,
        None => Arc::new(schedule_spec.generate()?),
    };

    // Static memory feasibility: the schedule's peak in-flight units must
    // fit the activation budget.
    let peak_units = validate::peak_in_flight(&schedule)
        .into_iter()
        .max()
        .unwrap_or(0);
    if peak_units > max_units {
        return Err(format!(
            "OOM: schedule holds {peak_units} in-flight units, only {max_units} fit"
        ));
    }

    let sim_cost = sim_cost(candidate.method, cost);
    // Zero-bubble schedules defer weight ops into bubbles too.
    let dynamic =
        candidate.method.is_slice_level() || matches!(candidate.method, Method::Zb | Method::Zbv);
    let result = simulate(
        &schedule,
        &sim_cost,
        &SimConfig {
            dynamic_wgrad: dynamic,
            memory_limit_bytes: Some(budget),
        },
    )?;
    let summary = result.summary();
    if let Some((worker, bytes)) = summary.oom {
        return Err(format!(
            "OOM in simulation: worker {worker} needed {:.1} GiB",
            bytes / 1024f64.powi(3)
        ));
    }
    Ok(Evaluated {
        candidate: candidate.clone(),
        iteration_time: summary.iteration_time,
        bubble_ratio: summary.bubble_ratio,
        peak_activation_bytes: summary.peak_activation_bytes,
        mfu: metrics::mfu(&result, sim_cost.execution_cost()),
        warmup,
    })
}

/// The memory knob `evaluate` gives `method` at `dims` when `max_units`
/// activation units fit: the largest useful setting that fits, `None` for
/// knob-free methods, `Err` when even the family's floor does not fit.
pub(crate) fn memory_knob(
    method: Method,
    dims: &Dims,
    max_units: usize,
) -> Result<Option<usize>, String> {
    match method {
        Method::Mepipe | Method::Synth => {
            let base = SvppConfig::from_dims(dims);
            if max_units < base.min_warmup() {
                return Err(format!(
                    "even the f = v*s = {} floor needs more than the {} units that fit",
                    base.min_warmup(),
                    max_units
                ));
            }
            // The solver takes the whole budget as its unit cap.
            Ok(Some(if method == Method::Synth {
                max_units
            } else {
                max_units.min(base.max_warmup())
            }))
        }
        Method::DualPipe => {
            let f_min = DualPipe::min_warmup(dims);
            if max_units < f_min {
                return Err(format!(
                    "even the f = s = {f_min} floor needs more than the {max_units} units that fit"
                ));
            }
            // Both directions ramp at once and pass through each other's
            // stages, so a worker can hold both streams' admissions:
            // budget each direction half the units that fit.
            Ok(Some(
                (max_units / 2).max(f_min).min(DualPipe::max_warmup(dims)),
            ))
        }
        Method::Blocks => {
            let floor = dims.v * dims.s;
            if max_units < floor {
                return Err(format!(
                    "even the lifespan-0 floor of {floor} units needs more than the {max_units} that fit"
                ));
            }
            Ok(Some((max_units - floor).min(Blocks::max_lifespan(dims))))
        }
        _ => Ok(None),
    }
}

/// How `method` is priced: the slice-level families run on the MEPipe
/// runtime and inherit its per-GEMM weight-gradient granularity; the
/// zero-bubble baselines defer whole weight ops. The memo key prices
/// through this too, so it answers for exactly the cost `evaluate` uses.
pub(crate) fn sim_cost(method: Method, cost: ExecutionCost) -> ModelCost {
    if method.is_slice_level() {
        ModelCost::new(cost)
    } else {
        ModelCost::new_coarse(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_model::partition::{PartitionSpec, SequenceSplit};

    fn mepipe_13b() -> Candidate {
        Candidate {
            method: Method::Mepipe,
            spec: PartitionSpec {
                pp: 8,
                vp: 1,
                dp: 8,
                seq: SequenceSplit::SlicePipeline { slices: 4 },
                recompute: false,
                micro_batch_size: 1,
                global_batch: 128,
            },
        }
    }

    #[test]
    fn paper_optimum_evaluates_near_paper_numbers() {
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let e = evaluate(&mepipe_13b(), &model, &cluster).expect("feasible");
        // Paper: 5852 ms. Accept a factor-2 band; the shape tests are in
        // the search module.
        assert!(
            (3.0..9.0).contains(&e.iteration_time),
            "iteration {} s",
            e.iteration_time
        );
        assert!(e.warmup.is_some());
        assert!(e.mfu > 0.2);
    }

    #[test]
    fn oversized_model_reports_oom() {
        // Llama-34B at pp=2 cannot even hold its parameters.
        let model = TransformerConfig::llama2_34b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let c = Candidate {
            method: Method::Dapple,
            spec: PartitionSpec {
                pp: 2,
                vp: 1,
                dp: 32,
                seq: SequenceSplit::None,
                recompute: false,
                micro_batch_size: 1,
                global_batch: 128,
            },
        };
        let err = evaluate(&c, &model, &cluster).unwrap_err();
        assert!(err.contains("exceeds") || err.contains("OOM"), "{err}");
    }

    #[test]
    fn dapple_13b_without_cp_ooms_like_figure1() {
        // DAPPLE without CP must hold p whole micro-batches (~A = 26 GiB):
        // impossible on a 24 GB card — the premise of the whole paper.
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let c = Candidate {
            method: Method::Dapple,
            spec: PartitionSpec {
                pp: 8,
                vp: 1,
                dp: 8,
                seq: SequenceSplit::None,
                recompute: false,
                micro_batch_size: 1,
                global_batch: 128,
            },
        };
        assert!(evaluate(&c, &model, &cluster).is_err());
    }
}
