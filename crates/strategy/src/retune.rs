//! Online re-search over hot-swap-compatible schedules.
//!
//! The calibration loop (Section 6) measures a few iterations, fits the
//! cost model to the spans, and then asks: *given what we now know about
//! this machine, is there a better schedule for the job that is already
//! running?* The answer must be restricted to schedules the trainer can
//! swap to **between iterations without dropping in-flight state**: same
//! pipeline stages, same virtual chunks, same micro-batch count — only
//! the sequence-slice count and SVPP warmup cap may move.
//!
//! [`SearchEngine::retune_mepipe`] enumerates exactly that space, prices
//! every candidate with an externally supplied [`ExecutionCost`] (the
//! fitted one — not the datasheet defaults the offline grid search
//! uses), and returns the rows sorted fastest-first. Generation goes
//! through the engine's shared [`crate::engine::ScheduleCache`], so
//! repeated calibration rounds re-generate nothing.

use std::sync::Arc;

use mepipe_core::svpp::{self, SvppConfig};
use mepipe_core::Synth;
use mepipe_model::cost::ExecutionCost;
use mepipe_schedule::{
    exec::{simulate, SimConfig},
    generator::{Dims, ScheduleGenerator},
    ir::Schedule,
    validate,
};
use mepipe_sim::ModelCost;

use crate::engine::{ScheduleKey, SearchEngine};
use crate::space::Method;

/// Slice counts above this are never proposed: per-slice GEMMs degrade
/// (Figure 9) and the schedule itself balloons, so the paper's grids stop
/// well below it.
const MAX_SLICES: usize = 64;

/// One hot-swap candidate, priced under the supplied cost model.
#[derive(Debug, Clone)]
pub struct Retuned {
    /// Sequence slices per micro-batch.
    pub slices: usize,
    /// The regeneration knob: SVPP warmup cap `f` for template rows, the
    /// solver's per-worker unit cap for synthesized rows. Broadcasting
    /// `(synthesized, slices, warmup)` lets every worker rebuild the
    /// identical schedule.
    pub warmup: usize,
    /// Whether this row came out of the order solver ([`Synth`]) rather
    /// than the hand-written SVPP generator. Solver output is
    /// MEPipe-shaped (same stages, chunks, micro-batches, split
    /// backward), so it is hot-swap compatible too.
    pub synthesized: bool,
    /// The generated schedule, ready to hand to a trainer.
    pub schedule: Arc<Schedule>,
    /// Iteration time under the supplied cost model, in seconds.
    pub iteration_time: f64,
    /// Mean pipeline bubble ratio under the supplied cost model.
    pub bubble_ratio: f64,
    /// Peak in-flight units on the most loaded stage.
    pub peak_units: usize,
}

impl SearchEngine {
    /// Ranks every MEPipe schedule the running job could hot-swap to,
    /// priced by `fitted` (typically a calibration-fitted
    /// [`ExecutionCost`], but any instance works).
    ///
    /// The stage count, virtual chunks and micro-batch count are taken
    /// from `fitted.partition()` — those are frozen by hot-swap
    /// compatibility. Candidates vary the slice count over divisors of
    /// the sequence length (capped at `MAX_SLICES`) and the warmup cap
    /// over the full `[min_warmup, max_warmup]` range. Candidates whose
    /// peak in-flight units exceed `max_units` (when given) are dropped
    /// — the same memory gate the offline search applies.
    ///
    /// Rows come back sorted by iteration time, ties broken by fewer
    /// slices then lower warmup, so `[0]` is the recommendation and the
    /// ordering is deterministic.
    pub fn retune_mepipe(
        &self,
        fitted: &ExecutionCost,
        max_units: Option<usize>,
    ) -> Result<Vec<Retuned>, String> {
        let spec = fitted.partition();
        let p = spec.pp;
        let v = spec.vp;
        let n = spec.micro_batches();
        let seq = fitted.config().seq_len;
        let mut rows = Vec::new();
        for s in (1..=seq.min(MAX_SLICES)).filter(|s| seq.is_multiple_of(*s)) {
            let cost = fitted.clone().with_slices(s)?;
            let dims = Dims::new(p, n).virtual_chunks(v).slices(s);
            let base = SvppConfig::from_dims(&dims);
            for f in base.min_warmup()..=base.max_warmup() {
                let key = ScheduleKey {
                    method: Method::Mepipe,
                    p,
                    v,
                    s,
                    n,
                    warmup: Some(f),
                };
                let schedule = self
                    .schedules()
                    .get_or_build(key, || svpp::Mepipe::new().warmup_cap(f).generate(&dims))
                    .map_err(|e| format!("generate p={p} s={s} f={f}: {e}"))?;
                let peak_units = validate::peak_in_flight(&schedule)
                    .into_iter()
                    .max()
                    .unwrap_or(0);
                if max_units.is_some_and(|cap| peak_units > cap) {
                    continue;
                }
                let sim_cost = ModelCost::new(cost.clone());
                let result = simulate(
                    &schedule,
                    &sim_cost,
                    &SimConfig {
                        dynamic_wgrad: true,
                        ..Default::default()
                    },
                )?;
                let summary = result.summary();
                rows.push(Retuned {
                    slices: s,
                    warmup: f,
                    synthesized: false,
                    schedule,
                    iteration_time: summary.iteration_time,
                    bubble_ratio: summary.bubble_ratio,
                    peak_units,
                });
            }
            // One solver row per slice count. The order search prices
            // with its fixed deterministic unit costs — not the
            // fitted model — so peer workers can regenerate the same
            // schedule from the broadcast knob alone; the fitted model
            // still does the ranking below, like every other row.
            let total_units = n * v * s;
            let cap = max_units.map_or(total_units, |c| c.min(total_units));
            let key = ScheduleKey {
                method: Method::Synth,
                p,
                v,
                s,
                n,
                warmup: Some(cap),
            };
            let built = self
                .schedules()
                .get_or_build(key, || Synth::new().cap(cap).generate(&dims));
            // An infeasible cap (below the SVPP floor) just means no
            // solver row at this slice count.
            if let Ok(schedule) = built {
                let peak_units = validate::peak_in_flight(&schedule)
                    .into_iter()
                    .max()
                    .unwrap_or(0);
                if max_units.is_none_or(|cap| peak_units <= cap) {
                    let sim_cost = ModelCost::new(cost.clone());
                    let result = simulate(
                        &schedule,
                        &sim_cost,
                        &SimConfig {
                            dynamic_wgrad: true,
                            ..Default::default()
                        },
                    )?;
                    let summary = result.summary();
                    rows.push(Retuned {
                        slices: s,
                        warmup: cap,
                        synthesized: true,
                        schedule,
                        iteration_time: summary.iteration_time,
                        bubble_ratio: summary.bubble_ratio,
                        peak_units,
                    });
                }
            }
        }
        rows.sort_by(|a, b| {
            a.iteration_time
                .total_cmp(&b.iteration_time)
                .then(a.synthesized.cmp(&b.synthesized))
                .then(a.slices.cmp(&b.slices))
                .then(a.warmup.cmp(&b.warmup))
        });
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_hw::{accelerator::AcceleratorSpec, link::LinkSpec, topology::ClusterSpec};
    use mepipe_model::{
        config::TransformerConfig,
        partition::{PartitionSpec, SequenceSplit},
    };

    fn fitted(stages: usize, slices: usize, pp_link: LinkSpec) -> ExecutionCost {
        let cfg = TransformerConfig {
            seq_len: 64,
            ..TransformerConfig::tiny(4)
        };
        let spec = PartitionSpec {
            pp: stages,
            vp: 1,
            dp: 1,
            seq: SequenceSplit::SlicePipeline { slices },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 4,
        };
        let cluster = ClusterSpec {
            nodes: 1,
            gpus_per_node: stages,
            accelerator: AcceleratorSpec::rtx4090(),
            intra_node: LinkSpec::pcie4(),
            inter_node: LinkSpec::ib_100g(),
        };
        ExecutionCost::new(cfg, spec, &cluster)
            .unwrap()
            .with_pp_link(pp_link)
    }

    #[test]
    fn rows_are_sorted_and_swap_compatible() {
        let engine = SearchEngine::new();
        let rows = engine
            .retune_mepipe(&fitted(2, 4, LinkSpec::pcie4()), None)
            .unwrap();
        assert!(rows.len() > 1);
        for w in rows.windows(2) {
            assert!(w[0].iteration_time <= w[1].iteration_time);
        }
        for r in &rows {
            // Hot-swap invariants: stage count fixed, slices divide seq.
            assert_eq!(r.schedule.num_workers(), 2);
            assert_eq!(64 % r.slices, 0);
        }
    }

    #[test]
    fn latency_dominated_links_prefer_fewer_slices() {
        // On a near-infinite-bandwidth, high-latency link every extra
        // slice costs a full per-message latency, so the ranking must
        // favour coarser slicing than on a fast link.
        let engine = SearchEngine::new();
        let laggy = LinkSpec {
            name: "laggy",
            bandwidth: 1e12,
            latency: 5e-3,
        };
        let best_laggy = engine
            .retune_mepipe(&fitted(2, 8, laggy), None)
            .unwrap()
            .remove(0);
        let best_fast = engine
            .retune_mepipe(&fitted(2, 8, LinkSpec::pcie4()), None)
            .unwrap()
            .remove(0);
        assert!(
            best_laggy.slices <= best_fast.slices,
            "laggy link picked {} slices, fast link {}",
            best_laggy.slices,
            best_fast.slices
        );
        assert!(best_laggy.slices <= 2, "laggy best: {}", best_laggy.slices);
    }

    #[test]
    fn solver_rows_are_present_and_swap_compatible() {
        let engine = SearchEngine::new();
        let rows = engine
            .retune_mepipe(&fitted(2, 4, LinkSpec::pcie4()), None)
            .unwrap();
        let synth: Vec<_> = rows.iter().filter(|r| r.synthesized).collect();
        assert!(!synth.is_empty(), "no solver rows in the retune ranking");
        for r in &synth {
            assert_eq!(r.schedule.num_workers(), 2);
            assert_eq!(64 % r.slices, 0);
            validate::validate(&r.schedule).unwrap();
        }
        // The solver row at a given slice count is never slower than the
        // best template row at the same slice count under the *solver's*
        // seed family; under the fitted pricing it must at least stay in
        // the same ballpark (within 10%) of the best template overall.
        let best_template = rows
            .iter()
            .filter(|r| !r.synthesized)
            .map(|r| r.iteration_time)
            .fold(f64::INFINITY, f64::min);
        let best_synth = synth
            .iter()
            .map(|r| r.iteration_time)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_synth <= best_template * 1.10,
            "solver rows uncompetitive: {best_synth} vs {best_template}"
        );
    }

    #[test]
    fn memory_cap_drops_hungry_candidates() {
        let engine = SearchEngine::new();
        let uncapped = engine
            .retune_mepipe(&fitted(2, 4, LinkSpec::pcie4()), None)
            .unwrap();
        let cap = uncapped.iter().map(|r| r.peak_units).min().unwrap();
        let capped = engine
            .retune_mepipe(&fitted(2, 4, LinkSpec::pcie4()), Some(cap))
            .unwrap();
        assert!(!capped.is_empty());
        assert!(capped.iter().all(|r| r.peak_units <= cap));
        assert!(capped.len() < uncapped.len());
    }
}
