//! The closed calibration loop: measured spans → fitted costs → a better
//! schedule, hot-swapped into the running job.
//!
//! The offline search prices candidates with datasheet constants; on the
//! machine actually running the job those constants can be off by orders
//! of magnitude (a CPU reproduction vs an RTX 4090 datasheet, or an
//! emulated wire vs PCIe). [`Calibrator`] closes the gap online:
//!
//! 1. run a few **warmup iterations** with span tracing on (in-process,
//!    or merged from multi-process stage dumps — the trace format is the
//!    same either way);
//! 2. **score** the model currently in force against each round's
//!    measurement (`sim::fidelity::time`) into a
//!    [`ConvergenceReport`] — round 0 records the uncalibrated error;
//! 3. **fit** the GEMM-efficiency curve and the pipeline-link alpha–beta
//!    to the pooled samples (`sim::calibrate` over
//!    `mepipe_model::calibrate`'s least squares);
//! 4. **re-search** the hot-swap-compatible schedule space under the
//!    fitted costs ([`SearchEngine::retune_mepipe`]), polish the winner
//!    with `core::reschedule`, and hand it back as a [`Proposal`].
//!
//! Swapping is safe between iterations because the runtime's persistent
//! state — model parameters and warmed tensor arenas — is schedule-
//! agnostic: [`PipelineRuntime::run_iteration`] takes the schedule per
//! call, and arenas key buffers by shape, not by schedule position. The
//! proptests assert the contract: a swapped-to schedule produces the
//! same loss bits as running that schedule from scratch.

use std::sync::Arc;

use mepipe_core::reschedule::reschedule_backwards;
use mepipe_hw::{accelerator::AcceleratorSpec, link::LinkSpec, topology::ClusterSpec};
use mepipe_model::{
    config::TransformerConfig,
    cost::ExecutionCost,
    partition::{PartitionSpec, SequenceSplit},
};
use mepipe_schedule::exec::{simulate, SimConfig};
use mepipe_schedule::ir::Schedule;
use mepipe_sim::{
    calibrate::{extract_samples, fit_execution_cost, ConvergenceReport, MeasuredSamples},
    fidelity, ModelCost,
};
use mepipe_strategy::{ScheduleSpec, SearchEngine};
use mepipe_trace::IterationTrace;

use crate::pipeline::{PipelineRuntime, WgradMode};

/// A schedule the calibrated search recommends swapping to.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The winning row's name — the SVPP generator or the order solver
    /// (both MEPipe-shaped and hot-swap compatible) with its knob —
    /// with `reschedule` set only when the polish changed the op order.
    /// Worker processes regenerate `schedule` from it alone.
    pub spec: ScheduleSpec,
    /// Iteration time the fitted model predicts, seconds.
    pub predicted_s: f64,
    /// The schedule, already polished by backward rescheduling.
    pub schedule: Arc<Schedule>,
}

/// Online cost-model calibration from measured span traces.
///
/// One instance accumulates samples across rounds (pooling is why later
/// rounds keep improving) and owns the [`SearchEngine`] whose schedule
/// cache amortises re-search across rounds.
pub struct Calibrator {
    current: ExecutionCost,
    pooled: MeasuredSamples,
    report: ConvergenceReport,
    engine: SearchEngine,
}

impl Calibrator {
    /// Starts calibrating from `prior` — typically
    /// [`Calibrator::prior_for`]'s datasheet-constant model, whose error
    /// round 0 records.
    pub fn new(prior: ExecutionCost) -> Self {
        Self {
            current: prior,
            pooled: MeasuredSamples::default(),
            report: ConvergenceReport::default(),
            engine: SearchEngine::new(),
        }
    }

    /// The uncalibrated prior for a single-replica training run: `cfg`
    /// split over `stages` pipeline stages with `slices`-way sequence
    /// slicing, priced for an RTX 4090 over PCIe — deliberately *not*
    /// this machine, which is exactly what calibration corrects.
    pub fn prior_for(
        cfg: &TransformerConfig,
        stages: usize,
        slices: usize,
        micro_batches: usize,
    ) -> Result<ExecutionCost, String> {
        // The analytic model counts embedding and head as one pipeline
        // slot each (`layers + 2`, Section 7.2); the runtime instead
        // attaches them to the boundary stages. Price `layers - 2`
        // decoder layers so each modeled slot corresponds to one decoder
        // layer a stage actually executes — the boundary extras fold
        // into those stages' fitted samples.
        let cfg = TransformerConfig {
            layers: cfg.layers.saturating_sub(2),
            ..*cfg
        };
        let spec = PartitionSpec {
            pp: stages,
            vp: 1,
            dp: 1,
            seq: SequenceSplit::SlicePipeline { slices },
            recompute: false,
            micro_batch_size: 1,
            global_batch: micro_batches,
        };
        let cluster = ClusterSpec {
            nodes: 1,
            gpus_per_node: stages,
            accelerator: AcceleratorSpec::rtx4090(),
            intra_node: LinkSpec::pcie4(),
            inter_node: LinkSpec::ib_100g(),
        };
        ExecutionCost::new(cfg, spec, &cluster)
    }

    /// How the runtime is modeled when scoring fits: dynamic wgrad drain,
    /// the execution mode the traces come from. Fits are scored on the
    /// makespan and the segments, which leave out DP sync and the
    /// optimizer (neither happens inside `run_iteration`).
    fn sim_config() -> SimConfig {
        SimConfig {
            dynamic_wgrad: true,
            ..Default::default()
        }
    }

    /// Scores the model currently in force against `trace` (measured
    /// under `schedule`) and appends the round to the report. Returns the
    /// round's mean relative error.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (malformed schedule).
    pub fn record_round(
        &mut self,
        schedule: &Schedule,
        trace: &IterationTrace,
    ) -> Result<f64, String> {
        let sim = simulate(
            schedule,
            &ModelCost::new(self.current.clone()),
            &Self::sim_config(),
        )?;
        self.report.push_round(&fidelity::time(trace, &sim));
        Ok(self
            .report
            .rounds
            .last()
            .expect("round pushed")
            .mean_rel_error)
    }

    /// Pools fitting samples from one measured iteration (call once per
    /// traced iteration; several per round is fine).
    pub fn absorb(&mut self, trace: &IterationTrace) {
        self.pooled.merge(&extract_samples(trace, &self.current));
    }

    /// Refits the model from every sample pooled so far.
    pub fn refit(&mut self) {
        self.current = fit_execution_cost(&self.current, &self.pooled);
    }

    /// One full round on a single trace: score, pool, refit.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures from [`Calibrator::record_round`].
    pub fn observe(&mut self, schedule: &Schedule, trace: &IterationTrace) -> Result<f64, String> {
        let err = self.record_round(schedule, trace)?;
        self.absorb(trace);
        self.refit();
        Ok(err)
    }

    /// The model currently in force (the prior until the first refit).
    pub fn model(&self) -> &ExecutionCost {
        &self.current
    }

    /// The round-by-round error trajectory.
    pub fn report(&self) -> &ConvergenceReport {
        &self.report
    }

    /// Re-runs the schedule search under the fitted costs and returns the
    /// best hot-swap-compatible schedule, polished by backward
    /// rescheduling. `None` if no candidate fits `max_units`.
    ///
    /// # Errors
    ///
    /// Propagates generation/simulation failures from the search.
    pub fn propose(&self, max_units: Option<usize>) -> Result<Option<Proposal>, String> {
        let mut rows = self.engine.retune_mepipe(&self.current, max_units)?;
        if rows.is_empty() {
            return Ok(None);
        }
        let best = rows.remove(0);
        let polished = reschedule_backwards(&best.schedule)?;
        let rescheduled = polished.workers != best.schedule.workers;
        Ok(Some(Proposal {
            spec: ScheduleSpec {
                reschedule: rescheduled,
                ..best.spec
            },
            predicted_s: best.iteration_time,
            schedule: if rescheduled {
                Arc::new(polished)
            } else {
                best.schedule
            },
        }))
    }
}

/// Outcome of [`autotune`].
#[derive(Debug, Clone)]
pub struct AutotuneOutcome {
    /// The calibration error trajectory, one round per fit cycle.
    pub report: ConvergenceReport,
    /// The schedule the fitted search recommends (`None` only if nothing
    /// generates, which a valid starting schedule rules out).
    pub proposal: Option<Proposal>,
    /// Loss of every iteration run, in order — warmup iterations first,
    /// then (when the proposal differs) one iteration under the swapped
    /// schedule. The swap must not perturb these: each equals the loss of
    /// the same schedule run from scratch, bit for bit.
    pub losses: Vec<f64>,
    /// Whether the final iteration ran under a swapped schedule.
    pub swapped: bool,
}

/// Runs the whole loop on a live runtime: `rounds` fit cycles of
/// `iters_per_round` traced warmup iterations each, then a calibrated
/// re-search and — when it recommends a different shape — one iteration
/// under the swapped schedule, on the same runtime, without dropping the
/// warmed arenas or model state.
///
/// `prior.partition()` must match the runtime shape (stages, virtual
/// chunks, micro-batches, sequence length) — [`Calibrator::prior_for`]
/// builds a matching one.
///
/// # Errors
///
/// Fails on shape mismatches, transport failures (as strings), or when
/// the runtime was built without tracing.
pub fn autotune(
    rt: &PipelineRuntime,
    schedule: &Schedule,
    batch: &[Vec<usize>],
    mode: WgradMode,
    prior: ExecutionCost,
    rounds: usize,
    iters_per_round: usize,
) -> Result<AutotuneOutcome, String> {
    if !rt.tracing() {
        return Err("autotune needs a runtime built with_tracing(true)".into());
    }
    let spec = prior.partition();
    if spec.pp != schedule.meta.stages
        || spec.vp != schedule.meta.virtual_chunks
        || spec.micro_batches() != schedule.meta.micro_batches
        || spec.seq.spp_slices() != schedule.meta.slices
        || prior.config().seq_len != rt.model.cfg.seq_len
    {
        return Err(format!(
            "prior shape (p={} v={} n={} s={} seq={}) disagrees with the \
             schedule/runtime (p={} v={} n={} s={} seq={})",
            spec.pp,
            spec.vp,
            spec.micro_batches(),
            spec.seq.spp_slices(),
            prior.config().seq_len,
            schedule.meta.stages,
            schedule.meta.virtual_chunks,
            schedule.meta.micro_batches,
            schedule.meta.slices,
            rt.model.cfg.seq_len,
        ));
    }
    let mut cal = Calibrator::new(prior);
    let mut losses = Vec::new();
    for _ in 0..rounds.max(1) {
        let mut last_trace = None;
        for _ in 0..iters_per_round.max(1) {
            let stats = rt
                .run_iteration(schedule, batch, mode, None)
                .map_err(|e| e.to_string())?;
            losses.push(stats.loss);
            let trace = stats.trace.ok_or("traced run returned no trace")?;
            cal.absorb(&trace);
            last_trace = Some(trace);
        }
        // Score the model that was in force for this round's iterations,
        // then refit from everything pooled so far.
        cal.record_round(schedule, &last_trace.expect("at least one iteration"))?;
        cal.refit();
    }
    let proposal = cal.propose(None)?;
    let swapped = proposal.as_ref().is_some_and(|p| {
        p.spec.dims.s != schedule.meta.slices || p.schedule.workers != schedule.workers
    });
    if let (true, Some(p)) = (swapped, &proposal) {
        let stats = rt
            .run_iteration(&p.schedule, batch, mode, None)
            .map_err(|e| e.to_string())?;
        losses.push(stats.loss);
    }
    Ok(AutotuneOutcome {
        report: cal.report().clone(),
        proposal,
        losses,
        swapped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_comm::TransportConfig;
    use mepipe_core::svpp::Mepipe;
    use mepipe_schedule::generator::{Dims, ScheduleGenerator};
    use mepipe_tensor::init::synthetic_tokens;

    use crate::params::ModelParams;

    fn tiny_cfg() -> TransformerConfig {
        TransformerConfig {
            seq_len: 32,
            ..TransformerConfig::tiny(4)
        }
    }

    fn make_batch(cfg: &TransformerConfig, n: usize, seed: u64) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, seed + i as u64))
            .collect()
    }

    /// A link whose per-message latency dwarfs everything else: the
    /// calibrated search must react by coarsening the slicing.
    fn laggy() -> LinkSpec {
        LinkSpec {
            name: "laggy-test-link",
            bandwidth: 1e9,
            latency: 2e-3,
        }
    }

    /// A model whose GEMMs take milliseconds on this CPU. The
    /// convergence assertion needs the datasheet prior to be *clearly*
    /// wrong: at `tiny`'s 64-hidden, µs-scale ops the RTX 4090 prior
    /// lands inside the fitted model's own residual and round-to-round
    /// noise decides the comparison.
    fn chunky_cfg() -> TransformerConfig {
        TransformerConfig {
            seq_len: 32,
            hidden: 256,
            ffn_hidden: 512,
            ..TransformerConfig::tiny(4)
        }
    }

    #[test]
    fn autotune_error_shrinks_and_proposal_coarsens_on_a_laggy_link() {
        let cfg = chunky_cfg();
        let rt = PipelineRuntime::new(ModelParams::init(cfg, 42), 2, 1)
            .with_transport(TransportConfig::in_proc().with_link(laggy()))
            .with_tracing(true);
        let schedule = Mepipe::new().generate(&Dims::new(2, 2).slices(8)).unwrap();
        let batch = make_batch(&cfg, 2, 7);
        let prior = Calibrator::prior_for(&cfg, 2, 8, 2).unwrap();
        let out = autotune(&rt, &schedule, &batch, WgradMode::DrainOnWait, prior, 2, 1).unwrap();
        assert_eq!(out.report.rounds.len(), 2, "{}", out.report.render());
        assert!(
            out.report.is_strictly_decreasing(),
            "{}",
            out.report.render()
        );
        let p = out.proposal.expect("search proposes something");
        assert!(
            p.spec.dims.s < 8,
            "a 2 ms/message link should coarsen slicing, got {} slices",
            p.spec.dims.s
        );
        assert!(out.swapped, "proposal should differ from the 8-slice start");
    }

    #[test]
    fn calibration_never_perturbs_the_losses() {
        // Every loss autotune records — before and after the swap — must
        // equal a from-scratch run of the same schedule, bit for bit:
        // calibration observes, it does not touch the math.
        let cfg = tiny_cfg();
        let rt = PipelineRuntime::new(ModelParams::init(cfg, 11), 2, 1)
            .with_transport(TransportConfig::in_proc().with_link(laggy()))
            .with_tracing(true);
        let schedule = Mepipe::new().generate(&Dims::new(2, 2).slices(4)).unwrap();
        let batch = make_batch(&cfg, 2, 3);
        let prior = Calibrator::prior_for(&cfg, 2, 4, 2).unwrap();
        let out = autotune(&rt, &schedule, &batch, WgradMode::DrainOnWait, prior, 2, 1).unwrap();

        let fresh = |sch: &Schedule| {
            PipelineRuntime::new(ModelParams::init(cfg, 11), 2, 1)
                .run_iteration(sch, &batch, WgradMode::DrainOnWait, None)
                .unwrap()
                .loss
        };
        let warmup_loss = fresh(&schedule);
        for (i, l) in out.losses[..2].iter().enumerate() {
            assert_eq!(
                l.to_bits(),
                warmup_loss.to_bits(),
                "warmup iteration {i} loss drifted"
            );
        }
        if out.swapped {
            let p = out.proposal.as_ref().unwrap();
            assert_eq!(
                out.losses.last().unwrap().to_bits(),
                fresh(&p.schedule).to_bits(),
                "post-swap loss differs from running the new schedule from scratch"
            );
        }
    }

    #[test]
    fn proposal_regenerates_from_its_broadcast_fields() {
        // Worker processes rebuild a proposal from its `ScheduleSpec`
        // alone; that must give back its schedule.
        // A long sequence on a fast link proposes a sliced schedule, and a
        // memory cap a lower warmup.
        let long = TransformerConfig {
            seq_len: 8192,
            hidden: 4096,
            ffn_hidden: 8192,
            heads: 8,
            kv_heads: 8,
            ..TransformerConfig::tiny(8)
        };
        for (cfg, stages, link, cap) in [
            (tiny_cfg(), 2, LinkSpec::pcie4(), None),
            (long, 4, LinkSpec::nvlink3(), None),
            (long, 4, LinkSpec::nvlink3(), Some(3)),
        ] {
            let prior = Calibrator::prior_for(&cfg, stages, 4, 4)
                .unwrap()
                .with_pp_link(link);
            let p = Calibrator::new(prior)
                .propose(cap)
                .unwrap()
                .expect("a proposal");
            assert_eq!(ScheduleSpec::from_args(&p.spec.to_args()), Ok(p.spec));
            assert_eq!(p.spec.generate().unwrap(), *p.schedule, "{:?}", p.spec);
        }
    }

    #[test]
    fn shape_mismatch_is_rejected_up_front() {
        let cfg = tiny_cfg();
        let rt = PipelineRuntime::new(ModelParams::init(cfg, 1), 2, 1).with_tracing(true);
        let schedule = Mepipe::new().generate(&Dims::new(2, 2).slices(4)).unwrap();
        let batch = make_batch(&cfg, 2, 1);
        // Prior says 4 micro-batches; the schedule runs 2.
        let prior = Calibrator::prior_for(&cfg, 2, 4, 4).unwrap();
        let err =
            autotune(&rt, &schedule, &batch, WgradMode::DrainOnWait, prior, 1, 1).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
    }
}
