//! Measured runs reconciled against the model, end to end.
//!
//! Each test runs the real threaded runtime, builds the matching
//! `mepipe_sim::fidelity` report and prints it; run with
//! `cargo test -p mepipe-train --test fidelity -- --nocapture` to see the
//! tables.

use std::collections::BTreeSet;

use mepipe_core::svpp::Mepipe;
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::exec::{simulate, SimConfig};
use mepipe_schedule::generator::{Dims, ScheduleGenerator};
use mepipe_schedule::ir::Schedule;
use mepipe_schedule::validate::peak_in_flight;
use mepipe_sim::{fidelity, ModelCost, RATIO_WARN_HI, RATIO_WARN_LO};
use mepipe_tensor::init::synthetic_tokens;
use mepipe_trace::bubble;
use mepipe_train::{
    calibrate::Calibrator, metrics::run_metrics, params::ModelParams, PipelineRuntime, RunStats,
    WgradMode,
};

const SEED: u64 = 7;

fn config(layers: usize) -> TransformerConfig {
    TransformerConfig {
        seq_len: 32,
        ..TransformerConfig::tiny(layers)
    }
}

/// Generates the schedule and runs one iteration of it on a fresh model.
fn run(cfg: TransformerConfig, dims: Dims, mode: WgradMode, tracing: bool) -> (Schedule, RunStats) {
    let schedule = Mepipe::new().generate(&dims).expect("valid dims");
    let batch: Vec<Vec<usize>> = (0..schedule.meta.micro_batches)
        .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, SEED + 1000 + i as u64))
        .collect();
    let stats = PipelineRuntime::new(ModelParams::init(cfg, SEED), schedule.meta.stages, 1)
        .with_tracing(tracing)
        .run_iteration(&schedule, &batch, mode, None)
        .expect("iteration");
    (schedule, stats)
}

/// A traced 2-stage iteration, calibrated from its own spans and
/// simulated under the fitted costs: the time report has one row per
/// `(stage, op kind)` the trace recorded and a finite error.
#[test]
fn traced_iteration_reconciles_with_its_calibrated_simulation() {
    let cfg = config(4);
    let (stages, micro_batches, slices) = (2, 2, 4);
    let (schedule, traced) = run(
        cfg,
        Dims::new(stages, micro_batches).slices(slices),
        WgradMode::DrainOnWait,
        true,
    );
    let trace = traced.trace.as_ref().expect("traced run carries a trace");

    let prior = Calibrator::prior_for(&cfg, stages, slices, micro_batches).expect("prior");
    let mut calibrator = Calibrator::new(prior);
    let prior_error = calibrator
        .observe(&schedule, trace)
        .expect("calibration round");
    let sim = simulate(
        &schedule,
        &ModelCost::new(calibrator.model().clone()),
        &SimConfig {
            dynamic_wgrad: true,
            ..Default::default()
        },
    )
    .expect("simulation of the measured schedule");
    let report = fidelity::time(trace, &sim);
    print!("{}", bubble::attribute(trace).render());
    print!("{}", report.render());
    println!(
        "mean relative error: {prior_error:.4} (datasheet prior) -> {:.4} (fitted)",
        report.mean_relative_error()
    );

    let recorded: BTreeSet<String> = trace
        .stages
        .iter()
        .flat_map(|st| {
            st.spans
                .iter()
                .filter(|s| s.kind.is_compute())
                .map(move |s| format!("stage {} {}", st.stage, s.kind.letter()))
        })
        .collect();
    for what in &recorded {
        assert_eq!(
            report.rows.iter().filter(|r| &r.what == what).count(),
            1,
            "expected exactly one row for {what}"
        );
    }
    for r in report.rows.iter().filter(|r| !recorded.contains(&r.what)) {
        assert_eq!(
            r.measured, 0.0,
            "row {} measured time the trace lacks",
            r.what
        );
    }
    assert!(
        report.mean_relative_error().is_finite(),
        "{}",
        report.render()
    );
    // The per-op duration histograms of a traced run must pass the
    // metric-name lint too.
    let violations = run_metrics(&traced).lint_names();
    assert!(violations.is_empty(), "metric name lint: {violations:?}");
}

/// The paper's in-flight memory model at the Fig-8 pipeline shape: a
/// one-micro-batch probe prices one unit per stage, and the full
/// schedule's measured peaks must land within the band of
/// `peak_in_flight × unit`. Fused backward only: deferred-W modes retain
/// operands past the model's credit point, which is real memory the
/// model does not price — exactly what the band exists to flag.
#[test]
fn memory_matches_the_in_flight_model_at_the_fig8_shape() {
    let cfg = config(4);
    let dims = |micro_batches| Dims::new(4, micro_batches).slices(2);
    let (probe_schedule, probe) = run(cfg, dims(1), WgradMode::Immediate, false);
    let unit_prices: Vec<f64> = probe
        .peak_bytes
        .iter()
        .zip(peak_in_flight(&probe_schedule))
        .map(|(&bytes, units)| bytes as f64 / units.max(1) as f64)
        .collect();
    let (schedule, full) = run(cfg, dims(8), WgradMode::Immediate, false);
    let report = fidelity::memory(&schedule, &full.peak_bytes, &unit_prices);
    print!("{}", report.render());

    for r in &report.rows {
        assert!(
            (RATIO_WARN_LO..=RATIO_WARN_HI).contains(&r.ratio()),
            "{} outside the band:\n{}",
            r.what,
            report.render()
        );
    }
    assert!(report.warnings().is_empty(), "{:?}", report.warnings());
    let violations = run_metrics(&full).lint_names();
    assert!(violations.is_empty(), "metric name lint: {violations:?}");
}
