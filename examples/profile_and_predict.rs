//! The paper's Section-6 pipeline end to end on this machine: *profile*
//! one traced iteration of the threaded runtime, *fit* the cost model to
//! its measured spans, *schedule + simulate* under the fitted costs to
//! predict the iteration, then *execute* the same schedule again and
//! compare.
//!
//! ```sh
//! cargo run --release --example profile_and_predict
//! ```

use std::time::Instant;

use mepipe::model::config::TransformerConfig;
use mepipe::schedule::exec::{simulate, SimConfig};
use mepipe::sim::{fidelity, ModelCost};
use mepipe::tensor::init::synthetic_tokens;
use mepipe::trace::SpanKind;
use mepipe::train::{
    calibrate::Calibrator,
    params::ModelParams,
    pipeline::{PipelineRuntime, WgradMode},
};
use mepipe::{Dims, Mepipe, ScheduleGenerator};

fn main() {
    let cfg = TransformerConfig {
        seq_len: 256,
        ..TransformerConfig::tiny(4)
    };
    let (stages, slices, micro_batches) = (2usize, 4usize, 4usize);
    let schedule = Mepipe::new()
        .generate(&Dims::new(stages, micro_batches).slices(slices))
        .expect("valid config");
    let batch: Vec<Vec<usize>> = (0..micro_batches)
        .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, i as u64))
        .collect();
    let rt = PipelineRuntime::new(ModelParams::init(cfg, 99), stages, 1).with_tracing(true);
    // Warm up allocators and arenas once, so the profile sees steady state.
    rt.run_iteration(&schedule, &batch, WgradMode::DrainOnWait, None)
        .expect("warm-up iteration");

    // 1. Profile: one traced iteration measures every F / b / W span.
    let profiled = rt
        .run_iteration(&schedule, &batch, WgradMode::DrainOnWait, None)
        .expect("traced iteration");
    let trace = profiled.trace.as_ref().expect("traced run carries a trace");
    let forward_ms: Vec<f64> = (0..slices)
        .map(|sl| {
            let spans: Vec<u64> = trace.stages[0]
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Forward && s.slice as usize == sl)
                .map(|s| s.duration_ns())
                .collect();
            spans.iter().sum::<u64>() as f64 * 1e-6 / spans.len().max(1) as f64
        })
        .collect();
    println!(
        "measured stage-0 forward time per slice (ms): {:?}",
        forward_ms
            .iter()
            .map(|t| (t * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!(
        "slice imbalance (last/first): {:.2}x — the Section 5 imbalance, measured",
        forward_ms[slices - 1] / forward_ms[0]
    );

    // 2. Fit: score the datasheet prior against the spans, then refit the
    //    GEMM-efficiency curve and the link model from them.
    let prior = Calibrator::prior_for(&cfg, stages, slices, micro_batches).expect("prior");
    let mut calibrator = Calibrator::new(prior);
    let prior_error = calibrator
        .observe(&schedule, trace)
        .expect("calibration round");

    // 3. Schedule + simulate under the fitted costs.
    let prediction = simulate(
        &schedule,
        &ModelCost::new(calibrator.model().clone()),
        &SimConfig {
            dynamic_wgrad: true,
            ..Default::default()
        },
    )
    .expect("simulation runs");
    let fit = fidelity::time(trace, &prediction);
    println!(
        "per-op mean relative error: {prior_error:.3} (datasheet prior) -> {:.3} (fitted)",
        fit.mean_relative_error()
    );
    print!("{}", fit.render());

    // 4. Execute the same schedule untraced and time it.
    let rt = rt.with_tracing(false);
    let t0 = Instant::now();
    let stats = rt
        .run_iteration(&schedule, &batch, WgradMode::DrainOnWait, None)
        .expect("measured iteration");
    let measured = t0.elapsed().as_secs_f64();
    println!(
        "predicted makespan : {:.1} ms (bubble {:.1}%)",
        prediction.makespan * 1e3,
        prediction.bubble_ratio() * 100.0
    );
    println!(
        "measured iteration : {:.1} ms (loss {:.4}, {} W GEMMs drained into waits)",
        measured * 1e3,
        stats.loss,
        stats.drained_wgrads.iter().sum::<usize>()
    );
    println!(
        "prediction/measured: {:.2} — thread scheduling and channel overheads \
account for the gap; the *shape* (which stages idle, where W drains) matches.",
        prediction.makespan / measured
    );
}
