//! The paper's Section-6 pipeline end to end: *profile* real per-slice op
//! times on this machine, feed them to the *scheduler* + *simulator* to
//! predict the iteration, then *execute* the same schedule on the
//! threaded runtime and compare.
//!
//! ```sh
//! cargo run --release --example profile_and_predict
//! ```

use std::time::Instant;

use mepipe::model::config::TransformerConfig;
use mepipe::schedule::exec::{simulate, SimConfig};
use mepipe::tensor::init::synthetic_tokens;
use mepipe::train::{
    params::ModelParams,
    pipeline::{PipelineRuntime, WgradMode},
    profiler::profile_chunk,
};
use mepipe::{Dims, Mepipe, ScheduleGenerator};

fn main() {
    let cfg = TransformerConfig {
        seq_len: 256,
        ..TransformerConfig::tiny(4)
    };
    let (stages, slices, micro_batches) = (2usize, 4usize, 4usize);
    let model = ModelParams::init(cfg, 99);

    // 1. Profile: measure F / Bi / W per slice on one chunk, for real.
    let layers_per_chunk = cfg.layers / stages;
    let profiled = profile_chunk(&model, layers_per_chunk, slices, 3);
    println!(
        "profiled per-slice forward times (ms): {:?}",
        profiled
            .forward
            .iter()
            .map(|t| (t * 1e3 * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!(
        "slice imbalance (last/first): {:.2}x — the Section 5 imbalance, measured",
        profiled.forward[slices - 1] / profiled.forward[0]
    );

    // 2. Schedule + simulate with the profiled costs.
    let schedule = Mepipe::new()
        .generate(&Dims::new(stages, micro_batches).slices(slices))
        .expect("valid config");
    let prediction = simulate(
        &schedule,
        &profiled,
        &SimConfig {
            dynamic_wgrad: true,
            ..Default::default()
        },
    )
    .expect("simulation runs");
    println!(
        "predicted iteration: {:.1} ms (bubble {:.1}%)",
        prediction.iteration_time * 1e3,
        prediction.bubble_ratio() * 100.0
    );

    // 3. Execute the same schedule on the threaded runtime and time it.
    let rt = PipelineRuntime::new(model, stages, 1);
    let batch: Vec<Vec<usize>> = (0..micro_batches)
        .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, i as u64))
        .collect();
    // Warm up allocators/caches once.
    let _ = rt
        .run_iteration(&schedule, &batch, WgradMode::DrainOnWait, None)
        .expect("warm-up iteration");
    let t0 = Instant::now();
    let stats = rt
        .run_iteration(&schedule, &batch, WgradMode::DrainOnWait, None)
        .expect("measured iteration");
    let measured = t0.elapsed().as_secs_f64();
    println!(
        "measured iteration : {:.1} ms (loss {:.4}, {} W GEMMs drained into waits)",
        measured * 1e3,
        stats.loss,
        stats.drained_wgrads.iter().sum::<usize>()
    );
    println!(
        "prediction/measured: {:.2} — thread scheduling and channel overheads \
account for the gap; the *shape* (which stages idle, where W drains) matches.",
        prediction.iteration_time / measured
    );
}
