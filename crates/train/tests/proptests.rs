//! Property tests for the pipeline runtime: arena pooling and parallel
//! data parallelism must be *bitwise* invisible — same loss bits, same
//! gradient bits — across random model shapes, kernel-worker counts and
//! weight-gradient modes.

use proptest::prelude::*;

use mepipe_comm::{Backend, TransportConfig};
use mepipe_core::svpp::Mepipe;
use mepipe_core::{Svpp, Synth};
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::exec::{simulate, SimConfig, UnitCost};
use mepipe_schedule::generator::{
    Dapple, Dims, GPipe, Hanayo, ScheduleGenerator, TeraPipe, Vpp, Zb, Zbv,
};
use mepipe_schedule::ir::Schedule;
use mepipe_schedule::validate::validate;
use mepipe_schedule::{Blocks, DualPipe};
use mepipe_tensor::init::synthetic_tokens;
use mepipe_train::{
    optim::ModelGrads,
    params::ModelParams,
    reference::{add_grads, batch_forward_backward},
    PipelineRuntime, RunStats, WgradMode,
};

fn make_batch(cfg: &TransformerConfig, n: usize, seed: u64) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, seed + i as u64))
        .collect()
}

fn mode_of(idx: usize) -> WgradMode {
    match idx {
        0 => WgradMode::Immediate,
        1 => WgradMode::AtWeightOp,
        _ => WgradMode::DrainOnWait,
    }
}

/// The serial replica loop `run_data_parallel` replaced — kept here as
/// the executable spec its parallel version must match bit for bit.
fn serial_data_parallel(
    rt: &PipelineRuntime,
    schedule: &Schedule,
    batch: &[Vec<usize>],
    replicas: usize,
    mode: WgradMode,
) -> (f64, ModelGrads) {
    let shard = batch.len() / replicas;
    let mut loss = 0.0f64;
    let mut grads: Option<ModelGrads> = None;
    for r in 0..replicas {
        let stats = rt
            .run_iteration(schedule, &batch[r * shard..(r + 1) * shard], mode, None)
            .expect("serial replica run");
        loss += stats.loss;
        match &mut grads {
            None => grads = Some(stats.grads),
            Some(g) => add_grads(g, &stats.grads, 1.0),
        }
    }
    let mut g = grads.expect("at least one replica");
    g.scale(1.0 / replicas as f32);
    (loss / replicas as f64, g)
}

/// Merged arena counters over every stage of a run.
fn merged_arena(stats: &RunStats) -> mepipe_tensor::ArenaStats {
    stats
        .arena
        .iter()
        .fold(mepipe_tensor::ArenaStats::default(), |acc, s| acc.merged(s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arena-pooled runs are bit-identical to fresh-allocation runs:
    /// same loss bits, `max_abs_diff == 0`, across random shapes ×
    /// kernel-worker counts × weight-gradient modes — including the
    /// second iteration, which runs entirely out of recycled buffers.
    #[test]
    fn pooled_runs_are_bit_identical_to_fresh(
        layers_half in 1usize..3,   // 2 or 4 layers over 2 stages
        ts in prop::sample::select(vec![4usize, 8]),
        slices in prop::sample::select(vec![1usize, 2, 4]),
        micro_batches in 1usize..3,
        workers in 1usize..4,
        mode_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let layers = 2 * layers_half;
        let cfg = TransformerConfig {
            seq_len: ts * slices,
            ..TransformerConfig::tiny(layers)
        };
        let mode = mode_of(mode_idx);
        let sch = Mepipe::new()
            .generate(&Dims::new(2, micro_batches).slices(slices))
            .unwrap();
        let batch = make_batch(&cfg, micro_batches, seed);

        let run = |pooled: bool| {
            let mut rt = PipelineRuntime::new(ModelParams::init(cfg, seed), 2, 1)
                .with_kernel_workers(workers)
                .with_arena(pooled);
            // Two steps: the second exercises warm free lists (pooled)
            // against plain allocation (fresh), with the SGD-updated
            // model making the iterations distinct.
            let first = rt.train_step(&sch, &batch, mode, 0.05).unwrap();
            let second = rt.train_step(&sch, &batch, mode, 0.05).unwrap();
            (first, second)
        };
        let (p1, p2) = run(true);
        let (f1, f2) = run(false);
        prop_assert_eq!(p1.loss.to_bits(), f1.loss.to_bits());
        prop_assert_eq!(p2.loss.to_bits(), f2.loss.to_bits());
        prop_assert_eq!(p1.grads.max_abs_diff(&f1.grads), 0.0);
        prop_assert_eq!(p2.grads.max_abs_diff(&f2.grads), 0.0);
        // The pooled second step actually pooled something...
        let warm = merged_arena(&p2);
        prop_assert!(warm.hits > 0, "warm run never hit the arena");
        // ...and the unpooled runtime reports idle counters.
        let fresh = merged_arena(&f2);
        prop_assert_eq!(fresh.hits + fresh.misses, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The concurrent `run_data_parallel` equals the serial replica loop
    /// exactly: bit-equal loss, bit-equal gradients.
    #[test]
    fn parallel_dp_matches_serial_loop_bitwise(
        replicas in 1usize..4,
        shard in 1usize..3,
        workers in 1usize..3,
        mode_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let cfg = TransformerConfig {
            seq_len: 16,
            ..TransformerConfig::tiny(2)
        };
        let mode = mode_of(mode_idx);
        let sch = Mepipe::new().generate(&Dims::new(2, shard).slices(2)).unwrap();
        let batch = make_batch(&cfg, replicas * shard, seed);
        let rt = PipelineRuntime::new(ModelParams::init(cfg, seed), 2, 1)
            .with_kernel_workers(workers);

        let par = rt.run_data_parallel(&sch, &batch, replicas, mode).unwrap();
        let (serial_loss, serial_grads) = serial_data_parallel(&rt, &sch, &batch, replicas, mode);
        prop_assert_eq!(par.loss.to_bits(), serial_loss.to_bits());
        prop_assert_eq!(par.grads.max_abs_diff(&serial_grads), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hot-swapping to a different schedule between iterations — what the
    /// calibration loop does mid-run — is bitwise invisible: an iteration
    /// under the new schedule on a runtime already warmed by the old one
    /// (recycled arenas, live transport links) equals a fresh runtime
    /// running the new schedule from scratch, on both the InProc and UDS
    /// transports and under every weight-gradient mode.
    #[test]
    fn hot_swapped_schedule_matches_fresh_run(
        seed in 0u64..1000,
        from_slices in prop::sample::select(vec![2usize, 4, 8]),
        to_slices in prop::sample::select(vec![1usize, 2, 4]),
        mode_idx in 0usize..3,
        uds in proptest::bool::ANY,
    ) {
        let stages = 2;
        let cfg = TransformerConfig {
            seq_len: 16,
            ..TransformerConfig::tiny(4)
        };
        let mode = mode_of(mode_idx);
        let micro_batches = stages;
        let from = Mepipe::new()
            .generate(&Dims::new(stages, micro_batches).slices(from_slices))
            .unwrap();
        let to = Mepipe::new()
            .generate(&Dims::new(stages, micro_batches).slices(to_slices))
            .unwrap();
        let batch = make_batch(&cfg, micro_batches, seed);

        let run = |warm: bool, tag: &str| {
            let dir = uds.then(|| {
                std::env::temp_dir().join(format!(
                    "mepipe-swap-{tag}-{}-{seed}-{from_slices}-{to_slices}",
                    std::process::id()
                ))
            });
            let config = match &dir {
                Some(d) => TransportConfig {
                    backend: Backend::Uds(d.clone()),
                    ..TransportConfig::default()
                },
                None => TransportConfig::in_proc(),
            };
            let rt = PipelineRuntime::new(ModelParams::init(cfg, seed), stages, 1)
                .with_transport(config);
            if warm {
                // The pre-swap iteration seeds the arenas and exercises
                // the links with the *old* slicing before the swap.
                rt.run_iteration(&from, &batch, mode, None)
                    .expect("pre-swap iteration");
            }
            let stats = rt
                .run_iteration(&to, &batch, mode, None)
                .expect("post-swap iteration");
            drop(rt);
            if let Some(d) = dir {
                let _ = std::fs::remove_dir_all(&d);
            }
            stats
        };

        let swapped = run(true, "warm");
        let fresh = run(false, "fresh");
        prop_assert_eq!(
            swapped.loss.to_bits(),
            fresh.loss.to_bits(),
            "hot-swapped loss differs from a scratch run of the new schedule"
        );
        prop_assert_eq!(
            swapped.grads.max_abs_diff(&fresh.grads),
            0.0,
            "hot-swapped grads differ from a scratch run of the new schedule"
        );
    }
}

/// The whole registered generator zoo — the seven literature baselines,
/// SVPP and MEPipe, and the three synthesized tiers — with the dims each
/// family defines at a sampled grid point. The third element is the
/// runtime's virtual-chunk count (= the schedule dims' `v`).
fn generator_zoo(p: usize, n: usize, s: usize) -> Vec<(Box<dyn ScheduleGenerator>, Dims, usize)> {
    let flat = Dims::new(p, n);
    vec![
        (Box::new(GPipe) as Box<dyn ScheduleGenerator>, flat, 1),
        (Box::new(Dapple), flat, 1),
        (Box::new(Zb), flat, 1),
        (Box::new(Vpp), flat.virtual_chunks(2), 2),
        (Box::new(Hanayo), flat.virtual_chunks(2), 2),
        (Box::new(Zbv), flat.virtual_chunks(2), 2),
        (Box::new(TeraPipe), flat.slices(s), 1),
        (Box::new(Svpp::new()), flat.slices(s), 1),
        (Box::new(Mepipe::new()), flat.slices(s), 1),
        (
            Box::new(DualPipe::new()),
            flat.virtual_chunks(2).slices(s),
            2,
        ),
        (Box::new(Blocks::uniform()), flat.slices(s), 1),
        (Box::new(Synth::new()), flat.slices(s), 1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Every registered schedule generator — old zoo and synthesized
    /// tiers alike — produces schedules at sampled Fig-8-style grid
    /// points that (a) pass the structural validator, (b) clear the
    /// simulator, and (c) train on the in-process runtime: loss and
    /// gradients within tolerance of the single-device batch reference
    /// (schedules reorder float accumulation, so bitwise equality with
    /// the reference is not expected), and bitwise *repeatable* across
    /// two runs of the same schedule. The model is deliberately minute:
    /// the 12-generator × 2-run loop runs under the debug profile in CI.
    #[test]
    fn generator_zoo_validates_simulates_and_trains(
        p in prop::sample::select(vec![2usize, 4]),
        s in prop::sample::select(vec![1usize, 2]),
        seed in 0u64..1000,
    ) {
        // n = 2p: even (DualPipe) and a multiple of p (VPP).
        let n = 2 * p;
        let cfg = TransformerConfig {
            hidden: 32,
            layers: 8, // divisible by every p·v ≤ 8 in the grid
            ffn_hidden: 64,
            heads: 2,
            kv_heads: 2,
            vocab: 64,
            seq_len: 8,
        };
        let batch = make_batch(&cfg, n, seed + 1);
        let reference = batch_forward_backward(&ModelParams::init(cfg, seed), &batch);
        for (g, dims, chunks) in generator_zoo(p, n, s) {
            let sch = g
                .generate(&dims)
                .unwrap_or_else(|e| panic!("{} rejected {dims}: {e}", g.name()));
            validate(&sch).unwrap_or_else(|e| panic!("{} invalid at {dims}: {e}", g.name()));
            let sim = simulate(&sch, &UnitCost::default(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("{} failed to simulate at {dims}: {e}", g.name()));
            prop_assert!(
                sim.makespan > 0.0,
                "{}: empty simulated makespan at {}", g.name(), dims
            );
            let rt = PipelineRuntime::new(ModelParams::init(cfg, seed), p, chunks);
            let stats = rt
                .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
                .unwrap_or_else(|e| panic!("{} run failed at {dims}: {e:?}", g.name()));
            prop_assert!(
                (stats.loss - reference.loss).abs() < 1e-4,
                "{}: loss {} vs reference {} at {}", g.name(), stats.loss, reference.loss, dims
            );
            prop_assert!(
                stats.grads.max_abs_diff(&reference.grads) < 1e-3,
                "{}: grads off reference at {}", g.name(), dims
            );
            let again = rt
                .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
                .unwrap();
            prop_assert_eq!(
                stats.loss.to_bits(),
                again.loss.to_bits(),
                "{} is not bitwise repeatable at {}", g.name(), dims
            );
            prop_assert_eq!(stats.grads.max_abs_diff(&again.grads), 0.0);
        }
    }
}

/// The acceptance bar for the arena itself: once warmed up, at least 90%
/// of all buffer acquisitions across every stage are served from the
/// free lists (in practice it is well above that — the residual misses
/// are the per-iteration gradient accumulators, which leave their stage
/// thread inside the merged result).
#[test]
fn arena_steady_state_hit_rate_is_at_least_90_percent() {
    let cfg = TransformerConfig {
        seq_len: 32,
        ..TransformerConfig::tiny(4)
    };
    let sch = Mepipe::new().generate(&Dims::new(2, 2).slices(4)).unwrap();
    let batch = make_batch(&cfg, 2, 77);
    let rt = PipelineRuntime::new(ModelParams::init(cfg, 77), 2, 1).with_kernel_workers(1);
    assert!(rt.pooled(), "arenas must be on by default");

    let cold = rt
        .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
        .unwrap();
    let warm = rt
        .run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
        .unwrap();
    let cold_stats = merged_arena(&cold);
    let warm_stats = merged_arena(&warm);
    // The cold run mostly misses; the warm run runs out of the pool.
    assert!(cold_stats.misses > 0);
    assert!(
        warm_stats.hit_rate() >= 0.90,
        "steady-state hit rate {:.3} below 0.90 ({} hits / {} misses)",
        warm_stats.hit_rate(),
        warm_stats.hits,
        warm_stats.misses
    );
    // Per-stage counters are populated for every stage.
    assert_eq!(warm.arena.len(), 2);
    assert!(warm.arena.iter().all(|s| s.hits > 0));
}
