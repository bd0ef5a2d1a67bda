//! Backend equivalence: the training runtime must produce bit-identical
//! results no matter which transport carries the boundary tensors.
//!
//! The pipeline's numerics are fully determined by the schedule and the
//! weights; the transport only moves bytes. So InProc (no serialization),
//! Socket (framed tensors over UDS between threads), and Emulated (link
//! timing and seeded delays over InProc) must all yield the same loss
//! bits and the same gradient bytes. Any divergence means a transport
//! corrupted, reordered, or dropped a tensor. The same holds across
//! iterations on one persistent socket mesh, the way a `mepipe-worker
//! job` gang runs.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use mepipe_comm::{
    Backend, CodecId, CommConfig, FaultSpec, SocketMode, SocketTransport, StageLink, Transport,
    TransportConfig,
};
use mepipe_core::svpp::Mepipe;
use mepipe_hw::LinkSpec;
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::generator::{Dims, ScheduleGenerator, Vpp, Zbv};
use mepipe_schedule::ir::Schedule;
use mepipe_schedule::DualPipe;
use mepipe_tensor::init::synthetic_tokens;
use mepipe_train::{
    data::batch_for_iter,
    optim::{GradShard, ModelGrads, Sgd},
    params::ModelParams,
    reference::add_grads,
    PipelineRuntime, RunStats, WgradMode,
};

fn run_with(seed: u64, stages: usize, config: TransportConfig) -> (RunStats, PipelineRuntime) {
    let cfg = TransformerConfig {
        seq_len: 16,
        ..TransformerConfig::tiny(4)
    };
    let micro_batches = stages; // minimal full pipeline
    let schedule = Mepipe::new()
        .generate(&Dims::new(stages, micro_batches).slices(2))
        .unwrap();
    let batch: Vec<Vec<usize>> = (0..micro_batches)
        .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, seed + i as u64))
        .collect();
    let rt = PipelineRuntime::new(ModelParams::init(cfg, seed), stages, 1).with_transport(config);
    let stats = rt
        .run_iteration(&schedule, &batch, WgradMode::DrainOnWait, None)
        .expect("iteration");
    (stats, rt)
}

fn uds_dir(tag: &str, seed: u64, stages: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mepipe-eq-{tag}-{}-{seed}-{stages}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// InProc, Socket(UDS), and Emulated(zero-latency loopback) agree
    /// bit-for-bit on loss and gradients across seeds and stage counts.
    #[test]
    fn backends_are_bit_identical(seed in 1u64..1000, stages in prop::sample::select(vec![2usize, 4])) {
        let (inproc, _) = run_with(seed, stages, TransportConfig::in_proc());

        let dir = uds_dir("uds", seed, stages);
        let (socket, _) = run_with(seed, stages, TransportConfig {
            backend: Backend::Uds(dir.clone()),
            ..TransportConfig::default()
        });
        let _ = std::fs::remove_dir_all(&dir);

        let (emulated, _) = run_with(
            seed,
            stages,
            TransportConfig::in_proc().with_link(LinkSpec::loopback()),
        );

        prop_assert_eq!(inproc.loss.to_bits(), socket.loss.to_bits(), "socket loss differs");
        prop_assert_eq!(inproc.loss.to_bits(), emulated.loss.to_bits(), "emulated loss differs");
        prop_assert_eq!(inproc.grads.max_abs_diff(&socket.grads), 0.0, "socket grads differ");
        prop_assert_eq!(inproc.grads.max_abs_diff(&emulated.grads), 0.0, "emulated grads differ");

        // The socket run really did serialize tensors onto the wire.
        let socket_bytes: u64 = socket.comm.iter().map(|c| c.total().tx_bytes).sum();
        prop_assert!(socket_bytes > 0, "socket run moved no bytes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Backend equivalence holds under every wire codec: the in-process
    /// backend applies lossy codecs as an encode/decode round trip, so
    /// InProc, Socket and Emulated still agree bit-for-bit even when
    /// the wire carries bf16. The socket run's codec counters prove the
    /// compression actually happened.
    #[test]
    fn backends_agree_under_every_codec(
        seed in 1u64..1000,
        codec in prop::sample::select(vec![CodecId::F32, CodecId::Bf16, CodecId::Lossy]),
    ) {
        let stages = 2;
        let (inproc, _) = run_with(seed, stages, TransportConfig::in_proc().with_codec(codec));

        let dir = uds_dir("codec", seed, stages);
        let (socket, _) = run_with(seed, stages, TransportConfig {
            backend: Backend::Uds(dir.clone()),
            ..TransportConfig::default()
        }.with_codec(codec));
        let _ = std::fs::remove_dir_all(&dir);

        let (emulated, _) = run_with(
            seed,
            stages,
            TransportConfig::in_proc().with_link(LinkSpec::loopback()).with_codec(codec),
        );

        prop_assert_eq!(inproc.loss.to_bits(), socket.loss.to_bits(), "socket loss differs");
        prop_assert_eq!(inproc.loss.to_bits(), emulated.loss.to_bits(), "emulated loss differs");
        prop_assert_eq!(inproc.grads.max_abs_diff(&socket.grads), 0.0, "socket grads differ");
        prop_assert_eq!(inproc.grads.max_abs_diff(&emulated.grads), 0.0, "emulated grads differ");

        let totals = socket
            .comm
            .iter()
            .map(|c| c.total())
            .fold(mepipe_comm::LinkStats::default(), |a, l| a.merged(&l));
        prop_assert!(totals.payload_bytes_precodec > 0, "no payload counted");
        if codec == CodecId::F32 {
            prop_assert_eq!(totals.payload_bytes_postcodec, totals.payload_bytes_precodec);
        } else {
            prop_assert!(
                totals.payload_bytes_postcodec < totals.payload_bytes_precodec,
                "lossy codec did not shrink the wire payload"
            );
        }
    }

    /// Seeded delay jitter on an emulated link only moves time: loss and
    /// gradients stay bit-identical to a clean run under the same codec,
    /// and the counters prove delays actually fired.
    #[test]
    fn seeded_delays_keep_results_bit_identical(
        seed in 1u64..1000,
        codec in prop::sample::select(vec![CodecId::F32, CodecId::Bf16]),
    ) {
        let stages = 2;
        let (clean, _) = run_with(seed, stages, TransportConfig::in_proc().with_codec(codec));
        let jitter = CommConfig::new().with_codec(codec).with_faults(FaultSpec {
            delay_permille: 500,
            delay_us: 200,
            seed,
        });
        let (delayed, _) = run_with(seed, stages, TransportConfig::in_proc().with_comm(jitter));

        let totals = delayed
            .comm
            .iter()
            .map(|c| c.total())
            .fold(mepipe_comm::LinkStats::default(), |a, l| a.merged(&l));
        prop_assert!(totals.injected_delays >= 1, "no delays injected");
        prop_assert_eq!(clean.loss.to_bits(), delayed.loss.to_bits(), "delayed loss differs");
        prop_assert_eq!(clean.grads.max_abs_diff(&delayed.grads), 0.0, "delayed grads differ");
    }
}

/// Deterministic (non-proptest) spot check that the TCP backend also
/// agrees, on one fixed scenario — kept out of the proptest loop to
/// avoid burning localhost ports.
#[test]
fn tcp_backend_matches_inproc_once() {
    let (inproc, _) = run_with(11, 2, TransportConfig::in_proc());
    let (tcp, _) = run_with(
        11,
        2,
        TransportConfig {
            backend: Backend::Tcp(47230),
            ..TransportConfig::default()
        },
    );
    assert_eq!(inproc.loss.to_bits(), tcp.loss.to_bits());
    assert_eq!(inproc.grads.max_abs_diff(&tcp.grads), 0.0);
}

/// Repeated runs on the same backend are bit-reproducible. This is what
/// makes the cross-backend assertions above meaningful: W-drain timing
/// varies run to run, but the FIFO `pending_w` queue pins the gradient
/// accumulation order to the insertion order regardless of timing.
#[test]
fn repeated_runs_are_deterministic_per_backend() {
    let (inproc, _) = run_with(518, 4, TransportConfig::in_proc());
    let (inproc2, _) = run_with(518, 4, TransportConfig::in_proc());
    assert_eq!(inproc.grads.max_abs_diff(&inproc2.grads), 0.0);
    let mut socket_runs = Vec::new();
    for tag in ["det-a", "det-b"] {
        let dir = uds_dir(tag, 518, 4);
        let (s, _) = run_with(
            518,
            4,
            TransportConfig {
                backend: Backend::Uds(dir.clone()),
                ..TransportConfig::default()
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
        socket_runs.push(s);
    }
    assert_eq!(
        socket_runs[0].grads.max_abs_diff(&socket_runs[1].grads),
        0.0
    );
    assert_eq!(inproc.grads.max_abs_diff(&socket_runs[0].grads), 0.0);
}

/// Each stage's loss share and gradients for one iteration, as posted.
type Posted = Vec<Option<(f64, ModelGrads)>>;

/// A stage's gradient shard as a full-model set: zeros wherever the
/// stage owns nothing.
fn full_grads(model: &ModelParams, shard: GradShard) -> ModelGrads {
    let mut full = ModelGrads::zeros(model);
    if let Some(t) = shard.embedding {
        full.embedding = t;
    }
    for (slot, layer) in full.layers.iter_mut().zip(shard.layers) {
        if let Some(l) = layer {
            *slot = l;
        }
    }
    if let Some(t) = shard.final_norm {
        full.final_norm = t;
    }
    if let Some(t) = shard.head {
        full.head = t;
    }
    full
}

/// Runs three iterations of `schedule` the way a `mepipe-worker job`
/// gang does — one thread, runtime and [`StageLink`] per stage over one
/// UDS mesh, `run_stage` then an SGD step per iteration — and asserts
/// each iteration's loss bits and merged gradients equal the matching
/// in-process `train_step`. A stage steps as soon as every stage holding
/// a copy of one of its blocks has posted its gradients: alone under
/// every placement but DualPipe's, whose mirror stages hold the same two
/// blocks and so exchange gradients first. Stages thus enter the next
/// iteration without a gang-wide barrier, as job processes do.
fn persistent_mesh_matches_train_steps(tag: &str, schedule: &Schedule, layers: usize) {
    const ITERS: usize = 3;
    const LR: f32 = 0.1;
    let seed = 31;
    let cfg = TransformerConfig {
        seq_len: 16,
        ..TransformerConfig::tiny(layers)
    };
    let meta = &schedule.meta;
    let (p, v, n) = (meta.stages, meta.virtual_chunks, meta.micro_batches);
    let batches: Vec<_> = (0..ITERS)
        .map(|k| batch_for_iter(&cfg, n, seed, k))
        .collect();
    let mut reference = PipelineRuntime::new(ModelParams::init(cfg, seed), p, v);
    let expected: Vec<RunStats> = batches
        .iter()
        .map(|b| {
            reference
                .train_step(schedule, b, WgradMode::DrainOnWait, LR)
                .expect("in-process step")
        })
        .collect();

    let blocks = |s: usize| (0..v).map(move |c| meta.block_of(s, c));
    let sharers: Vec<Vec<usize>> = (0..p)
        .map(|s| {
            (0..p)
                .filter(|&o| blocks(o).any(|b| blocks(s).any(|c| c == b)))
                .collect()
        })
        .collect();
    let posted: Mutex<Vec<Posted>> = Mutex::new(vec![vec![None; p]; ITERS]);
    let arrived = Condvar::new();
    let dir = uds_dir(tag, seed, p);
    let transport = SocketTransport::new(SocketMode::Uds(dir.clone()), p);
    std::thread::scope(|scope| {
        for stage in 0..p {
            let (transport, batches, sharers) = (&transport, &batches, &sharers[stage]);
            let (posted, arrived) = (&posted, &arrived);
            scope.spawn(move || {
                let mut rt = PipelineRuntime::new(ModelParams::init(cfg, seed), p, v);
                let mut link = StageLink::new(transport.endpoint(stage).expect("claim"));
                for (k, b) in batches.iter().enumerate() {
                    let out = rt
                        .run_stage(schedule, stage, b, WgradMode::DrainOnWait, None, &mut link)
                        .expect("stage run");
                    let grads = full_grads(&rt.model, out.grads);
                    let mut all = posted.lock().unwrap();
                    all[k][stage] = Some((out.loss_sum, grads));
                    arrived.notify_all();
                    // Bounded, so a peer that died fails the test rather
                    // than hanging it.
                    let (all, wait) = arrived
                        .wait_timeout_while(all, Duration::from_secs(60), |all| {
                            sharers.iter().any(|&o| all[k][o].is_none())
                        })
                        .unwrap();
                    assert!(!wait.timed_out(), "a block-sharing stage never posted {k}");
                    let mut step = ModelGrads::zeros(&rt.model);
                    for &o in sharers {
                        add_grads(&mut step, &all[k][o].as_ref().unwrap().1, 1.0);
                    }
                    drop(all);
                    Sgd { lr: LR }.step_model(&mut rt.model, &step);
                }
                link.close().expect("every stashed tensor was consumed");
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);

    for (k, (shares, want)) in posted
        .into_inner()
        .unwrap()
        .iter()
        .zip(&expected)
        .enumerate()
    {
        // Merge in stage order, as `run_iteration` does.
        let mut loss = 0.0f64;
        let mut grads = ModelGrads::zeros(&reference.model);
        for (share, g) in shares.iter().map(|s| s.as_ref().expect("posted")) {
            loss += share;
            add_grads(&mut grads, g, 1.0);
        }
        assert_eq!(
            loss.to_bits(),
            want.loss.to_bits(),
            "{tag}: loss of iteration {k}"
        );
        assert_eq!(
            grads.max_abs_diff(&want.grads),
            0.0,
            "{tag}: grads of iteration {k}"
        );
    }
}

#[test]
fn persistent_mesh_mepipe_matches_train_steps() {
    let schedule = Mepipe::new().generate(&Dims::new(2, 4).slices(4)).unwrap();
    persistent_mesh_matches_train_steps("mesh-mepipe", &schedule, 4);
}

#[test]
fn persistent_mesh_dualpipe_matches_train_steps() {
    let schedule = DualPipe::new()
        .generate(&Dims::new(4, 8).virtual_chunks(2))
        .unwrap();
    persistent_mesh_matches_train_steps("mesh-dualpipe", &schedule, 4);
}

#[test]
fn persistent_mesh_vpp_matches_train_steps() {
    let schedule = Vpp.generate(&Dims::new(4, 8).virtual_chunks(2)).unwrap();
    persistent_mesh_matches_train_steps("mesh-vpp", &schedule, 8);
}

/// ZBV's V turns on the last stage, which hands chain position p−1's
/// output to position p on itself: a local hand-off into its own stash,
/// since a socket mesh has no stream from a stage to itself.
#[test]
fn persistent_mesh_zbv_matches_train_steps() {
    let schedule = Zbv.generate(&Dims::new(4, 8).virtual_chunks(2)).unwrap();
    persistent_mesh_matches_train_steps("mesh-zbv", &schedule, 8);
}
