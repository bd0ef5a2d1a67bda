//! `train-inproc`: back-to-back `PipelineRuntime::train_step` with the
//! MEPipe (SVPP) schedule on the in-process transport, compute-bound
//! (hidden 256), plus its per-layer ladder: kernels, stage ops, bubbles,
//! transport counters, optimizer and the single-worker baseline.

use std::hint::black_box;
use std::time::Instant;

use mepipe_core::svpp::Mepipe;
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::generator::{Dims, ScheduleGenerator};
use mepipe_schedule::ir::Schedule;
use mepipe_tensor::{init, ops, ArenaStats, Tensor};
use mepipe_trace::{bubble, IterationTrace, SpanKind};
use mepipe_train::data::batch_for_iter;
use mepipe_train::optim::Sgd;
use mepipe_train::params::ModelParams;
use mepipe_train::{reference, PipelineRuntime, RunStats, WgradMode};

use crate::report::Report;
use crate::run_for;
use crate::stats::{median, tail};

const STAGES: usize = 2;
const SLICES: usize = 4;
const MICRO_BATCHES: usize = 4;
const LR: f32 = 0.02;
/// Steps per task (`task_s_p50`): 8 × 512 = 4096 tokens.
const TASK_STEPS: usize = 8;
/// Fixture builds per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn config() -> TransformerConfig {
    TransformerConfig {
        seq_len: 128,
        hidden: 256,
        ffn_hidden: 512,
        ..TransformerConfig::tiny(4)
    }
}

fn batch(seed: u64, step: usize) -> Vec<Vec<usize>> {
    batch_for_iter(&config(), MICRO_BATCHES, seed, step)
}

/// A warmed runtime: schedule, model, and the step-0 loss it produced.
struct Fixture {
    rt: PipelineRuntime,
    schedule: Schedule,
    seed: u64,
}

impl Fixture {
    fn step(&mut self, step: usize) -> Result<RunStats, String> {
        self.rt
            .train_step(
                &self.schedule,
                &batch(self.seed, step),
                WgradMode::DrainOnWait,
                LR,
            )
            .map_err(|e| format!("train step {step}: {e}"))
    }
}

/// Builds the fixture `reps` times (schedule, model, runtime and the
/// first step, which warms the arenas) and keeps the last. Returns it
/// with every build's seconds. Step 0 is the run's first operation; its
/// gates: finite loss, identical loss bits on every build, and within
/// 1e-3 of the single-worker reference on the same batch.
fn setup(seed: u64, reps: usize, rep: &mut Report) -> (Fixture, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut bits = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        let t = Instant::now();
        let schedule = Mepipe::new()
            .generate(&Dims::new(STAGES, MICRO_BATCHES).slices(SLICES))
            .expect("SVPP schedule for the train-inproc shape");
        let rt = PipelineRuntime::new(ModelParams::init(config(), seed), STAGES, 1);
        let mut fx = Fixture { rt, schedule, seed };
        let step0 = fx.step(0);
        times.push(t.elapsed().as_secs_f64());
        bits.push(step0.map(|s| s.loss.to_bits()));
        kept = Some(fx);
    }
    let reference =
        reference::batch_forward_backward(&ModelParams::init(config(), seed), &batch(seed, 0)).loss;
    let failure = match &bits[0] {
        Err(e) => Some(e.clone()),
        Ok(b) => {
            let loss = f64::from_bits(*b);
            if !loss.is_finite() {
                Some(format!("step 0 loss {loss} is not finite"))
            } else if (loss - reference).abs() > 1e-3 {
                Some(format!("step 0 loss {loss} vs reference {reference}"))
            } else if bits.iter().any(|x| x.as_ref().ok() != Some(b)) {
                Some("step 0 loss bits differ between builds of the same seed".to_string())
            } else {
                None
            }
        }
    };
    rep.op(failure);
    (kept.expect("at least one setup"), times)
}

fn step_failure(r: &Result<RunStats, String>) -> Option<String> {
    match r {
        Ok(s) if s.loss.is_finite() => None,
        Ok(s) => Some(format!("loss {} is not finite", s.loss)),
        Err(e) => Some(e.clone()),
    }
}

/// The end-to-end run: untraced steps for `seconds`.
pub fn run(seed: u64, seconds: f64, rep: &mut Report) {
    let (mut fx, setups) = setup(seed, SETUPS, rep);
    let tokens_per_step = (MICRO_BATCHES * config().seq_len) as f64;
    let mut step_s = Vec::new();
    let mut peak = 0usize;
    let start = Instant::now();
    let mut k = 1;
    while start.elapsed().as_secs_f64() < seconds {
        let batch = batch(seed, k);
        let t = Instant::now();
        let r = fx
            .rt
            .train_step(&fx.schedule, &batch, WgradMode::DrainOnWait, LR)
            .map_err(|e| format!("train step {k}: {e}"));
        step_s.push(t.elapsed().as_secs_f64());
        if let Ok(s) = &r {
            peak = peak.max(s.peak_bytes.iter().copied().max().unwrap_or(0));
        }
        rep.op(step_failure(&r));
        k += 1;
    }
    let step_ms: Vec<f64> = step_s.iter().map(|s| s * 1e3).collect();
    let tasks: Vec<f64> = step_s
        .chunks_exact(TASK_STEPS)
        .map(|c| c.iter().sum())
        .collect();
    let (tail_p, tail_ms) = tail(&step_ms);
    let total: f64 = step_s.iter().sum();
    rep.named(
        "train_tokens_per_s",
        tokens_per_step * step_s.len() as f64 / total,
        "1/s",
        step_s.len(),
    );
    rep.named("step_ms_p50", median(&step_ms), "ms", step_ms.len());
    rep.named("step_ms_tail", tail_ms, "ms", step_ms.len());
    rep.note(format!("step_ms_tail is p{tail_p}"));
    rep.named(
        "peak_stage_mib",
        peak as f64 / 1048576.0,
        "MiB",
        step_s.len(),
    );
    rep.e2e("op_ms_p50", median(&step_ms), "ms", step_ms.len());
    rep.e2e("task_s_p50", median(&tasks), "s", tasks.len());
    rep.e2e("setup_s", median(&setups), "s", setups.len());
}

/// Span self time per step, summed over stages, by kind group.
fn span_ms(trace: &IterationTrace, kinds: &[SpanKind]) -> f64 {
    trace
        .stages
        .iter()
        .flat_map(|st| &st.spans)
        .filter(|s| kinds.contains(&s.kind))
        .map(|s| s.duration_ns() as f64)
        .sum::<f64>()
        / 1e6
}

/// One traced step's ladder readings, milliseconds unless noted.
struct Traced {
    wall: f64,
    optimizer: f64,
    window: f64,
    forward: f64,
    backward: f64,
    wgrad: f64,
    busy: f64,
    idle: f64,
    drained: f64,
    warmup: f64,
    comm: f64,
    dependency: f64,
    tail: f64,
    arena: ArenaStats,
    tx_bytes: f64,
    tx_messages: f64,
    recv_wait: f64,
}

impl Traced {
    fn read(s: &RunStats, wall: f64, optimizer: f64) -> Traced {
        let trace = s.trace.as_ref().expect("traced step records spans");
        let b = bubble::attribute(trace);
        let buckets =
            |f: fn(&bubble::StageBubble) -> f64| b.stages.iter().map(f).sum::<f64>() * 1e3;
        let comm = s.comm.iter().map(|c| c.total()).collect::<Vec<_>>();
        Traced {
            wall,
            optimizer,
            window: b.makespan_s * 1e3,
            forward: span_ms(trace, &[SpanKind::Forward]),
            backward: span_ms(trace, &[SpanKind::Backward, SpanKind::BackwardInput]),
            wgrad: span_ms(trace, &[SpanKind::BackwardWeight, SpanKind::WgradDrain]),
            busy: s.busy_seconds.iter().sum::<f64>() * 1e3,
            idle: s.idle_seconds.iter().sum::<f64>() * 1e3,
            drained: s.drained_wgrads.iter().sum::<usize>() as f64,
            warmup: buckets(|x| x.idle.warmup),
            comm: buckets(|x| x.idle.comm_stall),
            dependency: buckets(|x| x.idle.dependency),
            tail: buckets(|x| x.idle.tail),
            arena: s
                .arena
                .iter()
                .fold(ArenaStats::default(), |a, x| a.merged(x)),
            tx_bytes: comm.iter().map(|l| l.tx_bytes as f64).sum(),
            tx_messages: comm.iter().map(|l| l.tx_messages as f64).sum(),
            recv_wait: s.comm.iter().map(|c| c.recv_wait_ns as f64).sum::<f64>() / 1e6,
        }
    }
}

/// Random `rows × cols` tensor.
fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    init::uniform(rows, cols, 1.0, &mut init::rng(seed))
}

/// `ops::matmul`/`_dgrad`/`_wgrad` at the slice shape (32 tokens ×
/// 256 × 512), GFLOP/s over all three.
fn gemm_gflops(budget: f64, seed: u64) -> (f64, usize) {
    let cfg = config();
    let t = cfg.seq_len / SLICES;
    let a = tensor(t, cfg.hidden, seed);
    let w = tensor(cfg.hidden, cfg.ffn_hidden, seed + 1);
    let dc = tensor(t, cfg.ffn_hidden, seed + 2);
    let flops = 3.0 * 2.0 * (t * cfg.hidden * cfg.ffn_hidden) as f64;
    let times = run_for(budget, 5, || {
        black_box(ops::matmul(black_box(&a), black_box(&w)));
        black_box(ops::matmul_dgrad(black_box(&dc), black_box(&w)));
        black_box(ops::matmul_wgrad(black_box(&a), black_box(&dc)));
    });
    (flops / median(&times) / 1e9, times.len())
}

/// `causal_attention` forward + backward for one head at the last
/// slice (32 queries over a 128-token KV prefix), microseconds.
fn attention_us(budget: f64, seed: u64) -> (f64, usize) {
    let cfg = config();
    let t = cfg.seq_len / SLICES;
    let d = cfg.head_dim();
    let offset = cfg.seq_len - t;
    let q = tensor(t, d, seed);
    let k = tensor(cfg.seq_len, d, seed + 1);
    let v = tensor(cfg.seq_len, d, seed + 2);
    let dout = tensor(t, d, seed + 3);
    let times = run_for(budget, 5, || {
        let (out, saved) = ops::causal_attention(black_box(&q), &k, &v, offset);
        black_box(out);
        black_box(ops::causal_attention_backward(&dout, &q, &k, &v, &saved));
    });
    (median(&times) * 1e6, times.len())
}

/// The per-layer ladder within `budget` seconds: kernel prices, the
/// single-worker reference, then alternating untraced and traced steps.
pub fn ladder(seed: u64, budget: f64, rep: &mut Report) {
    let (mut fx, _) = setup(seed, 2, rep);
    let start = Instant::now();
    let (gflops, gemm_n) = gemm_gflops(budget * 0.05, seed);
    rep.layer("tensor.gemm_gflops", gflops, "GFLOP/s", gemm_n);
    let (att, att_n) = attention_us(budget * 0.05, seed);
    rep.layer("tensor.attention_us", att, "us", att_n);

    let ref_batch = batch(seed, 0);
    let reference_ms: Vec<f64> = run_for(budget * 0.1, 1, || {
        black_box(reference::batch_forward_backward(&fx.rt.model, &ref_batch));
    })
    .into_iter()
    .map(|s| s * 1e3)
    .collect();

    let pairs_budget = budget - start.elapsed().as_secs_f64();
    let pairs_start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut k = 1;
    while untraced.len() < 3 || pairs_start.elapsed().as_secs_f64() < pairs_budget {
        let t = Instant::now();
        let r = fx.step(k);
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
        rep.op(step_failure(&r));
        k += 1;

        fx.rt = fx.rt.with_tracing(true);
        let batch = batch(seed, k);
        let t = Instant::now();
        let r = fx
            .rt
            .run_iteration(&fx.schedule, &batch, WgradMode::DrainOnWait, None)
            .map_err(|e| format!("traced step {k}: {e}"));
        let iter_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Ok(s) = &r {
            let t = Instant::now();
            Sgd { lr: LR }.step_model(&mut fx.rt.model, &s.grads);
            let opt_ms = t.elapsed().as_secs_f64() * 1e3;
            traced.push(Traced::read(s, iter_ms + opt_ms, opt_ms));
        }
        rep.op(step_failure(&r));
        fx.rt = fx.rt.with_tracing(false);
        k += 1;
    }

    let n = traced.len();
    let med = |f: fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    rep.layer(
        "tensor.arena_hit_rate",
        med(|t| t.arena.hit_rate()),
        "ratio",
        n,
    );
    rep.layer(
        "tensor.arena_hits",
        med(|t| t.arena.hits as f64),
        "count",
        n,
    );
    rep.layer(
        "tensor.arena_misses",
        med(|t| t.arena.misses as f64),
        "count",
        n,
    );
    rep.layer("train.forward_ms", med(|t| t.forward), "ms", n);
    rep.layer("train.backward_ms", med(|t| t.backward), "ms", n);
    rep.layer("train.wgrad_ms", med(|t| t.wgrad), "ms", n);
    rep.layer("train.busy_ms", med(|t| t.busy), "ms", n);
    rep.layer("train.idle_ms", med(|t| t.idle), "ms", n);
    rep.layer(
        "train.idle_share",
        med(|t| t.idle / (t.busy + t.idle)),
        "ratio",
        n,
    );
    rep.layer("train.drained_wgrads", med(|t| t.drained), "count", n);
    rep.layer("train.bubble_warmup_ms", med(|t| t.warmup), "ms", n);
    rep.layer("train.bubble_comm_ms", med(|t| t.comm), "ms", n);
    rep.layer("train.bubble_dependency_ms", med(|t| t.dependency), "ms", n);
    rep.layer("train.bubble_tail_ms", med(|t| t.tail), "ms", n);
    let optimizer = med(|t| t.optimizer);
    let window = med(|t| t.window);
    let wall = med(|t| t.wall);
    let unattributed = med(|t| t.wall - t.window - t.optimizer);
    rep.layer("train.step_ms", wall, "ms", n);
    rep.layer("train.window_ms", window, "ms", n);
    rep.layer("train.optimizer_ms", optimizer, "ms", n);
    rep.layer("train.unattributed_ms", unattributed, "ms", n);
    let reference = median(&reference_ms) + optimizer;
    let plain = median(&untraced);
    rep.layer(
        "train.reference_step_ms",
        reference,
        "ms",
        reference_ms.len(),
    );
    rep.layer(
        "train.pipeline_speedup",
        reference / plain,
        "x",
        untraced.len(),
    );
    rep.layer("comm.inproc.tx_bytes", med(|t| t.tx_bytes), "bytes", n);
    rep.layer(
        "comm.inproc.tx_messages",
        med(|t| t.tx_messages),
        "count",
        n,
    );
    rep.layer("comm.inproc.recv_wait_ms", med(|t| t.recv_wait), "ms", n);
    rep.layer("trace.overhead", wall / plain - 1.0, "ratio", n);
    rep.note(format!(
        "train ladder: step {wall:.2} ms = window {window:.2} + optimizer {optimizer:.2} + unattributed {unattributed:.2} (medians); \
         per stage, window = busy + warmup + comm + dependency + tail bubbles"
    ));
}
