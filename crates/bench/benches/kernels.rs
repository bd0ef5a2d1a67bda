//! The kernel-engine benchmark: blocked/packed kernels vs the naive
//! scalar reference, plus worker-pool scaling, the GEMMs at the
//! pipeline's slice shapes, multi-head attention and the exp row kernels
//! (SiLU, cross-entropy) at the shapes the workloads run. Results are
//! printed and written to
//! `BENCH_kernels.json` at the repo root, so the measured speedups
//! quoted in README/DESIGN stay reproducible from one command
//! (`scripts/bench_kernels.sh`).
//!
//! The forward and input-gradient rows run against a [`PackedB`] built
//! once, the way the runtime uses its weights, so they time the
//! micro-kernel; packing is priced on its own (`pack_s` for the forward
//! form, `pack_t_s` for the transposed input-gradient form). The
//! weight-gradient form packs its one-shot `dC` on every call, so
//! `wgrad_s` includes that pack (its transposed left operand is read in
//! place); `wgrad_acc_s` is the same GEMM adding into a warm gradient
//! in its store, the form the runtime's W ops run.
//!
//! `--smoke` (what `scripts/check.sh` runs) makes one untimed call per
//! row and writes no file.

use std::time::Instant;

use criterion::black_box;
use mepipe_tensor::{
    init::{rng, uniform},
    ops::{
        cross_entropy_in, matmul_packed_in, matmul_wgrad_acc_in, matmul_wgrad_in,
        multi_head_attention_backward_in, multi_head_attention_in, naive, rmsnorm_in, silu,
        silu_backward, PackedB,
    },
    KernelPool, Tensor,
};

/// Seconds per iteration: the *minimum* over several short samples.
/// The min, not the mean, is the noise-robust estimator on a shared
/// machine — interference only ever adds time, so the fastest sample is
/// the closest to the op's true cost.
fn time<F: FnMut()>(mut f: F) -> f64 {
    let warm = Instant::now();
    f();
    let once = warm.elapsed().as_secs_f64();
    // ~60 ms per sample, 7 samples (bounded for very slow ops).
    let per_sample = if once <= 0.0 {
        16
    } else {
        ((0.06 / once) as usize).clamp(1, 50)
    };
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..per_sample {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / per_sample as f64);
    }
    best
}

fn gflops(m: usize, n: usize, k: usize, secs: f64) -> f64 {
    2.0 * (m * n * k) as f64 / secs / 1e9
}

/// Tokens per slice at perfbench's `train-inproc` shape (seq 128 over 4
/// slices).
const SLICE_TOKENS: usize = 32;

/// `(k, n)` weight shapes the slice rows run against: the square
/// projections, gate/up, down, and the fused QKV and gate|up widths.
const SLICE_WEIGHTS: [(usize, usize); 5] =
    [(256, 256), (256, 512), (512, 256), (256, 768), (256, 1024)];

/// Tokens per slice at perfbench's `job-uds` shape (seq 64 over 4
/// slices).
const JOB_SLICE_TOKENS: usize = 16;

/// `(k, n)` weight shapes of one `job-uds` layer: the square
/// projections, gate/up and down.
const JOB_WEIGHTS: [(usize, usize); 3] = [(64, 64), (64, 128), (128, 64)];

/// `(workload, t, prefix, heads, head dim)`: the last slice of each
/// workload's sample, attending over its whole prefix.
const ATTENTION_SHAPES: [(&str, usize, usize, usize, usize); 2] =
    [("job-uds", 16, 64, 4, 16), ("train-inproc", 32, 128, 4, 64)];

/// Vocabulary (cross-entropy) and row width (SiLU) of the row-kernel
/// rows, at each workload's slice length.
const ROW_COLS: usize = 256;

/// Columns `c0..c0 + n` of `x`, copied — one head's operand for the
/// naive reference, which takes one head at a time.
fn head_cols(x: &Tensor, c0: usize, n: usize) -> Tensor {
    let data = (0..x.rows())
        .flat_map(|r| x.row(r)[c0..c0 + n].iter().copied())
        .collect();
    Tensor::from_vec(x.rows(), n, data)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let time = |f: &mut dyn FnMut()| {
        if smoke {
            f();
            0.0
        } else {
            time(f)
        }
    };
    let say = |line: &str| {
        if !smoke {
            println!("{line}");
        }
    };
    let serial = KernelPool::serial();
    let mut json = String::from("{\n");

    // --- Matmul trio: naive vs kernel engine, single thread. ---
    say("== matmul: naive scalar vs blocked/packed kernel (1 worker) ==");
    json.push_str("  \"matmul\": [\n");
    let mut first = true;
    for n in [256usize, 512] {
        let mut r = rng(1);
        let a = uniform(n, n, 1.0, &mut r);
        let b = uniform(n, n, 1.0, &mut r);
        let dc = uniform(n, n, 1.0, &mut r);
        let (fwd, dgrad) = (PackedB::new(&b), PackedB::transposed(&b));
        let t_naive = time(&mut || {
            black_box(naive::matmul(&a, &b));
        });
        let t_kernel = time(&mut || {
            black_box(matmul_packed_in(&serial, &a, &fwd));
        });
        let t_dgrad = time(&mut || {
            black_box(matmul_packed_in(&serial, &dc, &dgrad));
        });
        let t_wgrad = time(&mut || {
            black_box(matmul_wgrad_in(&serial, &a, &dc));
        });
        let t_pack = time(&mut || {
            black_box(PackedB::new(&b));
        });
        let t_pack_t = time(&mut || {
            black_box(PackedB::transposed(&b));
        });
        let speedup = t_naive / t_kernel;
        say(&format!(
            "  {n}x{n}x{n}: naive {:.1} ms ({:.2} GF/s) | kernel {:.1} ms ({:.2} GF/s) | {speedup:.2}x | dgrad {:.1} ms | wgrad {:.1} ms | pack {:.3} ms | pack_t {:.3} ms",
            t_naive * 1e3,
            gflops(n, n, n, t_naive),
            t_kernel * 1e3,
            gflops(n, n, n, t_kernel),
            t_dgrad * 1e3,
            t_wgrad * 1e3,
            t_pack * 1e3,
            t_pack_t * 1e3,
        ));
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"shape\": {n}, \"naive_s\": {t_naive:.6}, \"kernel_s\": {t_kernel:.6}, \"dgrad_s\": {t_dgrad:.6}, \"wgrad_s\": {t_wgrad:.6}, \"pack_s\": {t_pack:.6}, \"pack_t_s\": {t_pack_t:.6}, \"speedup\": {speedup:.2}, \"kernel_gflops\": {:.2}}}",
            gflops(n, n, n, t_kernel)
        ));
    }
    // 1024 is kernel-only: the naive loop would dominate the bench's
    // wall-clock for a number the 512 point already establishes.
    {
        let n = 1024usize;
        let mut r = rng(1);
        let a = uniform(n, n, 1.0, &mut r);
        let fwd = PackedB::new(&uniform(n, n, 1.0, &mut r));
        let t_kernel = time(&mut || {
            black_box(matmul_packed_in(&serial, &a, &fwd));
        });
        say(&format!(
            "  {n}x{n}x{n}: kernel {:.1} ms ({:.2} GF/s) (naive skipped at this size)",
            t_kernel * 1e3,
            gflops(n, n, n, t_kernel)
        ));
        json.push_str(&format!(
            ",\n    {{\"shape\": {n}, \"kernel_s\": {t_kernel:.6}, \"kernel_gflops\": {:.2}}}\n  ],\n",
            gflops(n, n, n, t_kernel)
        ));
    }

    // --- Worker scaling at 512, fixed grain => bit-identical results.
    // 512³ sits below the engine's parallel break-even floor, so the
    // pool is ignored there: the row here documents that multi-worker
    // no longer *loses* to single-worker at sub-break-even shapes
    // (scaling pins to ~1.0x instead of the old 0.9x). ---
    say("== matmul 512 worker scaling ==");
    json.push_str("  \"worker_scaling_512\": [\n");
    let mut r = rng(2);
    let a = uniform(512, 512, 1.0, &mut r);
    let fwd = PackedB::new(&uniform(512, 512, 1.0, &mut r));
    let mut base = 0.0f64;
    for (i, workers) in [1usize, 2, 4].into_iter().enumerate() {
        let pool = KernelPool::new(workers);
        let t = time(&mut || {
            black_box(matmul_packed_in(&pool, &a, &fwd));
        });
        if workers == 1 {
            base = t;
        }
        say(&format!(
            "  workers={workers}: {:.1} ms ({:.2}x vs 1 worker)",
            t * 1e3,
            base / t
        ));
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{\"workers\": {workers}, \"kernel_s\": {t:.6}, \"scaling\": {:.2}}}",
            base / t
        ));
    }
    json.push_str("\n  ],\n");

    // --- The slice shapes: each workload's slice against each weight
    // shape of one of its layers — at `train-inproc`'s, plus the fused
    // QKV and gate|up widths that price fusing those forward GEMMs into
    // one; at `job-uds`', the weight-gradient form beside its forward
    // twin. ---
    for (key, m, weights) in [
        ("slice", SLICE_TOKENS, &SLICE_WEIGHTS[..]),
        ("slice_job", JOB_SLICE_TOKENS, &JOB_WEIGHTS[..]),
    ] {
        say(&format!(
            "== matmul at the slice shape: m={m} (1 worker) =="
        ));
        json.push_str(&format!("  \"{key}\": [\n"));
        for (i, &(k, n)) in weights.iter().enumerate() {
            let mut r = rng(5);
            let a = uniform(m, k, 1.0, &mut r);
            let w = uniform(k, n, 1.0, &mut r);
            let dc = uniform(m, n, 1.0, &mut r);
            let (fwd, dgrad) = (PackedB::new(&w), PackedB::transposed(&w));
            let t_kernel = time(&mut || {
                black_box(matmul_packed_in(&serial, &a, &fwd));
            });
            let t_dgrad = time(&mut || {
                black_box(matmul_packed_in(&serial, &dc, &dgrad));
            });
            let t_wgrad = time(&mut || {
                black_box(matmul_wgrad_in(&serial, &a, &dc));
            });
            let mut grad = Tensor::zeros(k, n);
            let t_wgrad_acc = time(&mut || {
                matmul_wgrad_acc_in(&serial, &a, &dc, &mut grad);
                black_box(&grad);
            });
            let t_pack = time(&mut || {
                black_box(PackedB::new(&w));
            });
            let t_pack_t = time(&mut || {
                black_box(PackedB::transposed(&w));
            });
            say(&format!(
                "  {m}x{k}x{n}: kernel {:.1} us ({:.2} GF/s) | dgrad {:.1} us | wgrad {:.1} us ({:.2} GF/s) | wgrad_acc {:.1} us | pack {:.1} us | pack_t {:.1} us",
                t_kernel * 1e6,
                gflops(m, n, k, t_kernel),
                t_dgrad * 1e6,
                t_wgrad * 1e6,
                gflops(m, n, k, t_wgrad),
                t_wgrad_acc * 1e6,
                t_pack * 1e6,
                t_pack_t * 1e6,
            ));
            if i > 0 {
                json.push_str(",\n");
            }
            json.push_str(&format!(
                "    {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"kernel_s\": {t_kernel:.7}, \"dgrad_s\": {t_dgrad:.7}, \"wgrad_s\": {t_wgrad:.7}, \"wgrad_acc_s\": {t_wgrad_acc:.7}, \"pack_s\": {t_pack:.7}, \"pack_t_s\": {t_pack_t:.7}, \"kernel_gflops\": {:.2}, \"wgrad_gflops\": {:.2}}}",
                gflops(m, n, k, t_kernel),
                gflops(m, n, k, t_wgrad)
            ));
        }
        json.push_str("\n  ],\n");
    }

    // --- Multi-head attention at the workloads' last slice: one call
    // over every head vs the naive reference (explicit transposes,
    // unfused softmax) looped over per-head copies made up front. ---
    say("== multi-head causal attention at the workload shapes (1 worker) ==");
    json.push_str("  \"attention\": [\n");
    for (i, (name, t_len, prefix, heads, d)) in ATTENTION_SHAPES.into_iter().enumerate() {
        let (h, offset) = (heads * d, prefix - t_len);
        let mut r = rng(3);
        let q = uniform(t_len, h, 1.0, &mut r);
        let k = uniform(prefix, h, 1.0, &mut r);
        let v = uniform(prefix, h, 1.0, &mut r);
        let dout = uniform(t_len, h, 1.0, &mut r);
        let split =
            |x: &Tensor| -> Vec<Tensor> { (0..heads).map(|j| head_cols(x, j * d, d)).collect() };
        let (qh, kh, vh, dh) = (split(&q), split(&k), split(&v), split(&dout));
        let t_fwd_naive = time(&mut || {
            for j in 0..heads {
                black_box(naive::causal_attention(&qh[j], &kh[j], &vh[j], offset));
            }
        });
        let t_fwd = time(&mut || {
            black_box(multi_head_attention_in(&serial, &q, &k, &v, offset, heads));
        });
        let (_, saved) = multi_head_attention_in(&serial, &q, &k, &v, offset, heads);
        let probs: Vec<Tensor> = (0..heads)
            .map(|j| naive::causal_attention(&qh[j], &kh[j], &vh[j], offset).1)
            .collect();
        let t_bwd_naive = time(&mut || {
            for j in 0..heads {
                black_box(naive::causal_attention_backward(
                    &dh[j], &qh[j], &kh[j], &vh[j], &probs[j],
                ));
            }
        });
        let t_bwd = time(&mut || {
            black_box(multi_head_attention_backward_in(
                &serial, &dout, &q, &k, &v, &saved,
            ));
        });
        say(&format!(
            "  {name} t={t_len} prefix={prefix} {heads}x{d}: fwd naive {:.1} us | multi-head {:.1} us ({:.2}x)   bwd naive {:.1} us | multi-head {:.1} us ({:.2}x)",
            t_fwd_naive * 1e6,
            t_fwd * 1e6,
            t_fwd_naive / t_fwd,
            t_bwd_naive * 1e6,
            t_bwd * 1e6,
            t_bwd_naive / t_bwd,
        ));
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{\"shape\": \"{name}\", \"t\": {t_len}, \"prefix\": {prefix}, \"heads\": {heads}, \"d\": {d}, \"fwd_naive_s\": {t_fwd_naive:.7}, \"fwd_s\": {t_fwd:.7}, \"bwd_naive_s\": {t_bwd_naive:.7}, \"bwd_s\": {t_bwd:.7}}}"
        ));
    }
    json.push_str("\n  ],\n");

    // --- The exp row kernels at each workload's slice length. ---
    say(&format!(
        "== SiLU and cross-entropy at [t, {ROW_COLS}] (1 worker) =="
    ));
    json.push_str("  \"row_kernels\": [\n");
    for (i, t_len) in [JOB_SLICE_TOKENS, SLICE_TOKENS].into_iter().enumerate() {
        let mut r = rng(6);
        let x = uniform(t_len, ROW_COLS, 4.0, &mut r);
        let dy = uniform(t_len, ROW_COLS, 1.0, &mut r);
        let targets: Vec<usize> = (0..t_len).map(|i| (i * 37) % ROW_COLS).collect();
        let t_silu = time(&mut || {
            black_box(silu(&x));
        });
        let t_silu_bwd = time(&mut || {
            black_box(silu_backward(&dy, &x));
        });
        let t_ce = time(&mut || {
            black_box(cross_entropy_in(&serial, &x, &targets));
        });
        say(&format!(
            "  [{t_len}, {ROW_COLS}]: silu {:.2} us | silu_backward {:.2} us | cross-entropy {:.2} us",
            t_silu * 1e6,
            t_silu_bwd * 1e6,
            t_ce * 1e6
        ));
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{\"t\": {t_len}, \"cols\": {ROW_COLS}, \"silu_s\": {t_silu:.7}, \"silu_backward_s\": {t_silu_bwd:.7}, \"cross_entropy_s\": {t_ce:.7}}}"
        ));
    }
    json.push_str("\n  ],\n");

    // --- RMSNorm and cross-entropy (pooled row kernels). ---
    let mut r = rng(4);
    let x = uniform(512, 1024, 1.0, &mut r);
    let w = Tensor::from_vec(1, 1024, vec![1.0; 1024]);
    let t_rms = time(&mut || {
        black_box(rmsnorm_in(&serial, &x, &w));
    });
    let logits = uniform(512, 1024, 1.0, &mut r);
    let targets: Vec<usize> = (0..512).map(|i| i % 1024).collect();
    let t_ce = time(&mut || {
        black_box(cross_entropy_in(&serial, &logits, &targets));
    });
    say(&format!(
        "== rmsnorm 512x1024: {:.2} ms | cross-entropy 512x1024: {:.2} ms ==",
        t_rms * 1e3,
        t_ce * 1e3
    ));
    json.push_str(&format!(
        "  \"rmsnorm_512x1024_s\": {t_rms:.6},\n  \"cross_entropy_512x1024_s\": {t_ce:.6}\n}}\n"
    ));

    if smoke {
        println!("smoke: every kernels row ran once");
        return;
    }
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(out, &json).expect("write BENCH_kernels.json");
    println!("wrote {out}");
}
