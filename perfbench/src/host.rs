//! The host block printed beside every result: how much compute this
//! machine really has, measured in the same run as the figures.

use std::hint::black_box;
use std::time::Instant;

use mepipe_tensor::{init, ops};

/// Measured host capacity.
pub struct Host {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Parallel speed-up of `nproc` threads of FMA work over one.
    pub effective_cores: f64,
    /// Single-core `ops::matmul` throughput at 256³, GFLOP/s.
    pub gemm_gflops: f64,
    /// Single-thread 16 MiB copy bandwidth, GB/s.
    pub memcpy_gbps: f64,
}

impl Host {
    /// Runs the probes (about a second).
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc,
            effective_cores: effective_cores(nproc),
            gemm_gflops: gemm_gflops(),
            memcpy_gbps: memcpy_gbps(),
        }
    }

    /// One-line rendering.
    pub fn line(&self) -> String {
        format!(
            "host: nproc {} effective_cores {:.2} gemm_1core {:.1} GFLOP/s memcpy {:.1} GB/s",
            self.nproc, self.effective_cores, self.gemm_gflops, self.memcpy_gbps
        )
    }
}

/// Best of `reps` timings of `f`, seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// A dependent chain of fused multiply-adds on eight lanes.
fn fma_chain(iters: u64) -> f64 {
    let mut acc = [1.0f64; 8];
    for _ in 0..iters {
        for a in &mut acc {
            *a = a.mul_add(0.999_999_9, 1e-9);
        }
    }
    acc.iter().sum()
}

fn effective_cores(nproc: usize) -> f64 {
    const ITERS: u64 = 4_000_000;
    let one = best_of(3, || {
        black_box(fma_chain(black_box(ITERS)));
    });
    let all = best_of(3, || {
        std::thread::scope(|s| {
            for _ in 0..nproc {
                s.spawn(|| black_box(fma_chain(black_box(ITERS))));
            }
        });
    });
    nproc as f64 * one / all
}

fn gemm_gflops() -> f64 {
    const N: usize = 256;
    let mut rng = init::rng(1);
    let a = init::uniform(N, N, 1.0, &mut rng);
    let b = init::uniform(N, N, 1.0, &mut rng);
    let t = best_of(7, || {
        black_box(ops::matmul(black_box(&a), black_box(&b)));
    });
    2.0 * (N * N * N) as f64 / t / 1e9
}

fn memcpy_gbps() -> f64 {
    const BYTES: usize = 16 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let t = best_of(7, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    BYTES as f64 / t / 1e9
}
