//! Matrix multiplication and its two gradient halves, on the blocked,
//! panel-packed kernel engine.
//!
//! For `C = A · B` with `A: [m,k]` (activations) and `B: [k,n]` (weights):
//!
//! * the *input gradient* `dA = dC · Bᵀ` is on the pipeline's critical
//!   path (it feeds the previous layer / previous stage);
//! * the *weight gradient* `dB = Aᵀ · dC` has no consumers until the
//!   optimizer step and can float — this is the GEMM MEPipe queues and
//!   drains opportunistically (Section 5).
//!
//! All three share one engine (`gemm`): the right-hand operand is
//! packed once into `NR`-wide column strips, each `MC`-row block of the
//! output packs its left-hand panel into `MR`-tall micro-panels, and a
//! register-tiled `MR×NR` micro-kernel accumulates along the inner
//! dimension with no per-element branches — written so the
//! autovectorizer emits SIMD for the `NR`-wide inner loop and keeps the
//! accumulator tile in registers. The transposed operands of the two
//! gradient halves are absorbed by the packing routines (`View`), so
//! no transposed temporary is ever materialised. Row blocks are
//! distributed over a [`KernelPool`] — unless the GEMM is below its
//! parallel break-even size (`PAR_FLOP_FLOOR`), where the spawn/join
//! overhead loses and the blocks run inline instead. Because every
//! output element is written by exactly one block and the accumulation
//! order along the inner dimension is fixed, results are bit-identical
//! across worker counts (and across the inline fallback).
//!
//! The original scalar triple loops survive in [`crate::ops::naive`] as
//! the reference the parity proptests and the `kernels` bench run
//! against.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::arena;
use crate::hash::FastBuild;
use crate::pool::{row_blocks, KernelPool};
use crate::tensor::Tensor;

/// Rows of one register tile (micro-panel height of the packed A).
const MR: usize = 6;
/// Columns of one register tile (strip width of the packed B); a
/// multiple of the widest SSE/AVX f32 lane count the autovectorizer
/// targets, and wide enough that the `MR × (NR/lanes)` accumulator
/// vectors form more independent FMA chains than the FMA unit's
/// latency×throughput product — with too few chains the micro-kernel is
/// latency-bound, not throughput-bound.
const NR: usize = 32;
/// Rows per cache block of C — also the parallel grain handed to the
/// pool, fixed so chunking (and thus accumulation grouping) never
/// depends on the worker count.
const MC: usize = 48;
/// Inner-dimension block: one `MC×KC` A panel (~48 KiB) plus one `KC×NR`
/// B strip (~8 KiB) stay cache-resident under the accumulator tile.
const KC: usize = 256;
/// FLOP count (`2·m·n·k`) below which [`gemm`] ignores the pool and runs
/// the row blocks inline. Fanning out pays a scoped-thread spawn plus a
/// join on every call (tens of microseconds) and splits a working set
/// that fits one core's cache across several; below this much
/// arithmetic those costs outweigh the parallel win — on the bench grid
/// multi-worker *lost* to single-worker up through 512³
/// (`2·512³ ≈ 2.7e8` FLOPs). Chunking is untouched (the grain stays
/// [`MC`]) and a 1-worker `for_each` visits blocks in index order, so
/// the inline path is bit-identical to the fanned-out one.
#[cfg(not(test))]
const PAR_FLOP_FLOOR: usize = 1 << 30;
/// Unit tests shrink the floor so test-sized shapes still exercise the
/// parallel path.
#[cfg(test)]
const PAR_FLOP_FLOOR: usize = 1 << 16;

/// A logical `[rows, cols]` operand over row-major storage, optionally
/// transposed. Packing reads through this view, which is how the dgrad
/// (`· Bᵀ`) and wgrad (`Aᵀ ·`) forms reuse the one engine without
/// materialising a transpose.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    stride: usize,
    trans: bool,
}

impl<'a> View<'a> {
    fn normal(t: &'a Tensor) -> Self {
        View {
            data: t.data(),
            stride: t.cols(),
            trans: false,
        }
    }

    fn transposed(t: &'a Tensor) -> Self {
        View {
            data: t.data(),
            stride: t.cols(),
            trans: true,
        }
    }

    #[inline(always)]
    fn get(&self, r: usize, c: usize) -> f32 {
        if self.trans {
            self.data[c * self.stride + r]
        } else {
            self.data[r * self.stride + c]
        }
    }
}

/// Packs the whole right-hand operand into `NR`-wide strips: strip `s`
/// holds, for each inner index `p`, the `NR` values `b[p, s*NR..]`
/// contiguously (zero-padded past `n`), so the micro-kernel streams it
/// linearly. Returns the backing buffer and the element offset of the
/// first strip: the strips are placed on a 64-byte boundary so every
/// vector load in the micro-kernel stays within one cache line —
/// `Vec<f32>` alone only guarantees 4-byte alignment, and a misaligned
/// base makes every B load a line-splitting access. The buffer comes
/// from the installed tensor arena when there is one (zeroed, so the
/// padding past `n` is zero either way); [`gemm`] returns it there.
fn pack_b(b: View, k: usize, n: usize) -> (Vec<f32>, usize) {
    let strips = n.div_ceil(NR);
    let (mut buf, off) = arena::acquire_scratch(strips * k * NR);
    for s in 0..strips {
        let col0 = s * NR;
        let cols = NR.min(n - col0);
        let base = off + s * k * NR;
        if b.trans {
            for p in 0..k {
                let dst = &mut buf[base + p * NR..][..cols];
                for (jj, d) in dst.iter_mut().enumerate() {
                    *d = b.data[(col0 + jj) * b.stride + p];
                }
            }
        } else {
            for p in 0..k {
                let src = &b.data[p * b.stride + col0..][..cols];
                buf[base + p * NR..][..cols].copy_from_slice(src);
            }
        }
    }
    (buf, off)
}

/// Packs rows `i0..i0+mc`, inner indices `pk..pk+kc` of the left-hand
/// operand into `MR`-tall micro-panels: panel `q` holds, for each `p`,
/// the `MR` values `a[i0+q*MR.., pk+p]` contiguously (zero-padded past
/// `mc`).
fn pack_a(a: View, i0: usize, mc: usize, pk: usize, kc: usize, buf: &mut Vec<f32>) {
    let panels = mc.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kc * MR, 0.0);
    for q in 0..panels {
        let r0 = i0 + q * MR;
        let rows = MR.min(i0 + mc - r0);
        let base = q * kc * MR;
        for p in 0..kc {
            let dst = &mut buf[base + p * MR..][..rows];
            for (ii, d) in dst.iter_mut().enumerate() {
                *d = a.get(r0 + ii, pk + p);
            }
        }
    }
}

/// Fused multiply-add when the target has an FMA unit (one rounding,
/// `vfmadd` under AVX2/AVX-512), plain multiply-add otherwise. rustc
/// never contracts `a * b + c` on its own, so the fusion — which roughly
/// doubles micro-kernel throughput — has to be asked for explicitly.
/// Either form is deterministic for a given build.
#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        c + a * b
    }
}

/// The register-tiled inner loop: returns `init + Σ_p a_panel ⊗ b_strip`
/// over `kc` inner indices. Constant trip counts let the `NR`-wide loop
/// vectorize, and there are no data-dependent branches. The accumulator
/// is taken and returned *by value*: mutating it through a `&mut`
/// reference makes LLVM keep the in-memory copy coherent — one stack
/// store per FMA — where a local array lives purely in registers.
#[inline]
fn micro_kernel(ap: &[f32], bp: &[f32], init: [[f32; NR]; MR]) -> [[f32; NR]; MR] {
    let mut acc = init;
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (accr, &av) in acc.iter_mut().zip(a) {
            for (c, &bv) in accr.iter_mut().zip(b) {
                *c = fmadd(av, bv, *c);
            }
        }
    }
    acc
}

/// [`micro_kernel`] reading the left operand straight from `MR` source
/// rows instead of a packed panel. A row-major (non-transposed) left
/// operand already has each tile row contiguous over the inner indices,
/// so packing it would only copy data the broadcast loads can read in
/// place — skipping the copy removes the whole pack-A pass from the
/// `matmul`/`dgrad` hot path. Accumulation order is identical to the
/// packed kernel, so both paths produce bit-identical results. Each
/// `a_rows[r]` must hold exactly `bp.len() / NR` values.
#[inline]
fn micro_kernel_rows(a_rows: &[&[f32]; MR], bp: &[f32], init: [[f32; NR]; MR]) -> [[f32; NR]; MR] {
    let mut acc = init;
    for (p, b) in bp.chunks_exact(NR).enumerate() {
        for (accr, ar) in acc.iter_mut().zip(a_rows) {
            let av = ar[p];
            for (c, &bv) in accr.iter_mut().zip(b) {
                *c = fmadd(av, bv, *c);
            }
        }
    }
    acc
}

/// One `MC`-row block of the output, sweeping the shared packed B and
/// accumulating through the micro-kernel. A transposed left operand is
/// packed into `MR`-tall micro-panels per `KC` block; a row-major one is
/// read in place by [`micro_kernel_rows`] (rows past the edge borrow a
/// zero row, matching the packed path's zero padding exactly).
fn gemm_row_block(i0: usize, c_rows: &mut [f32], n: usize, k: usize, a: View, b_pack: &[f32]) {
    let mc = c_rows.len() / n;
    let panels = mc.div_ceil(MR);
    // Upper bound over every KC block, so the one scratch buffer serves
    // the whole sweep (pack_a only ever resizes downward within it).
    let a_scratch = if a.trans { panels * KC.min(k) * MR } else { 0 };
    let mut a_buf = if a.trans {
        arena::acquire_scratch(a_scratch).0
    } else {
        Vec::new()
    };
    let zero_row = [0.0f32; KC];
    let mut pk = 0;
    while pk < k {
        let kc = KC.min(k - pk);
        if a.trans {
            pack_a(a, i0, mc, pk, kc, &mut a_buf);
        }
        for (s, j0) in (0..n).step_by(NR).enumerate() {
            let cols = NR.min(n - j0);
            let bs = &b_pack[s * k * NR + pk * NR..][..kc * NR];
            for q in 0..panels {
                let r0 = q * MR;
                let rows = MR.min(mc - r0);
                let full = rows == MR && cols == NR;
                let mut acc = [[0.0f32; NR]; MR];
                // On the first KC pass C is still all zeros — skip the read.
                if pk > 0 {
                    if full {
                        // Constant-length copies let the accumulator move
                        // between registers and C without a stack bounce.
                        for (i, accr) in acc.iter_mut().enumerate() {
                            accr.copy_from_slice(&c_rows[(r0 + i) * n + j0..][..NR]);
                        }
                    } else {
                        for (i, accr) in acc.iter_mut().enumerate().take(rows) {
                            accr[..cols].copy_from_slice(&c_rows[(r0 + i) * n + j0..][..cols]);
                        }
                    }
                }
                let acc = if a.trans {
                    let ap = &a_buf[q * kc * MR..][..kc * MR];
                    micro_kernel(ap, bs, acc)
                } else {
                    let mut a_rows: [&[f32]; MR] = [&zero_row[..kc]; MR];
                    for (ii, ar) in a_rows.iter_mut().enumerate().take(rows) {
                        *ar = &a.data[(i0 + r0 + ii) * a.stride + pk..][..kc];
                    }
                    micro_kernel_rows(&a_rows, bs, acc)
                };
                if full {
                    for (i, accr) in acc.iter().enumerate() {
                        c_rows[(r0 + i) * n + j0..][..NR].copy_from_slice(accr);
                    }
                } else {
                    for (i, accr) in acc.iter().enumerate().take(rows) {
                        c_rows[(r0 + i) * n + j0..][..cols].copy_from_slice(&accr[..cols]);
                    }
                }
            }
        }
        pk += kc;
    }
    if a.trans {
        arena::release_scratch(a_scratch, a_buf);
    }
}

/// Retained packed-B images, keyed by the B tensor's snapshot stamp
/// (see [`Tensor::stamp`]) plus the transpose flag. A weight matrix is
/// the B operand of one forward and one input-gradient GEMM *per slice
/// per micro-batch*, so under slice-level scheduling the same bytes
/// would otherwise be repacked dozens of times per iteration — and the
/// dgrad form packs through a column-strided transposed view, the
/// slowest access pattern in the engine. Stamps are never reused and
/// are re-issued on any mutable access, so a hit is guaranteed to
/// serve bytes identical to what `pack_b` would produce; results are
/// bitwise unchanged. The cache is thread-local (stage threads each
/// pack once) and size-capped: exceeding [`PACK_CACHE_CAP`] clears it,
/// bounding memory at ~8 MiB per thread even when one-shot operands
/// churn through.
struct PackCache {
    map: HashMap<(u64, bool), (Vec<f32>, usize), FastBuild>,
    elems: usize,
}

/// Total retained f32 elements per thread before the cache is cleared.
const PACK_CACHE_CAP: usize = 2 << 20;

thread_local! {
    static PACK_CACHE: RefCell<PackCache> = RefCell::new(PackCache {
        map: HashMap::default(),
        elems: 0,
    });
}

/// Shared engine: logical `C[m,n] = A[m,k] · B[k,n]` with either operand
/// possibly a transposed view. Row blocks of C fan out over the pool.
/// `b_stamp` opts the packed B image into the thread-local [`PackCache`]
/// — pass it when B is long-lived and reused (weights), `None` when it
/// is a one-shot operand (the wgrad form's dC).
fn gemm(
    pool: &KernelPool,
    m: usize,
    n: usize,
    k: usize,
    a: View,
    b: View,
    b_stamp: Option<u64>,
) -> Tensor {
    if m == 0 || n == 0 || k == 0 {
        return Tensor::zeros(m, n);
    }
    // Every output element is stored on the first KC pass (the kernel
    // skips the C read when `pk == 0`), so the zero-fill would be dead.
    let mut out = Tensor::uninit(m, n);
    let pool = if 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k) < PAR_FLOP_FLOOR {
        KernelPool::shared_serial()
    } else {
        pool
    };
    let run = |out: &mut Tensor, b_pack: &[f32]| {
        let mut blocks = row_blocks(out.data_mut(), n, MC);
        pool.for_each(&mut blocks, |_, (i0, c_rows)| {
            gemm_row_block(*i0, c_rows, n, k, a, b_pack);
        });
    };
    match b_stamp {
        Some(stamp) => PACK_CACHE.with(|cell| {
            let mut cache = cell.borrow_mut();
            let key = (stamp, b.trans);
            if !cache.map.contains_key(&key) {
                let (buf, off) = pack_b(b, k, n);
                if cache.elems + buf.len() > PACK_CACHE_CAP {
                    cache.map.clear();
                    cache.elems = 0;
                }
                cache.elems += buf.len();
                cache.map.insert(key, (buf, off));
            }
            let (buf, off) = &cache.map[&key];
            run(&mut out, &buf[*off..]);
        }),
        None => {
            let (b_buf, b_off) = pack_b(b, k, n);
            run(&mut out, &b_buf[b_off..]);
            arena::release_scratch(n.div_ceil(NR) * k * NR, b_buf);
        }
    }
    out
}

/// `C = A · B`.
///
/// # Panics
///
/// Panics if inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_in(KernelPool::shared_serial(), a, b)
}

/// `C = A · B` on a worker pool.
///
/// # Panics
///
/// Panics if inner dimensions disagree.
pub fn matmul_in(pool: &KernelPool, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    gemm(
        pool,
        a.rows(),
        b.cols(),
        a.cols(),
        View::normal(a),
        View::normal(b),
        Some(b.stamp()),
    )
}

/// Input gradient of a matmul: `dA = dC · Bᵀ`.
///
/// # Panics
///
/// Panics if column counts disagree.
pub fn matmul_dgrad(dc: &Tensor, b: &Tensor) -> Tensor {
    matmul_dgrad_in(KernelPool::shared_serial(), dc, b)
}

/// Input gradient of a matmul on a worker pool: `dA = dC · Bᵀ`, with the
/// transpose absorbed by packing (no `Bᵀ` temporary).
///
/// # Panics
///
/// Panics if column counts disagree.
pub fn matmul_dgrad_in(pool: &KernelPool, dc: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(dc.cols(), b.cols(), "dgrad dimension mismatch");
    gemm(
        pool,
        dc.rows(),
        b.rows(),
        dc.cols(),
        View::normal(dc),
        View::transposed(b),
        Some(b.stamp()),
    )
}

/// Weight gradient of a matmul: `dB = Aᵀ · dC`.
///
/// # Panics
///
/// Panics if row counts disagree.
pub fn matmul_wgrad(a: &Tensor, dc: &Tensor) -> Tensor {
    matmul_wgrad_in(KernelPool::shared_serial(), a, dc)
}

/// Weight gradient of a matmul on a worker pool: `dB = Aᵀ · dC`, with the
/// transpose absorbed by packing (no `Aᵀ` temporary).
///
/// # Panics
///
/// Panics if row counts disagree.
pub fn matmul_wgrad_in(pool: &KernelPool, a: &Tensor, dc: &Tensor) -> Tensor {
    assert_eq!(a.rows(), dc.rows(), "wgrad dimension mismatch");
    gemm(
        pool,
        a.cols(),
        dc.cols(),
        a.rows(),
        View::transposed(a),
        View::normal(dc),
        None,
    )
}

/// [`matmul_in`] with the pack cache bypassed: for `B` operands that are
/// activations (fresh stamp every call), where caching the pack would
/// only grow the cache until its overflow clear evicts the weight packs
/// that *are* reused.
pub(crate) fn matmul_uncached_in(pool: &KernelPool, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    gemm(
        pool,
        a.rows(),
        b.cols(),
        a.cols(),
        View::normal(a),
        View::normal(b),
        None,
    )
}

/// [`matmul_dgrad_in`] (`dC · Bᵀ`) with the pack cache bypassed — same
/// rationale as [`matmul_uncached_in`].
pub(crate) fn matmul_dgrad_uncached_in(pool: &KernelPool, dc: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(dc.cols(), b.cols(), "dgrad dimension mismatch");
    gemm(
        pool,
        dc.rows(),
        b.rows(),
        dc.cols(),
        View::normal(dc),
        View::transposed(b),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng, uniform};
    use crate::ops::naive;

    fn finite_diff_check(
        f: &dyn Fn(&Tensor) -> f32,
        x: &Tensor,
        analytic: &Tensor,
        eps: f32,
        tol: f32,
    ) {
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.at(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.at(r, c) - eps);
                let num = (f(&xp) - f(&xm)) / (2.0 * eps);
                let ana = analytic.at(r, c);
                assert!(
                    (num - ana).abs() < tol,
                    "grad mismatch at ({r},{c}): numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn small_matmul_is_exact() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn kernel_matches_naive_at_awkward_shapes() {
        // Shapes straddling every blocking boundary: below MR/NR, exact
        // multiples, one past MC and KC.
        let shapes = [
            (1, 1, 1),
            (5, 7, 3),
            (MR, NR, 4),
            (MR + 1, NR + 1, KC + 1),
            (MC, 2 * NR, KC),
            (MC + 1, NR - 1, 2 * KC + 3),
            (2 * MC + 5, 3 * NR + 2, 17),
        ];
        for (m, k, n) in shapes {
            let mut r = rng((m * 31 + k * 7 + n) as u64);
            let a = uniform(m, k, 1.0, &mut r);
            let b = uniform(k, n, 1.0, &mut r);
            let dc = uniform(m, n, 1.0, &mut r);
            assert!(
                matmul(&a, &b).max_abs_diff(&naive::matmul(&a, &b)) < 1e-5,
                "fwd mismatch at {m}x{k}x{n}"
            );
            assert!(
                matmul_dgrad(&dc, &b).max_abs_diff(&naive::matmul_dgrad(&dc, &b)) < 1e-5,
                "dgrad mismatch at {m}x{k}x{n}"
            );
            assert!(
                matmul_wgrad(&a, &dc).max_abs_diff(&naive::matmul_wgrad(&a, &dc)) < 1e-5,
                "wgrad mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn multi_worker_is_bit_identical_to_serial() {
        let mut r = rng(99);
        // Big enough to clear the (test-shrunk) break-even floor, so the
        // parallel path really runs.
        let a = uniform(3 * MC + 7, 100, 1.0, &mut r);
        let b = uniform(100, 37, 1.0, &mut r);
        let serial = matmul(&a, &b);
        for workers in [2, 3, 4] {
            let pool = KernelPool::new(workers);
            let par = matmul_in(&pool, &a, &b);
            assert_eq!(pool.parallel_dispatches(), 1, "expected a fan-out");
            assert_eq!(
                serial.data(),
                par.data(),
                "worker count {workers} changed bits"
            );
        }
    }

    #[test]
    fn below_break_even_matmul_ignores_the_pool() {
        // 100 rows make three row blocks, but only ~3e3 FLOPs — far
        // below the floor, so the pool must not spawn workers and the
        // result must still be right.
        let mut r = rng(7);
        let a = uniform(100, 4, 1.0, &mut r);
        let b = uniform(4, 4, 1.0, &mut r);
        let pool = KernelPool::new(4);
        let c = matmul_in(&pool, &a, &b);
        assert_eq!(pool.parallel_dispatches(), 0, "tiny GEMM fanned out");
        assert!(c.max_abs_diff(&naive::matmul(&a, &b)) < 1e-5);
    }

    #[test]
    fn dgrad_matches_finite_differences() {
        let mut r = rng(3);
        let a = uniform(3, 4, 1.0, &mut r);
        let b = uniform(4, 2, 1.0, &mut r);
        // Scalar objective: sum of C.
        let loss = |a: &Tensor| matmul(a, &b).data().iter().sum::<f32>();
        let dc = Tensor::from_vec(3, 2, vec![1.0; 6]);
        let da = matmul_dgrad(&dc, &b);
        finite_diff_check(&loss, &a, &da, 1e-3, 1e-2);
    }

    #[test]
    fn wgrad_matches_finite_differences() {
        let mut r = rng(4);
        let a = uniform(3, 4, 1.0, &mut r);
        let b = uniform(4, 2, 1.0, &mut r);
        let loss = |b: &Tensor| matmul(&a, b).data().iter().sum::<f32>();
        let dc = Tensor::from_vec(3, 2, vec![1.0; 6]);
        let db = matmul_wgrad(&a, &dc);
        finite_diff_check(&loss, &b, &db, 1e-3, 1e-2);
    }

    #[test]
    fn wgrad_sums_over_row_slices() {
        // The slice-equivalence property MEPipe relies on: the weight
        // gradient over a whole batch equals the sum over token slices.
        let mut r = rng(5);
        let a = uniform(8, 4, 1.0, &mut r);
        let dc = uniform(8, 3, 1.0, &mut r);
        let whole = matmul_wgrad(&a, &dc);
        let mut parts = matmul_wgrad(&a.slice_rows(0, 3), &dc.slice_rows(0, 3));
        parts.add_assign(&matmul_wgrad(&a.slice_rows(3, 5), &dc.slice_rows(3, 5)));
        assert!(whole.max_abs_diff(&parts) < 1e-5);
    }

    #[test]
    fn empty_inner_dimension_gives_zeros() {
        let c = matmul(&Tensor::zeros(3, 0), &Tensor::zeros(0, 4));
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 4);
        assert!(c.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn dimension_mismatch_panics() {
        matmul(&Tensor::zeros(2, 3), &Tensor::zeros(2, 3));
    }
}
