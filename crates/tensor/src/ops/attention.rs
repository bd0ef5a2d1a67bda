//! Multi-head causal attention over a query *slice* and its key/value
//! prefix — the dataflow primitive of sequence pipeline parallelism.
//!
//! Under TeraPipe/MEPipe slicing, the forward of slice `i` consumes the
//! keys and values of every preceding slice (Section 4.1, Figure 3); the
//! backward of slice `i` produces gradient *contributions* to those
//! prefix keys/values, which the caller accumulates in reverse slice
//! order. This module implements exactly that contract:
//!
//! * forward: `q: [t, h]` for the slice, `k, v: [c, h]` for the whole
//!   prefix `c = offset + t`, `h = heads · d`; causal masking inside the
//!   slice;
//! * backward: returns `dq: [t, h]` plus `dk, dv: [c, h]` over the whole
//!   prefix.
//!
//! One call handles every head. Head `j` owns columns `j·d..(j+1)·d` of
//! `q`, `k`, `v` and of the outputs, and each of its contractions —
//! scores `Q·Kᵀ`, the value contraction `P·V`, and the gradient products
//! `dOut·Vᵀ`, `dS·K`, `dSᵀ·Q`, `Pᵀ·dOut` — runs on the packed GEMM
//! engine reading those columns in place and writing its output columns
//! in place, so no per-head copy of an operand or result is made, and
//! transposes are absorbed by the engine's views. The engine computes
//! full-width score rows, including the non-causal upper triangle; the
//! softmax / Jacobian row sweeps then mask that tail to zero. For the
//! short, fat shapes attention produces (`t ≤ 32`, `c ≤ seq_len`), the
//! blocked GEMM runs several times faster than per-row dot/axpy loops
//! even counting the ~50 % masked waste, which is why the
//! mask-after-GEMM layout wins.
//!
//! Each head's result is computed exactly as a one-head call on that
//! head's columns would compute it, so [`causal_attention`] and friends
//! are the `heads = 1` case of the same path, bit for bit.

use std::array;

use crate::{
    ops::{
        matmul::{gemm_once_into, window, View},
        vecops::{dot, fast_exp, fold_rows, max_step},
    },
    pool::{row_blocks, KernelPool},
    tensor::Tensor,
};

/// Score rows per parallel work item of the row sweeps — also how many
/// rows' max and sum chains the forward softmax runs interleaved. Fixed
/// (never derived from the worker count) so results are bit-identical
/// across pools.
const ROW_GRAIN: usize = 8;

/// Forward-pass state kept for the backward pass.
#[derive(Debug, Clone)]
pub struct AttentionSaved {
    /// Post-softmax attention probabilities, `[heads · t, c]`: head `j`'s
    /// `[t, c]` block is rows `j·t..(j+1)·t`.
    pub probs: Tensor,
    /// Token offset of the query slice within the sample.
    pub offset: usize,
}

/// Causal attention forward for one head (single-threaded).
///
/// # Panics
///
/// Panics unless `k`/`v` cover exactly `offset + q.rows()` positions and
/// all head dimensions agree.
pub fn causal_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    offset: usize,
) -> (Tensor, AttentionSaved) {
    multi_head_attention_in(KernelPool::shared_serial(), q, k, v, offset, 1)
}

/// Causal attention forward for one head on a worker pool — the
/// `heads = 1` case of [`multi_head_attention_in`].
///
/// # Panics
///
/// Panics unless `k`/`v` cover exactly `offset + q.rows()` positions and
/// all head dimensions agree.
pub fn causal_attention_in(
    pool: &KernelPool,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    offset: usize,
) -> (Tensor, AttentionSaved) {
    multi_head_attention_in(pool, q, k, v, offset, 1)
}

/// Causal attention forward for every head of a slice on a worker pool:
/// per head, scores → stable softmax → `P·V`, each head reading and
/// writing its own columns. Returns the `[t, h]` output (heads side by
/// side, as the output projection consumes them) and the probabilities.
///
/// # Panics
///
/// Panics unless `heads` divides `q`'s width, `k`/`v` cover exactly
/// `offset + q.rows()` positions, and all widths agree.
pub fn multi_head_attention_in(
    pool: &KernelPool,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    offset: usize,
    heads: usize,
) -> (Tensor, AttentionSaved) {
    let (t, h) = (q.rows(), q.cols());
    let c = offset + t;
    assert!(
        heads > 0 && h % heads == 0,
        "{heads} heads do not divide width {h}"
    );
    assert_eq!(k.rows(), c, "key prefix must cover offset + slice");
    assert_eq!(v.rows(), c, "value prefix must cover offset + slice");
    assert_eq!(k.cols(), h, "key width mismatch");
    assert_eq!(v.cols(), h, "value width mismatch");
    let d = h / heads;
    let scale = 1.0 / (d as f32).sqrt();

    // Scores through the GEMM engine: pre-scale q once so the 1/√d
    // factor is absorbed into the product (the backward still
    // differentiates w.r.t. the original q, so its chain-rule scale is
    // unchanged). The engine fills each head's full `[t, c]` block,
    // including the non-causal upper triangle; the softmax masks it.
    let mut qs = q.clone();
    qs.scale(scale);
    let mut probs = Tensor::uninit(heads * t, c);
    for j in 0..heads {
        gemm_once_into(
            pool,
            View::block(&qs, 0, t, j * d, d),
            View::block(k, 0, c, j * d, d).t(),
            window(probs.data_mut(), c, j * t, t, 0, c),
            c,
        );
    }
    let mut items = row_blocks(probs.data_mut(), c, ROW_GRAIN);
    pool.for_each(&mut items, |_, (r0, chunk)| {
        causal_softmax(chunk, c, |i| offset + (*r0 + i) % t + 1);
    });
    let mut out = Tensor::uninit(t, h);
    for j in 0..heads {
        gemm_once_into(
            pool,
            View::block(&probs, j * t, t, 0, c),
            View::block(v, 0, c, j * d, d),
            window(out.data_mut(), h, 0, t, j * d, d),
            h,
        );
    }
    (out, AttentionSaved { probs, offset })
}

/// Stable softmax, in place, of each `c`-wide score row in `chunk` over
/// its causal prefix `[0, limit(i))`, zeroing the rest of the row so the
/// `P·V` contraction and the backward's `Pᵀ·dOut` see exact zeros there.
/// Each row's max and sum are taken in index order; the rows' chains run
/// interleaved, and the exponentials in a separate, vectorizable pass.
fn causal_softmax(chunk: &mut [f32], c: usize, limit: impl Fn(usize) -> usize) {
    let rows = chunk.len() / c;
    // A short block repeats its last row in the spare lanes.
    let lim: [usize; ROW_GRAIN] = array::from_fn(|i| limit(i.min(rows - 1)));
    let max = fold_rows(prefixes(chunk, c, &lim), f32::NEG_INFINITY, max_step);
    // Whole rows, so the vector loop has no ragged remainder to run
    // scalar; the masked tail (finite scores, clamped exponentials) is
    // zeroed below.
    for (row, m) in chunk.chunks_exact_mut(c).zip(max) {
        for s in row {
            *s = fast_exp(*s - m);
        }
    }
    let denom = fold_rows(prefixes(chunk, c, &lim), 0.0f32, |a, x| a + x);
    for (i, row) in chunk.chunks_exact_mut(c).enumerate() {
        let (prow, tail) = row.split_at_mut(lim[i]);
        let inv = 1.0 / denom[i];
        for s in prow {
            *s *= inv;
        }
        tail.fill(0.0);
    }
}

/// The first `lim[i]` values of each `c`-wide row `i` of `chunk`, rows
/// past the last repeating it.
fn prefixes<'a, const N: usize>(chunk: &'a [f32], c: usize, lim: &[usize; N]) -> [&'a [f32]; N] {
    let last = chunk.len() / c - 1;
    array::from_fn(|i| &chunk[i.min(last) * c..][..lim[i]])
}

/// Backward of [`causal_attention`] (single-threaded): `(dq, dk, dv)`
/// with `dk`/`dv` spanning the whole prefix.
pub fn causal_attention_backward(
    dout: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    saved: &AttentionSaved,
) -> (Tensor, Tensor, Tensor) {
    multi_head_attention_backward_in(KernelPool::shared_serial(), dout, q, k, v, saved)
}

/// Backward of [`causal_attention_in`] on a worker pool — the one-head
/// case of [`multi_head_attention_backward_in`].
pub fn causal_attention_backward_in(
    pool: &KernelPool,
    dout: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    saved: &AttentionSaved,
) -> (Tensor, Tensor, Tensor) {
    multi_head_attention_backward_in(pool, dout, q, k, v, saved)
}

/// Backward of [`multi_head_attention_in`] on a worker pool:
/// `(dq, dk, dv)`, `dq: [t, h]` and `dk`/`dv: [c, h]` over the whole
/// prefix `c = offset + t`. `k`/`v` may hold more rows than the prefix
/// (a KV cache already filled by later slices); only the first `c` are
/// read. The softmax Jacobian product is a fused row kernel; `dV`, `dP`,
/// `dQ` and `dK` go through the packed GEMM engine on each head's
/// columns in place, so no transposed or per-head temporary is
/// allocated.
///
/// # Panics
///
/// Panics if the shapes disagree with `saved`.
pub fn multi_head_attention_backward_in(
    pool: &KernelPool,
    dout: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    saved: &AttentionSaved,
) -> (Tensor, Tensor, Tensor) {
    let (t, h) = (q.rows(), q.cols());
    let c = saved.probs.cols();
    let heads = saved.probs.rows() / t.max(1);
    let offset = saved.offset;
    assert_eq!(
        saved.probs.rows(),
        heads * t,
        "probabilities per head mismatch"
    );
    assert!(
        heads > 0 && h % heads == 0,
        "{heads} heads do not divide width {h}"
    );
    assert_eq!(c, offset + t, "probabilities must span offset + slice");
    assert_eq!(
        (dout.rows(), dout.cols()),
        (t, h),
        "output gradient shape mismatch"
    );
    assert!(
        k.rows() >= c && v.rows() >= c,
        "key/value rows must cover the prefix"
    );
    assert_eq!((k.cols(), v.cols()), (h, h), "key/value width mismatch");
    let d = h / heads;
    let scale = 1.0 / (d as f32).sqrt();
    let probs = &saved.probs;

    // dV = Pᵀ · dOut and dP = dOut · Vᵀ, per head. dP comes out full
    // width (the non-causal tail holds arbitrary finite values).
    let mut dv = Tensor::uninit(c, h);
    let mut ds = Tensor::uninit(heads * t, c);
    for j in 0..heads {
        let p = View::block(probs, j * t, t, 0, c);
        let dout_j = View::block(dout, 0, t, j * d, d);
        gemm_once_into(
            pool,
            p.t(),
            dout_j,
            window(dv.data_mut(), h, 0, c, j * d, d),
            h,
        );
        gemm_once_into(
            pool,
            dout_j,
            View::block(v, 0, c, j * d, d).t(),
            window(ds.data_mut(), c, j * t, t, 0, c),
            c,
        );
    }
    // The softmax backward dS = P ⊙ (dP − rowsum(P ⊙ dP)) in place per
    // row. The rowsum only runs over the causal prefix, and the tail is
    // zeroed explicitly so the dQ/dK contractions see exact zeros there.
    let mut items = row_blocks(ds.data_mut(), c, ROW_GRAIN);
    pool.for_each(&mut items, |_, (r0, chunk)| {
        for (i, row) in chunk.chunks_exact_mut(c).enumerate() {
            let r = *r0 + i;
            let limit = offset + r % t + 1;
            let prow = &probs.row(r)[..limit];
            let (dsrow, tail) = row.split_at_mut(limit);
            let ip = dot(prow, dsrow);
            for (s, &p) in dsrow.iter_mut().zip(prow) {
                *s = p * (*s - ip);
            }
            tail.fill(0.0);
        }
    });
    // dQ = dS · K · scale; dK = dSᵀ · Q · scale.
    let mut dq = Tensor::uninit(t, h);
    let mut dk = Tensor::uninit(c, h);
    for j in 0..heads {
        let ds_j = View::block(&ds, j * t, t, 0, c);
        gemm_once_into(
            pool,
            ds_j,
            View::block(k, 0, c, j * d, d),
            window(dq.data_mut(), h, 0, t, j * d, d),
            h,
        );
        gemm_once_into(
            pool,
            ds_j.t(),
            View::block(q, 0, t, j * d, d),
            window(dk.data_mut(), h, 0, c, j * d, d),
            h,
        );
    }
    dq.scale(scale);
    dk.scale(scale);
    (dq, dk, dv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng, uniform};
    use crate::ops::naive;

    /// Full-sequence attention must equal the concatenation of per-slice
    /// attention with KV prefixes — the core SPP correctness property.
    #[test]
    fn slice_forward_equals_full_forward() {
        let mut r = rng(31);
        let (t, d, s) = (8usize, 4usize, 4usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(t, d, 1.0, &mut r);
        let v = uniform(t, d, 1.0, &mut r);
        let (full, _) = causal_attention(&q, &k, &v, 0);
        let step = t / s;
        let mut parts = Vec::new();
        for i in 0..s {
            let qs = q.slice_rows(i * step, step);
            let kp = k.slice_rows(0, (i + 1) * step);
            let vp = v.slice_rows(0, (i + 1) * step);
            let (o, _) = causal_attention(&qs, &kp, &vp, i * step);
            parts.push(o);
        }
        let sliced = Tensor::vstack(&parts);
        assert!(full.max_abs_diff(&sliced) < 1e-5);
    }

    /// Gradients accumulated over slices must equal full-sequence
    /// gradients.
    #[test]
    fn slice_backward_equals_full_backward() {
        let mut r = rng(32);
        let (t, d, s) = (6usize, 4usize, 3usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(t, d, 1.0, &mut r);
        let v = uniform(t, d, 1.0, &mut r);
        let dout = uniform(t, d, 1.0, &mut r);
        let (_, saved) = causal_attention(&q, &k, &v, 0);
        let (dq_full, dk_full, dv_full) = causal_attention_backward(&dout, &q, &k, &v, &saved);

        let step = t / s;
        let mut dq_parts = Vec::new();
        let mut dk_acc = Tensor::zeros(t, d);
        let mut dv_acc = Tensor::zeros(t, d);
        for i in 0..s {
            let off = i * step;
            let qs = q.slice_rows(off, step);
            let kp = k.slice_rows(0, off + step);
            let vp = v.slice_rows(0, off + step);
            let (_, sv) = causal_attention(&qs, &kp, &vp, off);
            let (dq, dk, dv) =
                causal_attention_backward(&dout.slice_rows(off, step), &qs, &kp, &vp, &sv);
            dq_parts.push(dq);
            // Accumulate prefix contributions into the full-length buffers.
            for rr in 0..dk.rows() {
                for cc in 0..d {
                    dk_acc.set(rr, cc, dk_acc.at(rr, cc) + dk.at(rr, cc));
                    dv_acc.set(rr, cc, dv_acc.at(rr, cc) + dv.at(rr, cc));
                }
            }
        }
        assert!(dq_full.max_abs_diff(&Tensor::vstack(&dq_parts)) < 1e-5);
        assert!(dk_full.max_abs_diff(&dk_acc) < 1e-5);
        assert!(dv_full.max_abs_diff(&dv_acc) < 1e-5);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng(33);
        let (t, d) = (3usize, 2usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(t, d, 1.0, &mut r);
        let v = uniform(t, d, 1.0, &mut r);
        check_against_finite_differences(&q, &k, &v, 0);
    }

    #[test]
    fn gradients_match_finite_differences_at_odd_shapes_with_prefix() {
        // Non-square slice (t=5, d=3) at a nonzero offset: the KV prefix
        // spans 7 positions, exercising the partial-prefix gradient path
        // at shapes that straddle the kernel lane width.
        let mut r = rng(35);
        let (t, d, offset) = (5usize, 3usize, 2usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(offset + t, d, 1.0, &mut r);
        let v = uniform(offset + t, d, 1.0, &mut r);
        check_against_finite_differences(&q, &k, &v, offset);
    }

    fn check_against_finite_differences(q: &Tensor, k: &Tensor, v: &Tensor, offset: usize) {
        let (t, d) = (q.rows(), q.cols());
        let loss = |q: &Tensor, k: &Tensor, v: &Tensor| {
            let (o, _) = causal_attention(q, k, v, offset);
            o.data().iter().sum::<f32>()
        };
        let dout = Tensor::from_vec(t, d, vec![1.0; t * d]);
        let (_, saved) = causal_attention(q, k, v, offset);
        let (dq, dk, dv) = causal_attention_backward(&dout, q, k, v, &saved);
        let eps = 1e-3;
        let check = |name: &str, x: &Tensor, g: &Tensor, which: usize| {
            for rr in 0..x.rows() {
                for cc in 0..x.cols() {
                    let mut xp = x.clone();
                    xp.set(rr, cc, x.at(rr, cc) + eps);
                    let mut xm = x.clone();
                    xm.set(rr, cc, x.at(rr, cc) - eps);
                    let (lp, lm) = match which {
                        0 => (loss(&xp, k, v), loss(&xm, k, v)),
                        1 => (loss(q, &xp, v), loss(q, &xm, v)),
                        _ => (loss(q, k, &xp), loss(q, k, &xm)),
                    };
                    let num = (lp - lm) / (2.0 * eps);
                    assert!(
                        (num - g.at(rr, cc)).abs() < 2e-2,
                        "{name}({rr},{cc}): {num} vs {}",
                        g.at(rr, cc)
                    );
                }
            }
        };
        check("dq", q, &dq, 0);
        check("dk", k, &dk, 1);
        check("dv", v, &dv, 2);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut r = rng(34);
        let q = uniform(2, 2, 1.0, &mut r);
        let k = uniform(2, 2, 1.0, &mut r);
        let v1 = uniform(2, 2, 1.0, &mut r);
        // Changing the second value row must not affect the first output
        // row.
        let mut v2 = v1.clone();
        v2.set(1, 0, 99.0);
        let (o1, _) = causal_attention(&q, &k, &v1, 0);
        let (o2, _) = causal_attention(&q, &k, &v2, 0);
        assert_eq!(o1.row(0), o2.row(0));
        assert_ne!(o1.row(1), o2.row(1));
    }

    #[test]
    fn fused_kernels_match_naive_reference() {
        let mut r = rng(36);
        let (t, d, offset) = (9usize, 5usize, 3usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(offset + t, d, 1.0, &mut r);
        let v = uniform(offset + t, d, 1.0, &mut r);
        let dout = uniform(t, d, 1.0, &mut r);
        let (o_ref, probs_ref) = naive::causal_attention(&q, &k, &v, offset);
        let (o, saved) = causal_attention(&q, &k, &v, offset);
        assert!(o.max_abs_diff(&o_ref) < 1e-5);
        assert!(saved.probs.max_abs_diff(&probs_ref) < 1e-5);
        let (dq_r, dk_r, dv_r) = naive::causal_attention_backward(&dout, &q, &k, &v, &probs_ref);
        let (dq, dk, dv) = causal_attention_backward(&dout, &q, &k, &v, &saved);
        assert!(dq.max_abs_diff(&dq_r) < 1e-5);
        assert!(dk.max_abs_diff(&dk_r) < 1e-5);
        assert!(dv.max_abs_diff(&dv_r) < 1e-5);
    }

    #[test]
    fn multi_worker_attention_is_bit_identical() {
        let mut r = rng(37);
        let (t, d, offset) = (13usize, 6usize, 4usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(offset + t, d, 1.0, &mut r);
        let v = uniform(offset + t, d, 1.0, &mut r);
        let dout = uniform(t, d, 1.0, &mut r);
        let (o1, s1) = causal_attention(&q, &k, &v, offset);
        let (dq1, dk1, dv1) = causal_attention_backward(&dout, &q, &k, &v, &s1);
        for workers in [2, 4] {
            let pool = KernelPool::new(workers);
            let (o, s) = causal_attention_in(&pool, &q, &k, &v, offset);
            let (dq, dk, dv) = causal_attention_backward_in(&pool, &dout, &q, &k, &v, &s);
            assert_eq!(o1.data(), o.data());
            assert_eq!(s1.probs.data(), s.probs.data());
            assert_eq!(dq1.data(), dq.data());
            assert_eq!(dk1.data(), dk.data());
            assert_eq!(dv1.data(), dv.data());
        }
    }
}
