//! Single-head causal attention over a query *slice* and its key/value
//! prefix — the dataflow primitive of sequence pipeline parallelism.
//!
//! Under TeraPipe/MEPipe slicing, the forward of slice `i` consumes the
//! keys and values of every preceding slice (Section 4.1, Figure 3); the
//! backward of slice `i` produces gradient *contributions* to those
//! prefix keys/values, which the caller accumulates in reverse slice
//! order. This module implements exactly that contract:
//!
//! * forward: `q: [t, d]` for the slice, `k, v: [c, d]` for the whole
//!   prefix `c = offset + t`; causal masking inside the slice;
//! * backward: returns `dq: [t, d]` plus `dk, dv: [c, d]` over the whole
//!   prefix.
//!
//! Both passes route every contraction — scores `Q·Kᵀ`, the value
//! contraction `P·V`, and the gradient products `dOut·Vᵀ`, `dS·K`,
//! `dSᵀ·Q`, `Pᵀ·dOut` — through the packed GEMM engine, with transposes
//! absorbed by packing (no `Kᵀ`/`Vᵀ` temporary is ever materialised).
//! The engine computes full-width score rows, including the non-causal
//! upper triangle; the softmax / Jacobian row sweeps then mask that
//! tail to zero. For the short, fat shapes attention produces
//! (`t ≤ 16`, `c ≤ seq_len`), the blocked GEMM runs several times
//! faster than per-row dot/axpy loops even counting the ~50 % masked
//! waste, which is why the mask-after-GEMM layout wins.

use crate::{
    ops::{
        matmul::{matmul_dgrad_in, matmul_in, matmul_wgrad_in},
        vecops::{dot, fast_exp},
    },
    pool::{row_blocks, KernelPool},
    tensor::Tensor,
};

/// Query rows per parallel work item. Fixed (never derived from the
/// worker count) so results are bit-identical across pools.
const ROW_GRAIN: usize = 4;

/// Forward-pass state kept for the backward pass.
#[derive(Debug, Clone)]
pub struct AttentionSaved {
    /// Post-softmax attention probabilities, `[t, c]`.
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
    causal_attention_in(KernelPool::shared_serial(), q, k, v, offset)
}

/// Causal attention forward for one head on a worker pool: fused
/// scores → stable softmax → `P·V` per query row.
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
    let t = q.rows();
    let d = q.cols();
    let c = offset + t;
    assert_eq!(k.rows(), c, "key prefix must cover offset + slice");
    assert_eq!(v.rows(), c, "value prefix must cover offset + slice");
    assert_eq!(k.cols(), d, "key head dim mismatch");
    assert_eq!(v.cols(), d, "value head dim mismatch");
    let scale = 1.0 / (d as f32).sqrt();

    // Scores through the GEMM engine: pre-scale a copy of q so the
    // 1/√d factor is absorbed into the product (the backward still
    // differentiates w.r.t. the original q, so its chain-rule scale is
    // unchanged). The engine fills the full `[t, c]` matrix, including
    // the non-causal upper triangle; the softmax sweep masks it below.
    let mut qs = q.clone();
    qs.scale(scale);
    let mut probs = matmul_dgrad_in(pool, &qs, k);
    let mut items = row_blocks(probs.data_mut(), c, ROW_GRAIN);
    pool.for_each(&mut items, |_, (r0, chunk)| {
        let rows = chunk.len() / c;
        for i in 0..rows {
            let gi = *r0 + i;
            let limit = offset + gi + 1; // Causal: keys [0, limit).
            let (prow, tail) = chunk[i * c..(i + 1) * c].split_at_mut(limit);
            let mut max = f32::NEG_INFINITY;
            for &s in prow.iter() {
                max = max.max(s);
            }
            let mut denom = 0.0;
            for s in prow.iter_mut() {
                *s = fast_exp(*s - max);
                denom += *s;
            }
            let inv = 1.0 / denom;
            for s in prow.iter_mut() {
                *s *= inv;
            }
            // Causal mask: zero the future scores the GEMM filled in,
            // so the P·V contraction and the backward's Pᵀ·dOut see
            // exact zeros there.
            for s in tail.iter_mut() {
                *s = 0.0;
            }
        }
    });
    let out = matmul_in(pool, &probs, v);
    (out, AttentionSaved { probs, offset })
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
    causal_attention_backward_in(KernelPool::shared_serial(), dout, q, k, v, saved)
}

/// Backward of [`causal_attention_in`] on a worker pool: `(dq, dk, dv)`
/// with `dk`/`dv` spanning the whole prefix. `dP` and the softmax
/// Jacobian product are fused row kernels; `dV`, `dQ` and `dK` go through
/// the packed GEMM forms, so no transposed temporary is allocated.
pub fn causal_attention_backward_in(
    pool: &KernelPool,
    dout: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    saved: &AttentionSaved,
) -> (Tensor, Tensor, Tensor) {
    let t = q.rows();
    let d = q.cols();
    let c = k.rows();
    assert_eq!(saved.probs.rows(), t);
    assert_eq!(saved.probs.cols(), c);
    assert_eq!(dout.rows(), t);
    assert_eq!(dout.cols(), d);
    let scale = 1.0 / (d as f32).sqrt();
    let offset = saved.offset;

    // dV = Pᵀ · dOut (wgrad form — the transpose is absorbed by packing).
    let dv = matmul_wgrad_in(pool, &saved.probs, dout);
    // dP = dOut · Vᵀ through the engine (full width — the non-causal
    // tail comes out as arbitrary finite values), then the softmax
    // backward dS = P ⊙ (dP − rowsum(P ⊙ dP)) in place per row. The
    // rowsum only runs over the causal prefix, and the tail is zeroed
    // explicitly so the dQ/dK contractions see exact zeros there.
    let mut ds = matmul_dgrad_in(pool, dout, v);
    let mut items = row_blocks(ds.data_mut(), c, ROW_GRAIN);
    pool.for_each(&mut items, |_, (r0, chunk)| {
        let rows = chunk.len() / c;
        for i in 0..rows {
            let gi = *r0 + i;
            let limit = offset + gi + 1;
            let prow = &saved.probs.row(gi)[..limit];
            let (dsrow, tail) = chunk[i * c..(i + 1) * c].split_at_mut(limit);
            let ip = dot(prow, dsrow);
            for (s, &p) in dsrow.iter_mut().zip(prow) {
                *s = p * (*s - ip);
            }
            for s in tail.iter_mut() {
                *s = 0.0;
            }
        }
    });
    // dQ = dS · K · scale; dK = dSᵀ · Q · scale (wgrad form).
    let mut dq = matmul_in(pool, &ds, k);
    dq.scale(scale);
    let mut dk = matmul_wgrad_in(pool, &ds, q);
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
