//! Property tests for the tensor kernels: algebraic identities and the
//! slice-equivalence laws the pipeline runtime depends on.

use proptest::prelude::*;

use mepipe_tensor::{
    init::{rng, uniform},
    ops::{
        causal_attention, causal_attention_backward, causal_attention_backward_in,
        causal_attention_in, cross_entropy, matmul, matmul_dgrad, matmul_dgrad_in, matmul_in,
        matmul_packed_in, matmul_wgrad, matmul_wgrad_in, multi_head_attention_backward_in,
        multi_head_attention_in, naive, rmsnorm, rmsnorm_backward, silu, silu_backward, PackedB,
    },
    KernelPool, Tensor,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `(A·B)ᵀ = Bᵀ·Aᵀ`.
    #[test]
    fn matmul_transpose_identity(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..500) {
        let mut r = rng(seed);
        let a = uniform(m, k, 1.0, &mut r);
        let b = uniform(k, n, 1.0, &mut r);
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    /// dgrad and wgrad are consistent with each other: for scalar loss
    /// `L = Σ (A·B)`, `Σ A ⊙ dA = Σ B ⊙ dB` (both equal Σ over paths).
    #[test]
    fn grad_halves_agree_on_inner_product(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..500) {
        let mut r = rng(seed);
        let a = uniform(m, k, 1.0, &mut r);
        let b = uniform(k, n, 1.0, &mut r);
        let dc = Tensor::from_vec(m, n, vec![1.0; m * n]);
        let da = matmul_dgrad(&dc, &b);
        let db = matmul_wgrad(&a, &dc);
        let ip_a: f32 = a.data().iter().zip(da.data()).map(|(x, g)| x * g).sum();
        let ip_b: f32 = b.data().iter().zip(db.data()).map(|(x, g)| x * g).sum();
        // Both inner products equal Σ_C by Euler's identity for bilinear
        // forms: <A, dA> = <B, dB> = Σ C.
        prop_assert!((ip_a - ip_b).abs() < 1e-2 * ip_a.abs().max(1.0));
    }

    /// Weight gradients over row slices sum to the whole-batch gradient —
    /// the law that lets slices accumulate into one gradient buffer.
    #[test]
    fn wgrad_slice_additivity(rows in 2usize..10, k in 1usize..5, n in 1usize..5, cut_frac in 0.1f64..0.9, seed in 0u64..500) {
        let mut r = rng(seed);
        let a = uniform(rows, k, 1.0, &mut r);
        let dc = uniform(rows, n, 1.0, &mut r);
        let cut = ((rows as f64 * cut_frac) as usize).clamp(1, rows - 1);
        let whole = matmul_wgrad(&a, &dc);
        let mut parts = matmul_wgrad(&a.slice_rows(0, cut), &dc.slice_rows(0, cut));
        parts.add_assign(&matmul_wgrad(
            &a.slice_rows(cut, rows - cut),
            &dc.slice_rows(cut, rows - cut),
        ));
        prop_assert!(whole.max_abs_diff(&parts) < 1e-4);
    }

    /// RMSNorm output rows always have (weighted) unit RMS when the weight
    /// is all ones.
    #[test]
    fn rmsnorm_normalises(rows in 1usize..6, cols in 2usize..10, seed in 0u64..500) {
        let mut r = rng(seed);
        let x = uniform(rows, cols, 2.0, &mut r);
        let w = Tensor::from_vec(1, cols, vec![1.0; cols]);
        let (y, _) = rmsnorm(&x, &w);
        for i in 0..rows {
            let ms: f32 = y.row(i).iter().map(|v| v * v).sum::<f32>() / cols as f32;
            // eps keeps it slightly below 1 for small inputs.
            prop_assert!(ms <= 1.0 + 1e-3, "row {i}: ms = {ms}");
        }
    }

    /// RMSNorm gradient is orthogonal to scaling: dx · x ≈ 0 when w = 1
    /// and dy = x (the norm is scale-invariant along x).
    #[test]
    fn rmsnorm_scale_invariance(cols in 2usize..10, seed in 0u64..500) {
        let mut r = rng(seed);
        let x = uniform(1, cols, 1.0, &mut r);
        // The eps inside the RMS breaks exact scale invariance for tiny
        // inputs; keep the norm away from zero.
        prop_assume!(x.norm_sq() > 0.5);
        let w = Tensor::from_vec(1, cols, vec![1.0; cols]);
        let (_, saved) = rmsnorm(&x, &w);
        // Feed dy = normalised(x); the x-direction component must vanish.
        let (y, _) = rmsnorm(&x, &w);
        let (dx, _) = rmsnorm_backward(&y, &w, &saved);
        // With dy = y the true gradient is (numerically) zero; the only
        // residual is the eps inside the RMS. Measure the derivative along
        // the scaling direction against the input magnitude.
        let dot: f32 = dx.data().iter().zip(x.data()).map(|(a, b)| a * b).sum();
        prop_assert!(dot.abs() < 1e-3 * x.norm_sq(), "dot {dot} |x|^2 {}", x.norm_sq());
    }

    /// SiLU backward is exact against central differences everywhere.
    #[test]
    fn silu_grad_correct(v in -4.0f32..4.0) {
        let x = Tensor::from_vec(1, 1, vec![v]);
        let dy = Tensor::from_vec(1, 1, vec![1.0]);
        let dx = silu_backward(&dy, &x);
        let eps = 1e-3;
        let f = |t: f32| silu(&Tensor::from_vec(1, 1, vec![t])).at(0, 0);
        let num = (f(v + eps) - f(v - eps)) / (2.0 * eps);
        prop_assert!((num - dx.at(0, 0)).abs() < 1e-2);
    }

    /// Cross-entropy loss decomposes over row slices exactly.
    #[test]
    fn loss_slice_additivity(rows in 2usize..8, vocab in 2usize..12, seed in 0u64..500) {
        let mut r = rng(seed);
        let logits = uniform(rows, vocab, 2.0, &mut r);
        let targets: Vec<usize> = (0..rows).map(|i| i % vocab).collect();
        let full = cross_entropy(&logits, &targets);
        let cut = rows / 2;
        let a = cross_entropy(&logits.slice_rows(0, cut), &targets[..cut]);
        let b = cross_entropy(&logits.slice_rows(cut, rows - cut), &targets[cut..]);
        prop_assert!((full.loss_sum - a.loss_sum - b.loss_sum).abs() < 1e-9);
        // Gradients stack too.
        let stacked = Tensor::vstack(&[a.dlogits, b.dlogits]);
        prop_assert!(full.dlogits.max_abs_diff(&stacked) < 1e-6);
    }

    /// Cross-entropy gradient rows sum to zero (softmax minus one-hot).
    #[test]
    fn loss_grad_rows_sum_to_zero(vocab in 2usize..16, seed in 0u64..500) {
        let mut r = rng(seed);
        let logits = uniform(3, vocab, 3.0, &mut r);
        let out = cross_entropy(&logits, &[0, vocab / 2, vocab - 1]);
        for i in 0..3 {
            let s: f32 = out.dlogits.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-4, "row {i} sums to {s}");
        }
    }

    /// The blocked/packed kernel engine matches the naive scalar loops for
    /// all three GEMM forms, at random shapes and worker counts. Shapes
    /// reach past the register-tile (6×8), row-block (48) and panel (256)
    /// boundaries so every packing edge case gets exercised.
    #[test]
    fn kernel_engine_matches_naive(
        m in 1usize..80,
        k in 1usize..70,
        n in 1usize..60,
        workers in 1usize..5,
        seed in 0u64..500,
    ) {
        let mut r = rng(seed);
        let a = uniform(m, k, 1.0, &mut r);
        let b = uniform(k, n, 1.0, &mut r);
        let dc = uniform(m, n, 1.0, &mut r);
        let pool = KernelPool::new(workers);

        let c = matmul_in(&pool, &a, &b);
        prop_assert!(c.max_abs_diff(&naive::matmul(&a, &b)) < 1e-5);
        let da = matmul_dgrad_in(&pool, &dc, &b);
        prop_assert!(da.max_abs_diff(&naive::matmul_dgrad(&dc, &b)) < 1e-5);
        let db = matmul_wgrad_in(&pool, &a, &dc);
        prop_assert!(db.max_abs_diff(&naive::matmul_wgrad(&a, &dc)) < 1e-5);
        // A prebuilt pack of either form reproduces the per-call pack
        // bit for bit.
        let c_packed = matmul_packed_in(&pool, &a, &PackedB::new(&b));
        prop_assert_eq!(c_packed.data(), c.data());
        let da_packed = matmul_packed_in(&pool, &dc, &PackedB::transposed(&b));
        prop_assert_eq!(da_packed.data(), da.data());
    }

    /// The fused attention forward/backward matches the naive reference
    /// (explicit transposes, unfused softmax) at random shapes, prefix
    /// offsets and worker counts.
    #[test]
    fn fused_attention_matches_naive(
        t in 1usize..12,
        d in 1usize..10,
        offset in 0usize..8,
        workers in 1usize..5,
        seed in 0u64..500,
    ) {
        let mut r = rng(seed);
        let prefix = offset + t;
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(prefix, d, 1.0, &mut r);
        let v = uniform(prefix, d, 1.0, &mut r);
        let dout = uniform(t, d, 1.0, &mut r);
        let pool = KernelPool::new(workers);

        let (out, saved) = causal_attention_in(&pool, &q, &k, &v, offset);
        let (out_n, probs_n) = naive::causal_attention(&q, &k, &v, offset);
        prop_assert!(out.max_abs_diff(&out_n) < 1e-5);
        prop_assert!(saved.probs.max_abs_diff(&probs_n) < 1e-5);

        let (dq, dk, dv) = causal_attention_backward_in(&pool, &dout, &q, &k, &v, &saved);
        let (dq_n, dk_n, dv_n) =
            naive::causal_attention_backward(&dout, &q, &k, &v, &probs_n);
        prop_assert!(dq.max_abs_diff(&dq_n) < 1e-5);
        prop_assert!(dk.max_abs_diff(&dk_n) < 1e-5);
        prop_assert!(dv.max_abs_diff(&dv_n) < 1e-5);
    }
}

/// Columns `c0..c0 + n` of the first `rows` rows of `t`, copied.
fn block(t: &Tensor, rows: usize, c0: usize, n: usize) -> Tensor {
    let data = (0..rows)
        .flat_map(|r| t.row(r)[c0..c0 + n].iter().copied())
        .collect();
    Tensor::from_vec(rows, n, data)
}

/// `t`'s values as bit patterns, for exact comparison.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One multi-head call equals a loop over heads, head by head: within
    /// 1e-5 of the naive reference, and bit for bit the one-head path on
    /// that head's columns. The backward reads a KV cache that may hold
    /// rows past the prefix, as later slices leave it. Results are
    /// bit-identical across pool sizes 1–4.
    #[test]
    fn multi_head_attention_matches_per_head_loops(
        t in 1usize..10,
        offset in 0usize..12,
        heads in 1usize..=8,
        d in prop::sample::select(vec![1usize, 3, 16, 33, 64]),
        later in 0usize..4,
        seed in 0u64..500,
    ) {
        let mut r = rng(seed);
        let (h, c) = (heads * d, offset + t);
        let q = uniform(t, h, 1.0, &mut r);
        let k_cache = uniform(c + later, h, 1.0, &mut r);
        let v_cache = uniform(c + later, h, 1.0, &mut r);
        let (k, v) = (k_cache.slice_rows(0, c), v_cache.slice_rows(0, c));
        let dout = uniform(t, h, 1.0, &mut r);

        let run = |workers: usize| {
            let pool = KernelPool::new(workers);
            let (out, saved) = multi_head_attention_in(&pool, &q, &k, &v, offset, heads);
            let grads = multi_head_attention_backward_in(&pool, &dout, &q, &k_cache, &v_cache, &saved);
            (out, saved, grads)
        };
        let (out, saved, (dq, dk, dv)) = run(1);
        prop_assert_eq!((saved.probs.rows(), saved.probs.cols()), (heads * t, c));
        prop_assert_eq!((dk.rows(), dk.cols(), dv.rows()), (c, h, c));
        for workers in 2..=4 {
            let (o, s, (gq, gk, gv)) = run(workers);
            prop_assert_eq!(bits(&o), bits(&out), "out bits, {} workers", workers);
            prop_assert_eq!(bits(&s.probs), bits(&saved.probs));
            prop_assert_eq!(bits(&gq), bits(&dq));
            prop_assert_eq!(bits(&gk), bits(&dk));
            prop_assert_eq!(bits(&gv), bits(&dv));
        }

        for j in 0..heads {
            let (qj, kj, vj) = (block(&q, t, j * d, d), block(&k, c, j * d, d), block(&v, c, j * d, d));
            let doj = block(&dout, t, j * d, d);
            let probs_j = saved.probs.slice_rows(j * t, t);
            let (oj, pj) = naive::causal_attention(&qj, &kj, &vj, offset);
            prop_assert!(block(&out, t, j * d, d).max_abs_diff(&oj) < 1e-5, "head {} out", j);
            prop_assert!(probs_j.max_abs_diff(&pj) < 1e-5, "head {} probs", j);
            let (gq, gk, gv) = naive::causal_attention_backward(&doj, &qj, &kj, &vj, &pj);
            prop_assert!(block(&dq, t, j * d, d).max_abs_diff(&gq) < 1e-5, "head {} dq", j);
            prop_assert!(block(&dk, c, j * d, d).max_abs_diff(&gk) < 1e-5, "head {} dk", j);
            prop_assert!(block(&dv, c, j * d, d).max_abs_diff(&gv) < 1e-5, "head {} dv", j);

            let (o1, s1) = causal_attention(&qj, &kj, &vj, offset);
            prop_assert_eq!(bits(&block(&out, t, j * d, d)), bits(&o1), "head {} out bits", j);
            prop_assert_eq!(bits(&probs_j), bits(&s1.probs));
            let (q1, k1, v1) = causal_attention_backward(&doj, &qj, &kj, &vj, &s1);
            prop_assert_eq!(bits(&block(&dq, t, j * d, d)), bits(&q1), "head {} dq bits", j);
            prop_assert_eq!(bits(&block(&dk, c, j * d, d)), bits(&k1), "head {} dk bits", j);
            prop_assert_eq!(bits(&block(&dv, c, j * d, d)), bits(&v1), "head {} dv bits", j);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wire round trip is bit-exact for arbitrary shapes and payloads,
    /// including NaN/inf bit patterns injected at arbitrary positions.
    #[test]
    fn wire_round_trip_is_bit_exact(
        rows in 0usize..17,
        cols in 0usize..23,
        seed in 0u64..1000,
        special in 0u32..6,
    ) {
        let mut r = rng(seed);
        let mut t = uniform(rows.max(1), cols.max(1), 1e3, &mut r);
        // Overwrite a few positions with non-finite / denormal payloads.
        let n = t.len();
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(0x7fc0_dead), // NaN with payload bits
            1e-40,                       // subnormal
        ];
        for (i, s) in specials.iter().take(special as usize).enumerate() {
            let idx = (seed as usize + i * 7) % n;
            t.data_mut()[idx] = *s;
        }
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let (back, used) = Tensor::decode(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!((back.rows(), back.cols()), (t.rows(), t.cols()));
        for (a, b) in t.data().iter().zip(back.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Every strict prefix of a frame is rejected as truncated — no
    /// partial frame ever decodes into a tensor.
    #[test]
    fn wire_truncation_always_rejected(
        rows in 1usize..9,
        cols in 1usize..9,
        cut_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let mut r = rng(seed);
        let t = uniform(rows, cols, 1.0, &mut r);
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let cut = ((buf.len() as f64) * cut_frac) as usize; // strictly < len
        prop_assert!(Tensor::decode(&buf[..cut.min(buf.len() - 1)]).is_err());
    }

    /// Decoding with trailing garbage consumes exactly one frame and
    /// still round-trips bitwise.
    #[test]
    fn wire_decode_consumes_one_frame(
        rows in 1usize..9,
        cols in 1usize..9,
        trailer in 0usize..32,
        seed in 0u64..1000,
    ) {
        let mut r = rng(seed);
        let t = uniform(rows, cols, 1.0, &mut r);
        let mut buf = Vec::new();
        t.encode_into(&mut buf);
        let frame_len = buf.len();
        buf.extend(std::iter::repeat_n(0x5Au8, trailer));
        let (back, used) = Tensor::decode(&buf).unwrap();
        prop_assert_eq!(used, frame_len);
        prop_assert!(back.max_abs_diff(&t) == 0.0);
    }
}
