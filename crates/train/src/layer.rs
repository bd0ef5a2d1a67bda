//! Slice-wise decoder layer with explicit, splittable backward.
//!
//! The layer implements the SPP dataflow contract end to end:
//!
//! * `forward_slice` consumes one token slice, *appends* its keys/values
//!   to the layer's per-sample KV cache, and attends over the whole
//!   prefix;
//! * `backward_input_slice` consumes the output gradient of one slice,
//!   accumulates dK/dV contributions for all preceding slices into the
//!   per-sample dKV buffer, pulls out the completed rows for its *own*
//!   positions (valid because slices are processed in reverse order), and
//!   returns the input gradient plus a bag of deferred weight-gradient
//!   GEMMs;
//! * `apply_wgrads` executes those GEMMs — the op MEPipe schedules freely.

use mepipe_tensor::{
    ops::{
        matmul_packed_in, matmul_wgrad_acc_in, multi_head_attention_backward_in,
        multi_head_attention_in, rmsnorm_backward_in, rmsnorm_in, silu, silu_backward,
        AttentionSaved, PackedB, RmsNormSaved,
    },
    KernelPool, Tensor,
};

use crate::params::LayerParams;

/// Per-layer per-sample key/value cache (grows slice by slice).
#[derive(Debug, Clone, Default)]
pub struct Kv {
    /// Keys `[tokens_so_far, h]`.
    pub k: Option<Tensor>,
    /// Values `[tokens_so_far, h]`.
    pub v: Option<Tensor>,
}

impl Kv {
    /// Appends one slice's keys/values. In-place row append, so growing
    /// the cache slice by slice costs O(slice) per call instead of
    /// recopying the whole prefix.
    pub fn append(&mut self, k_new: Tensor, v_new: Tensor) {
        match &mut self.k {
            Some(k) => k.append_rows(&k_new),
            None => self.k = Some(k_new),
        }
        match &mut self.v {
            Some(v) => v.append_rows(&v_new),
            None => self.v = Some(v_new),
        }
    }

    /// Cached token count.
    pub fn len(&self) -> usize {
        self.k.as_ref().map_or(0, Tensor::rows)
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Byte footprint of the cache.
    pub fn bytes(&self) -> usize {
        self.k.as_ref().map_or(0, Tensor::bytes) + self.v.as_ref().map_or(0, Tensor::bytes)
    }
}

/// Which weight a deferred gradient GEMM updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightId {
    /// Query projection.
    Wq,
    /// Key projection.
    Wk,
    /// Value projection.
    Wv,
    /// Output projection.
    Wo,
    /// SwiGLU gate.
    Wg,
    /// SwiGLU up.
    Wu,
    /// SwiGLU down.
    Wd,
}

/// One layer's seven projection weights packed for one GEMM form,
/// indexed by [`WeightId`]. Each weight feeds one GEMM of each form per
/// slice per micro-batch, so callers pack once per optimizer step and
/// pass the packs to every slice.
pub struct LayerPacks([PackedB; 7]);

impl LayerPacks {
    /// The forward form `x · W`, for [`forward_slice`].
    pub fn forward(p: &LayerParams) -> Self {
        Self(projections(p).map(PackedB::new))
    }

    /// The input-gradient form `dy · Wᵀ`, for [`backward_input_slice`].
    pub fn input_grad(p: &LayerParams) -> Self {
        Self(projections(p).map(PackedB::transposed))
    }
}

/// `p`'s projection weights in [`WeightId`] declaration order.
fn projections(p: &LayerParams) -> [&Tensor; 7] {
    [&p.wq, &p.wk, &p.wv, &p.wo, &p.wg, &p.wu, &p.wd]
}

impl std::ops::Index<WeightId> for LayerPacks {
    type Output = PackedB;

    fn index(&self, id: WeightId) -> &PackedB {
        &self.0[id as usize]
    }
}

/// One deferred weight-gradient GEMM: `dW += inputᵀ · out_grad`.
#[derive(Debug, Clone)]
pub struct WgradGemm {
    /// Which weight to update.
    pub weight: WeightId,
    /// The forward input activation.
    pub input: Tensor,
    /// The output gradient.
    pub out_grad: Tensor,
}

impl WgradGemm {
    /// Byte footprint of the retained operands.
    pub fn bytes(&self) -> usize {
        self.input.bytes() + self.out_grad.bytes()
    }
}

/// Activations one slice-forward saves for its backward. The layer's
/// input and its attention residual are each held once, inside the
/// RMSNorm save that reads them (`norm1_saved.x`, `norm2_saved.x`).
#[derive(Debug, Clone)]
pub struct LayerFwdSaved {
    norm1_saved: RmsNormSaved,
    normed1: Tensor,
    q: Tensor,
    attn_saved: AttentionSaved,
    attn_concat: Tensor,
    norm2_saved: RmsNormSaved,
    normed2: Tensor,
    gate_pre: Tensor,
    gate_act: Tensor,
    up: Tensor,
}

impl LayerFwdSaved {
    /// Byte footprint of everything retained for the backward pass.
    pub fn bytes(&self) -> usize {
        self.norm1_saved.x.bytes()
            + self.normed1.bytes()
            + self.q.bytes()
            + self.attn_saved.probs.bytes()
            + self.attn_concat.bytes()
            + self.norm2_saved.x.bytes()
            + self.normed2.bytes()
            + self.gate_pre.bytes()
            + self.gate_act.bytes()
            + self.up.bytes()
    }
}

/// Forward of one token slice through one decoder layer, reading the
/// projections from `w`, `p`'s [`LayerPacks::forward`]. All hot kernels
/// run on `pool` — pass [`KernelPool::shared_serial`] for single-threaded
/// execution.
///
/// `offset` is the slice's first absolute token position; the layer's KV
/// cache must contain exactly `offset` tokens on entry.
///
/// # Panics
///
/// Panics if the KV cache length disagrees with `offset`.
pub fn forward_slice(
    pool: &KernelPool,
    p: &LayerParams,
    w: &LayerPacks,
    x: &Tensor,
    kv: &mut Kv,
    offset: usize,
    heads: usize,
) -> (Tensor, LayerFwdSaved) {
    assert_eq!(kv.len(), offset, "KV cache out of sync with slice offset");

    let (normed1, norm1_saved) = rmsnorm_in(pool, x, &p.norm1);
    let q = matmul_packed_in(pool, &normed1, &w[WeightId::Wq]);
    let k_new = matmul_packed_in(pool, &normed1, &w[WeightId::Wk]);
    let v_new = matmul_packed_in(pool, &normed1, &w[WeightId::Wv]);
    kv.append(k_new, v_new);
    let k_all = kv.k.as_ref().expect("cache nonempty after append");
    let v_all = kv.v.as_ref().expect("cache nonempty after append");

    let (attn_concat, attn_saved) = multi_head_attention_in(pool, &q, k_all, v_all, offset, heads);
    let attn_out = matmul_packed_in(pool, &attn_concat, &w[WeightId::Wo]);
    let resid1 = x.add(&attn_out);

    let (normed2, norm2_saved) = rmsnorm_in(pool, &resid1, &p.norm2);
    let gate_pre = matmul_packed_in(pool, &normed2, &w[WeightId::Wg]);
    let up = matmul_packed_in(pool, &normed2, &w[WeightId::Wu]);
    let gate_act = silu(&gate_pre);
    let mut mlp_act = gate_act.clone();
    for (a, b) in mlp_act.data_mut().iter_mut().zip(up.data()) {
        *a *= b;
    }
    let mlp_out = matmul_packed_in(pool, &mlp_act, &w[WeightId::Wd]);
    let mut y = resid1;
    y.add_assign(&mlp_out);

    let saved = LayerFwdSaved {
        norm1_saved,
        normed1,
        q,
        attn_saved,
        attn_concat,
        norm2_saved,
        normed2,
        gate_pre,
        gate_act,
        up,
    };
    (y, saved)
}

/// Output of one slice's input-gradient backward.
pub struct BackwardOut {
    /// Gradient w.r.t. the slice's layer input.
    pub dx: Tensor,
    /// Deferred weight-gradient GEMMs (7 per layer).
    pub wgrads: Vec<WgradGemm>,
    /// Immediate RMSNorm weight gradients `(d_norm1, d_norm2)`.
    pub dnorm1: Tensor,
    /// See `dnorm1`.
    pub dnorm2: Tensor,
}

/// Input-gradient backward of one slice, on `pool`, reading the
/// projections from `w`, `p`'s [`LayerPacks::input_grad`]. It consumes
/// the slice's saved activations: each deferred GEMM's input is moved
/// out of `saved`, and copied only for a second GEMM that shares it.
///
/// `dkv` holds per-layer dK/dV accumulators over the *whole* sample; it
/// must already contain the contributions of every later slice (slices
/// run in reverse order). This slice's own rows are consumed here.
pub fn backward_input_slice(
    pool: &KernelPool,
    p: &LayerParams,
    w: &LayerPacks,
    saved: LayerFwdSaved,
    kv: &Kv,
    dkv: &mut Kv,
    dy: &Tensor,
) -> BackwardOut {
    let t = dy.rows();
    let h = dy.cols();
    let offset = saved.attn_saved.offset;
    let k_all = kv.k.as_ref().expect("kv cache present");
    let v_all = kv.v.as_ref().expect("kv cache present");
    if dkv.is_empty() {
        // First (i.e. last-slice) backward allocates the accumulators for
        // the whole cached prefix.
        dkv.k = Some(Tensor::zeros(kv.len(), h));
        dkv.v = Some(Tensor::zeros(kv.len(), h));
    }

    let mut wgrads = Vec::with_capacity(7);

    // MLP backward.
    let d_mlp_act = matmul_packed_in(pool, dy, &w[WeightId::Wd]);
    let mut mlp_act = saved.gate_act.clone();
    for (a, b) in mlp_act.data_mut().iter_mut().zip(saved.up.data()) {
        *a *= b;
    }
    wgrads.push(WgradGemm {
        weight: WeightId::Wd,
        input: mlp_act,
        out_grad: dy.clone(),
    });
    let mut d_silu = d_mlp_act.clone();
    for (a, b) in d_silu.data_mut().iter_mut().zip(saved.up.data()) {
        *a *= b;
    }
    let d_gate_pre = silu_backward(&d_silu, &saved.gate_pre);
    let mut d_up = d_mlp_act;
    for (a, b) in d_up.data_mut().iter_mut().zip(saved.gate_act.data()) {
        *a *= b;
    }
    let mut d_normed2 = matmul_packed_in(pool, &d_gate_pre, &w[WeightId::Wg]);
    d_normed2.add_assign(&matmul_packed_in(pool, &d_up, &w[WeightId::Wu]));
    wgrads.push(WgradGemm {
        weight: WeightId::Wg,
        input: saved.normed2.clone(),
        out_grad: d_gate_pre,
    });
    wgrads.push(WgradGemm {
        weight: WeightId::Wu,
        input: saved.normed2,
        out_grad: d_up,
    });
    let (d_resid1_norm, dnorm2) =
        rmsnorm_backward_in(pool, &d_normed2, &p.norm2, &saved.norm2_saved);
    let mut d_resid1 = dy.clone();
    d_resid1.add_assign(&d_resid1_norm);

    // Attention output projection.
    let d_attn_concat = matmul_packed_in(pool, &d_resid1, &w[WeightId::Wo]);
    wgrads.push(WgradGemm {
        weight: WeightId::Wo,
        input: saved.attn_concat,
        out_grad: d_resid1.clone(),
    });

    // Attention backward over every head; accumulate prefix dK/dV.
    let (dq, dk, dv) = multi_head_attention_backward_in(
        pool,
        &d_attn_concat,
        &saved.q,
        k_all,
        v_all,
        &saved.attn_saved,
    );
    for (acc, d) in [(&mut dkv.k, &dk), (&mut dkv.v, &dv)] {
        let acc = acc.as_mut().expect("allocated above");
        for (a, b) in acc.data_mut().iter_mut().zip(d.data()) {
            *a += b;
        }
    }

    // This slice's own dK/dV rows are now complete.
    let dk_own = dkv.k.as_ref().expect("allocated").slice_rows(offset, t);
    let dv_own = dkv.v.as_ref().expect("allocated").slice_rows(offset, t);

    let mut d_normed1 = matmul_packed_in(pool, &dq, &w[WeightId::Wq]);
    d_normed1.add_assign(&matmul_packed_in(pool, &dk_own, &w[WeightId::Wk]));
    d_normed1.add_assign(&matmul_packed_in(pool, &dv_own, &w[WeightId::Wv]));
    wgrads.push(WgradGemm {
        weight: WeightId::Wq,
        input: saved.normed1.clone(),
        out_grad: dq,
    });
    wgrads.push(WgradGemm {
        weight: WeightId::Wk,
        input: saved.normed1.clone(),
        out_grad: dk_own,
    });
    wgrads.push(WgradGemm {
        weight: WeightId::Wv,
        input: saved.normed1,
        out_grad: dv_own,
    });

    let (d_x_norm, dnorm1) = rmsnorm_backward_in(pool, &d_normed1, &p.norm1, &saved.norm1_saved);
    let mut dx = d_resid1;
    dx.add_assign(&d_x_norm);

    BackwardOut {
        dx,
        wgrads,
        dnorm1,
        dnorm2,
    }
}

/// Executes deferred weight-gradient GEMMs on `pool`, each adding its
/// product straight into its weight's gradient in `grads`.
pub fn apply_wgrads(pool: &KernelPool, grads: &mut LayerParams, gemms: &[WgradGemm]) {
    for g in gemms {
        let target = match g.weight {
            WeightId::Wq => &mut grads.wq,
            WeightId::Wk => &mut grads.wk,
            WeightId::Wv => &mut grads.wv,
            WeightId::Wo => &mut grads.wo,
            WeightId::Wg => &mut grads.wg,
            WeightId::Wu => &mut grads.wu,
            WeightId::Wd => &mut grads.wd,
        };
        matmul_wgrad_acc_in(pool, &g.input, &g.out_grad, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_model::config::TransformerConfig;
    use mepipe_tensor::init::{rng, uniform};

    use crate::params::LayerParams as LP;

    fn setup() -> (LP, Tensor) {
        let cfg = TransformerConfig::tiny(1);
        let mut r = rng(71);
        let p = LP::init(&cfg, &mut r);
        let x = uniform(16, cfg.hidden, 1.0, &mut r);
        (p, x)
    }

    #[test]
    fn sliced_forward_equals_full_forward() {
        let (p, x) = setup();
        let fwd = LayerPacks::forward(&p);
        let pool = KernelPool::serial();
        let mut kv_full = Kv::default();
        let (y_full, _) = forward_slice(&pool, &p, &fwd, &x, &mut kv_full, 0, 4);
        let mut kv = Kv::default();
        let mut parts = Vec::new();
        for i in 0..4 {
            let xs = x.slice_rows(i * 4, 4);
            let (y, _) = forward_slice(&pool, &p, &fwd, &xs, &mut kv, i * 4, 4);
            parts.push(y);
        }
        let y_sliced = Tensor::vstack(&parts);
        assert!(
            y_full.max_abs_diff(&y_sliced) < 1e-4,
            "diff = {}",
            y_full.max_abs_diff(&y_sliced)
        );
    }

    #[test]
    fn sliced_backward_equals_full_backward() {
        let (p, x) = setup();
        let (fwd, dgrad) = (LayerPacks::forward(&p), LayerPacks::input_grad(&p));
        let pool = KernelPool::serial();
        let mut r = rng(72);
        let dy = uniform(16, x.cols(), 1.0, &mut r);

        // Full-sequence reference.
        let mut kv_f = Kv::default();
        let (_, saved_f) = forward_slice(&pool, &p, &fwd, &x, &mut kv_f, 0, 4);
        let mut dkv_f = Kv::default();
        let out_f = backward_input_slice(&pool, &p, &dgrad, saved_f, &kv_f, &mut dkv_f, &dy);
        let mut grads_f = p.zero_grads();
        apply_wgrads(&pool, &mut grads_f, &out_f.wgrads);

        // Sliced execution: forwards 0..4, backwards 3..0.
        let mut kv = Kv::default();
        let mut saves = Vec::new();
        for i in 0..4 {
            let xs = x.slice_rows(i * 4, 4);
            let (_, sv) = forward_slice(&pool, &p, &fwd, &xs, &mut kv, i * 4, 4);
            saves.push(sv);
        }
        let mut dkv = Kv::default();
        let mut grads_s = p.zero_grads();
        let mut dx_parts = vec![Tensor::zeros(0, 0); 4];
        for i in (0..4).rev() {
            let out = backward_input_slice(
                &pool,
                &p,
                &dgrad,
                saves[i].clone(),
                &kv,
                &mut dkv,
                &dy.slice_rows(i * 4, 4),
            );
            apply_wgrads(&pool, &mut grads_s, &out.wgrads);
            grads_s.norm1.add_assign(&out.dnorm1);
            grads_s.norm2.add_assign(&out.dnorm2);
            dx_parts[i] = out.dx;
        }
        // Fold reference norm grads in for comparison.
        grads_f.norm1.add_assign(&out_f.dnorm1);
        grads_f.norm2.add_assign(&out_f.dnorm2);

        let dx_sliced = Tensor::vstack(&dx_parts);
        assert!(
            out_f.dx.max_abs_diff(&dx_sliced) < 1e-3,
            "dx diff = {}",
            out_f.dx.max_abs_diff(&dx_sliced)
        );
        assert!(
            grads_f.max_abs_diff(&grads_s) < 1e-3,
            "grad diff = {}",
            grads_f.max_abs_diff(&grads_s)
        );
    }

    #[test]
    fn backward_produces_seven_deferred_gemms() {
        let (p, x) = setup();
        let (fwd, dgrad) = (LayerPacks::forward(&p), LayerPacks::input_grad(&p));
        let pool = KernelPool::serial();
        let mut kv = Kv::default();
        let (_, saved) = forward_slice(&pool, &p, &fwd, &x, &mut kv, 0, 4);
        let mut dkv = Kv::default();
        let out = backward_input_slice(
            &pool,
            &p,
            &dgrad,
            saved,
            &kv,
            &mut dkv,
            &Tensor::zeros(16, x.cols()),
        );
        assert_eq!(out.wgrads.len(), 7);
    }

    #[test]
    fn pooled_layer_matches_serial_layer_bitwise() {
        // Kernel-level parallelism must not perturb the layer math at all:
        // forward outputs and every gradient are bit-identical.
        let (p, x) = setup();
        let (fwd, dgrad) = (LayerPacks::forward(&p), LayerPacks::input_grad(&p));
        let serial = KernelPool::serial();
        let pooled = KernelPool::new(3);
        let mut r = rng(73);
        let dy = uniform(16, x.cols(), 1.0, &mut r);

        let run = |pool: &KernelPool| {
            let mut kv = Kv::default();
            let (y, saved) = forward_slice(pool, &p, &fwd, &x, &mut kv, 0, 4);
            let mut dkv = Kv::default();
            let out = backward_input_slice(pool, &p, &dgrad, saved, &kv, &mut dkv, &dy);
            let mut grads = p.zero_grads();
            apply_wgrads(pool, &mut grads, &out.wgrads);
            (y, out.dx, grads)
        };
        let (y_s, dx_s, g_s) = run(&serial);
        let (y_p, dx_p, g_p) = run(&pooled);
        assert_eq!(y_s.data(), y_p.data());
        assert_eq!(dx_s.data(), dx_p.data());
        assert!(g_s.max_abs_diff(&g_p) == 0.0);
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn wrong_offset_panics() {
        let (p, x) = setup();
        let mut kv = Kv::default();
        forward_slice(
            &KernelPool::serial(),
            &p,
            &LayerPacks::forward(&p),
            &x,
            &mut kv,
            3,
            4,
        );
    }
}
