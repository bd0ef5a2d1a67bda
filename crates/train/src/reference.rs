//! Single-device reference execution — the ground truth the pipeline
//! runtime is checked against.

use mepipe_tensor::{
    ops::{
        cross_entropy_in, embedding, embedding_backward, matmul_dgrad_in, matmul_in,
        matmul_wgrad_acc_in, rmsnorm_backward_in, rmsnorm_in,
    },
    KernelPool, Tensor, TensorArena,
};

use crate::{
    layer::{apply_wgrads, backward_input_slice, forward_slice, Kv, LayerPacks},
    optim::ModelGrads,
    params::ModelParams,
};

/// Loss and gradients of one full forward/backward over one sample.
pub struct ReferenceOut {
    /// Mean next-token cross-entropy over the sample.
    pub loss: f64,
    /// Full-model gradients.
    pub grads: ModelGrads,
}

/// Runs one sample (`tokens[..n]` predicting `tokens[1..=n]`) through the
/// whole model on one device, full sequence, and returns loss + grads
/// (single-threaded kernels).
///
/// # Panics
///
/// Panics if `tokens.len() < 2`.
pub fn forward_backward(model: &ModelParams, tokens: &[usize]) -> ReferenceOut {
    forward_backward_in(KernelPool::shared_serial(), model, tokens)
}

/// [`forward_backward`] with the tensor kernels on `pool`. The pool only
/// parallelises inside kernels — results are bit-identical to the serial
/// run.
///
/// # Panics
///
/// Panics if `tokens.len() < 2`.
pub fn forward_backward_in(
    pool: &KernelPool,
    model: &ModelParams,
    tokens: &[usize],
) -> ReferenceOut {
    assert!(tokens.len() >= 2, "need at least two tokens");
    let t = tokens.len() - 1;
    let inputs = &tokens[..t];
    let targets = &tokens[1..];
    let heads = model.cfg.heads;

    let mut grads = ModelGrads::zeros(model);

    // Forward.
    let x0 = embedding(&model.embedding, inputs, 0);
    let mut x = x0;
    let mut kvs: Vec<Kv> = (0..model.layers.len()).map(|_| Kv::default()).collect();
    let mut saves = Vec::with_capacity(model.layers.len());
    for (li, lp) in model.layers.iter().enumerate() {
        let w = LayerPacks::forward(lp);
        let (y, sv) = forward_slice(pool, lp, &w, &x, &mut kvs[li], 0, heads);
        saves.push(sv);
        x = y;
    }
    let (normed, norm_saved) = rmsnorm_in(pool, &x, &model.final_norm);
    let logits = matmul_in(pool, &normed, &model.head);
    let ce = cross_entropy_in(pool, &logits, targets);
    let loss = ce.loss_sum / t as f64;

    // Backward. Loss gradient is already d(loss_sum); scale to mean.
    let mut dlogits = ce.dlogits;
    dlogits.scale(1.0 / t as f32);
    matmul_wgrad_acc_in(pool, &normed, &dlogits, &mut grads.head);
    let d_normed = matmul_dgrad_in(pool, &dlogits, &model.head);
    let (mut dy, d_final_norm) =
        rmsnorm_backward_in(pool, &d_normed, &model.final_norm, &norm_saved);
    grads.final_norm.add_assign(&d_final_norm);

    for li in (0..model.layers.len()).rev() {
        let lp = &model.layers[li];
        let w = LayerPacks::input_grad(lp);
        let mut dkv = Kv::default();
        let saved = saves.pop().expect("one save per layer");
        let out = backward_input_slice(pool, lp, &w, saved, &kvs[li], &mut dkv, &dy);
        apply_wgrads(pool, &mut grads.layers[li], &out.wgrads);
        grads.layers[li].norm1.add_assign(&out.dnorm1);
        grads.layers[li].norm2.add_assign(&out.dnorm2);
        dy = out.dx;
    }
    grads
        .embedding
        .add_assign(&embedding_backward(&dy, inputs, model.cfg.vocab));

    ReferenceOut { loss, grads }
}

/// Runs a batch of samples, averaging losses and accumulating gradients
/// scaled by `1/batch` (the convention the pipeline runtime follows).
pub fn batch_forward_backward(model: &ModelParams, batch: &[Vec<usize>]) -> ReferenceOut {
    batch_forward_backward_in(KernelPool::shared_serial(), model, batch)
}

/// [`batch_forward_backward`] with the tensor kernels on `pool`.
pub fn batch_forward_backward_in(
    pool: &KernelPool,
    model: &ModelParams,
    batch: &[Vec<usize>],
) -> ReferenceOut {
    assert!(!batch.is_empty(), "empty batch");
    // Per-sample activations have identical shapes across the batch, so a
    // local arena recycles every buffer from the second sample on. The
    // returned gradients are plain owned tensors — they outlive the scope.
    let mut arena = TensorArena::new();
    let _arena_scope = arena.install();
    let mut total = ModelGrads::zeros(model);
    let mut loss = 0.0;
    for sample in batch {
        let out = forward_backward_in(pool, model, sample);
        loss += out.loss;
        add_grads(&mut total, &out.grads, 1.0 / batch.len() as f32);
    }
    ReferenceOut {
        loss: loss / batch.len() as f64,
        grads: total,
    }
}

/// `acc += scale * g` over a full gradient set.
pub fn add_grads(acc: &mut ModelGrads, g: &ModelGrads, scale: f32) {
    let scaled_add = |a: &mut Tensor, b: &Tensor| {
        for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
            *x += scale * y;
        }
    };
    scaled_add(&mut acc.embedding, &g.embedding);
    for (al, gl) in acc.layers.iter_mut().zip(&g.layers) {
        scaled_add(&mut al.wq, &gl.wq);
        scaled_add(&mut al.wk, &gl.wk);
        scaled_add(&mut al.wv, &gl.wv);
        scaled_add(&mut al.wo, &gl.wo);
        scaled_add(&mut al.wg, &gl.wg);
        scaled_add(&mut al.wu, &gl.wu);
        scaled_add(&mut al.wd, &gl.wd);
        scaled_add(&mut al.norm1, &gl.norm1);
        scaled_add(&mut al.norm2, &gl.norm2);
    }
    scaled_add(&mut acc.final_norm, &g.final_norm);
    scaled_add(&mut acc.head, &g.head);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_model::config::TransformerConfig;
    use mepipe_tensor::init::synthetic_tokens;

    #[test]
    fn loss_starts_near_log_vocab() {
        let cfg = TransformerConfig::tiny(2);
        let model = ModelParams::init(cfg, 3);
        let toks = synthetic_tokens(17, cfg.vocab, 5);
        let out = forward_backward(&model, &toks);
        let lv = (cfg.vocab as f64).ln();
        assert!(
            (out.loss - lv).abs() < 1.0,
            "initial loss {} far from ln(vocab) = {lv}",
            out.loss
        );
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let cfg = TransformerConfig::tiny(2);
        let mut model = ModelParams::init(cfg, 3);
        let toks = synthetic_tokens(17, cfg.vocab, 5);
        let before = forward_backward(&model, &toks);
        crate::optim::Sgd { lr: 0.2 }.step_model(&mut model, &before.grads);
        let after = forward_backward(&model, &toks);
        assert!(
            after.loss < before.loss,
            "{} !< {}",
            after.loss,
            before.loss
        );
    }

    #[test]
    fn pooled_reference_is_bit_identical_to_serial() {
        let cfg = TransformerConfig::tiny(2);
        let model = ModelParams::init(cfg, 3);
        let toks = synthetic_tokens(17, cfg.vocab, 5);
        let serial = forward_backward(&model, &toks);
        let pooled = forward_backward_in(&KernelPool::new(3), &model, &toks);
        assert_eq!(serial.loss.to_bits(), pooled.loss.to_bits());
        assert!(serial.grads.max_abs_diff(&pooled.grads) == 0.0);
    }

    #[test]
    fn batch_grads_average_samples() {
        let cfg = TransformerConfig::tiny(1);
        let model = ModelParams::init(cfg, 3);
        let a = synthetic_tokens(9, cfg.vocab, 1);
        let b = synthetic_tokens(9, cfg.vocab, 2);
        let ga = forward_backward(&model, &a);
        let gb = forward_backward(&model, &b);
        let batch = batch_forward_backward(&model, &[a, b]);
        let mut manual = ModelGrads::zeros(&model);
        add_grads(&mut manual, &ga.grads, 0.5);
        add_grads(&mut manual, &gb.grads, 0.5);
        assert!(batch.grads.max_abs_diff(&manual) < 1e-5);
    }
}
