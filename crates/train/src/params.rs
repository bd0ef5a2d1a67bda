//! Model parameters, gradients and their partitioning into chunks and
//! across stages ([`Ownership`]).

use mepipe_model::config::TransformerConfig;
use mepipe_schedule::ir::ScheduleMeta;
use mepipe_tensor::{init, Tensor};
use rand::rngs::StdRng;

/// Weights of one decoder layer.
#[derive(Debug, Clone)]
pub struct LayerParams {
    /// Query projection `[h, h]`.
    pub wq: Tensor,
    /// Key projection `[h, h]`.
    pub wk: Tensor,
    /// Value projection `[h, h]`.
    pub wv: Tensor,
    /// Output projection `[h, h]`.
    pub wo: Tensor,
    /// SwiGLU gate `[h, ffn]`.
    pub wg: Tensor,
    /// SwiGLU up `[h, ffn]`.
    pub wu: Tensor,
    /// SwiGLU down `[ffn, h]`.
    pub wd: Tensor,
    /// Pre-attention RMSNorm weight `[1, h]`.
    pub norm1: Tensor,
    /// Pre-MLP RMSNorm weight `[1, h]`.
    pub norm2: Tensor,
}

impl LayerParams {
    /// Xavier-initialised layer.
    pub fn init(cfg: &TransformerConfig, rng: &mut StdRng) -> Self {
        let h = cfg.hidden;
        let f = cfg.ffn_hidden;
        Self {
            wq: init::xavier(h, h, rng),
            wk: init::xavier(h, h, rng),
            wv: init::xavier(h, h, rng),
            wo: init::xavier(h, h, rng),
            wg: init::xavier(h, f, rng),
            wu: init::xavier(h, f, rng),
            wd: init::xavier(f, h, rng),
            norm1: Tensor::from_vec(1, h, vec![1.0; h]),
            norm2: Tensor::from_vec(1, h, vec![1.0; h]),
        }
    }

    /// Zeroed gradients of the same shapes.
    pub fn zero_grads(&self) -> LayerParams {
        LayerParams {
            wq: Tensor::zeros(self.wq.rows(), self.wq.cols()),
            wk: Tensor::zeros(self.wk.rows(), self.wk.cols()),
            wv: Tensor::zeros(self.wv.rows(), self.wv.cols()),
            wo: Tensor::zeros(self.wo.rows(), self.wo.cols()),
            wg: Tensor::zeros(self.wg.rows(), self.wg.cols()),
            wu: Tensor::zeros(self.wu.rows(), self.wu.cols()),
            wd: Tensor::zeros(self.wd.rows(), self.wd.cols()),
            norm1: Tensor::zeros(1, self.norm1.cols()),
            norm2: Tensor::zeros(1, self.norm2.cols()),
        }
    }

    /// Applies `f` to every weight tensor.
    pub fn for_each(&mut self, mut f: impl FnMut(&mut Tensor)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
        f(&mut self.wo);
        f(&mut self.wg);
        f(&mut self.wu);
        f(&mut self.wd);
        f(&mut self.norm1);
        f(&mut self.norm2);
    }

    /// Applies `f` to every (weight, gradient) pair.
    pub fn for_each_with(&mut self, grads: &LayerParams, mut f: impl FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.wq, &grads.wq);
        f(&mut self.wk, &grads.wk);
        f(&mut self.wv, &grads.wv);
        f(&mut self.wo, &grads.wo);
        f(&mut self.wg, &grads.wg);
        f(&mut self.wu, &grads.wu);
        f(&mut self.wd, &grads.wd);
        f(&mut self.norm1, &grads.norm1);
        f(&mut self.norm2, &grads.norm2);
    }

    /// Element-wise `self += other` over every tensor.
    pub fn add_assign(&mut self, other: &LayerParams) {
        self.for_each_with(other, Tensor::add_assign);
    }

    /// Maximum absolute difference across all weights.
    pub fn max_abs_diff(&self, other: &LayerParams) -> f32 {
        [
            self.wq.max_abs_diff(&other.wq),
            self.wk.max_abs_diff(&other.wk),
            self.wv.max_abs_diff(&other.wv),
            self.wo.max_abs_diff(&other.wo),
            self.wg.max_abs_diff(&other.wg),
            self.wu.max_abs_diff(&other.wu),
            self.wd.max_abs_diff(&other.wd),
            self.norm1.max_abs_diff(&other.norm1),
            self.norm2.max_abs_diff(&other.norm2),
        ]
        .into_iter()
        .fold(0.0, f32::max)
    }
}

/// The full model: embedding, decoder layers, final norm, output head.
#[derive(Debug, Clone)]
pub struct ModelParams {
    /// Architecture.
    pub cfg: TransformerConfig,
    /// Token embedding `[vocab, h]`.
    pub embedding: Tensor,
    /// Decoder layers.
    pub layers: Vec<LayerParams>,
    /// Final RMSNorm `[1, h]`.
    pub final_norm: Tensor,
    /// Output head `[h, vocab]`.
    pub head: Tensor,
}

impl ModelParams {
    /// Deterministically initialised model.
    pub fn init(cfg: TransformerConfig, seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let layers = (0..cfg.layers)
            .map(|_| LayerParams::init(&cfg, &mut rng))
            .collect();
        Self {
            embedding: init::uniform(cfg.vocab, cfg.hidden, 0.05, &mut rng),
            layers,
            final_norm: Tensor::from_vec(1, cfg.hidden, vec![1.0; cfg.hidden]),
            head: init::xavier(cfg.hidden, cfg.vocab, &mut rng),
            cfg,
        }
    }

    /// Layer index range `[start, end)` of global chunk `g` when the model
    /// is split into `total_chunks` equal chunks.
    ///
    /// # Panics
    ///
    /// Panics if layers don't divide evenly.
    pub fn chunk_layer_range(&self, g: usize, total_chunks: usize) -> (usize, usize) {
        assert_eq!(
            self.cfg.layers % total_chunks,
            0,
            "{} layers not divisible into {total_chunks} chunks",
            self.cfg.layers
        );
        let per = self.cfg.layers / total_chunks;
        (g * per, (g + 1) * per)
    }
}

/// Which pipeline stages own each parameter tensor under one schedule's
/// placement: the one map the runtime allocates gradients by, merges
/// them by and checkpoints are merged by.
///
/// A stage owns the layers of every model block it computes
/// ([`ScheduleMeta::block_of`] for each of its chunks), the embedding
/// if it runs chain position 0 for some micro-batch, and the final norm
/// and head if it runs the last one. Every parameter has exactly one
/// owner except under DualPipe's bidirectional placement, where mirror
/// stages `w` and `p − 1 − w` both hold blocks `w` and `p − 1 − w`, and
/// both end stages embed and compute a loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ownership {
    /// Owning stages of each layer, ascending.
    layers: Vec<Vec<usize>>,
    /// Stages that run chain position 0, ascending.
    embedding: Vec<usize>,
    /// Stages that run the last chain position, ascending.
    head: Vec<usize>,
}

impl Ownership {
    /// The map for a `layers`-layer model under `meta`'s placement.
    ///
    /// # Panics
    ///
    /// Panics if the layers do not divide evenly into the schedule's
    /// model blocks.
    pub fn new(meta: &ScheduleMeta, layers: usize) -> Self {
        let blocks = meta.model_blocks();
        assert_eq!(
            layers % blocks,
            0,
            "{layers} layers not divisible into {blocks} model blocks"
        );
        let per = layers / blocks;
        let mut owners = vec![Vec::new(); layers];
        for stage in 0..meta.stages {
            for chunk in 0..meta.virtual_chunks {
                let b = meta.block_of(stage, chunk);
                for o in &mut owners[b * per..(b + 1) * per] {
                    if o.last() != Some(&stage) {
                        o.push(stage);
                    }
                }
            }
        }
        let runs = |g: usize| {
            let mut stages: Vec<usize> = (0..meta.micro_batches)
                .map(|mb| meta.chain_stage_chunk(mb, g).0)
                .collect();
            stages.sort_unstable();
            stages.dedup();
            stages
        };
        Self {
            layers: owners,
            embedding: runs(0),
            head: runs(meta.last_chain_pos()),
        }
    }

    /// Number of layers the map covers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Stages owning layer `l`, ascending.
    pub fn layer(&self, l: usize) -> &[usize] {
        &self.layers[l]
    }

    /// Stages owning the embedding, ascending.
    pub fn embedding(&self) -> &[usize] {
        &self.embedding
    }

    /// Stages owning the final norm and the head, ascending.
    pub fn head(&self) -> &[usize] {
        &self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_deterministic() {
        let cfg = TransformerConfig::tiny(4);
        let a = ModelParams::init(cfg, 9);
        let b = ModelParams::init(cfg, 9);
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.layers[3].wd, b.layers[3].wd);
        let c = ModelParams::init(cfg, 10);
        assert!(a.embedding.max_abs_diff(&c.embedding) > 0.0);
    }

    #[test]
    fn chunk_ranges_tile_the_model() {
        let m = ModelParams::init(TransformerConfig::tiny(8), 1);
        let mut covered = [false; 8];
        for g in 0..4 {
            let (a, b) = m.chunk_layer_range(g, 4);
            for slot in covered.iter_mut().take(b).skip(a) {
                assert!(!*slot);
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&x| x));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn uneven_chunks_panic() {
        let m = ModelParams::init(TransformerConfig::tiny(6), 1);
        m.chunk_layer_range(0, 4);
    }

    #[test]
    fn grad_buffers_match_shapes() {
        let cfg = TransformerConfig::tiny(2);
        let m = ModelParams::init(cfg, 1);
        let g = m.layers[0].zero_grads();
        assert_eq!(g.wq.rows(), cfg.hidden);
        assert_eq!(g.wd.rows(), cfg.ffn_hidden);
        assert_eq!(g.norm1.cols(), cfg.hidden);
    }
}
