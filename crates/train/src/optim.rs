//! Optimizers: plain SGD and Adam.

use mepipe_tensor::Tensor;

use crate::params::{LayerParams, ModelParams, Ownership};

/// Plain SGD: `w ← w − lr · g`.
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Applies one step to a tensor.
    pub fn step_tensor(&self, w: &mut Tensor, g: &Tensor) {
        for (a, b) in w.data_mut().iter_mut().zip(g.data()) {
            *a -= self.lr * b;
        }
    }

    /// Applies one step to a layer.
    pub fn step_layer(&self, p: &mut LayerParams, g: &LayerParams) {
        p.for_each_with(g, |w, gr| {
            for (a, b) in w.data_mut().iter_mut().zip(gr.data()) {
                *a -= self.lr * b;
            }
        });
    }

    /// Applies one step to the full model given grads of the same shape.
    pub fn step_model(&self, m: &mut ModelParams, g: &ModelGrads) {
        self.step_tensor(&mut m.embedding, &g.embedding);
        for (lp, lg) in m.layers.iter_mut().zip(&g.layers) {
            self.step_layer(lp, lg);
        }
        self.step_tensor(&mut m.final_norm, &g.final_norm);
        self.step_tensor(&mut m.head, &g.head);
    }

    /// Applies one step to the parameters `g` covers, leaving the rest of
    /// the model alone — a pipeline stage stepping its own shard.
    pub fn step_shard(&self, m: &mut ModelParams, g: &GradShard) {
        if let Some(e) = &g.embedding {
            self.step_tensor(&mut m.embedding, e);
        }
        for (lp, lg) in m.layers.iter_mut().zip(&g.layers) {
            if let Some(lg) = lg {
                self.step_layer(lp, lg);
            }
        }
        if let Some(n) = &g.final_norm {
            self.step_tensor(&mut m.final_norm, n);
        }
        if let Some(h) = &g.head {
            self.step_tensor(&mut m.head, h);
        }
    }
}

/// Adam state and step for one tensor collection (kept simple: one `m`/`v`
/// pair per tensor, bias correction included).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Epsilon.
    pub eps: f32,
    step: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Fresh Adam state for `num_tensors` parameter tensors.
    pub fn new(lr: f32, num_tensors: usize) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: vec![Vec::new(); num_tensors],
            v: vec![Vec::new(); num_tensors],
        }
    }

    /// Advances the shared step counter (call once per iteration, before
    /// the per-tensor updates).
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Updates tensor `idx` with gradient `g`.
    ///
    /// # Panics
    ///
    /// Panics if `begin_step` was never called or `idx` is out of range.
    pub fn step_tensor(&mut self, idx: usize, w: &mut Tensor, g: &Tensor) {
        assert!(self.step > 0, "call begin_step first");
        let m = &mut self.m[idx];
        let v = &mut self.v[idx];
        if m.is_empty() {
            m.resize(w.len(), 0.0);
            v.resize(w.len(), 0.0);
        }
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for ((wv, gv), (mv, vv)) in w
            .data_mut()
            .iter_mut()
            .zip(g.data())
            .zip(m.iter_mut().zip(v.iter_mut()))
        {
            *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
            *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
            let mhat = *mv / bc1;
            let vhat = *vv / bc2;
            *wv -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Gradients matching a [`ModelParams`] layout.
#[derive(Debug, Clone)]
pub struct ModelGrads {
    /// Embedding gradient.
    pub embedding: Tensor,
    /// Per-layer gradients.
    pub layers: Vec<LayerParams>,
    /// Final-norm gradient.
    pub final_norm: Tensor,
    /// Head gradient.
    pub head: Tensor,
}

impl ModelGrads {
    /// Zeroed gradients for a model.
    pub fn zeros(model: &ModelParams) -> Self {
        Self {
            embedding: Tensor::zeros(model.embedding.rows(), model.embedding.cols()),
            layers: model.layers.iter().map(LayerParams::zero_grads).collect(),
            final_norm: Tensor::zeros(1, model.final_norm.cols()),
            head: Tensor::zeros(model.head.rows(), model.head.cols()),
        }
    }

    /// Scales every gradient in place — e.g. the `1/replicas` averaging
    /// step of data parallelism.
    pub fn scale(&mut self, s: f32) {
        self.embedding.scale(s);
        for l in &mut self.layers {
            l.for_each(|t| t.scale(s));
        }
        self.final_norm.scale(s);
        self.head.scale(s);
    }

    /// Maximum absolute difference to another gradient set.
    pub fn max_abs_diff(&self, other: &ModelGrads) -> f32 {
        let mut d = self.embedding.max_abs_diff(&other.embedding);
        for (a, b) in self.layers.iter().zip(&other.layers) {
            d = d.max(a.max_abs_diff(b));
        }
        d = d.max(self.final_norm.max_abs_diff(&other.final_norm));
        d.max(self.head.max_abs_diff(&other.head))
    }
}

/// The gradient accumulators of the parameters one pipeline stage owns
/// under an [`Ownership`] map, laid out like [`ModelGrads`] with `None`
/// wherever the stage owns nothing.
#[derive(Debug)]
pub struct GradShard {
    /// Embedding gradient, on a stage that runs chain position 0.
    pub embedding: Option<Tensor>,
    /// Per-layer gradients, `Some` for the stage's own layers.
    pub layers: Vec<Option<LayerParams>>,
    /// Final-norm gradient, on a stage that runs the last chain position.
    pub final_norm: Option<Tensor>,
    /// Head gradient, with the final norm.
    pub head: Option<Tensor>,
}

impl GradShard {
    /// Zeroed accumulators for what `stage` owns in `model`.
    ///
    /// # Panics
    ///
    /// Panics if `owners` covers a different layer count than `model`.
    pub fn zeros(model: &ModelParams, owners: &Ownership, stage: usize) -> Self {
        assert_eq!(
            owners.num_layers(),
            model.layers.len(),
            "ownership layer count"
        );
        let zeros = |t: &Tensor| Tensor::zeros(t.rows(), t.cols());
        let head_stage = owners.head().contains(&stage);
        Self {
            embedding: owners
                .embedding()
                .contains(&stage)
                .then(|| zeros(&model.embedding)),
            layers: model
                .layers
                .iter()
                .enumerate()
                .map(|(l, lp)| owners.layer(l).contains(&stage).then(|| lp.zero_grads()))
                .collect(),
            final_norm: head_stage.then(|| zeros(&model.final_norm)),
            head: head_stage.then(|| zeros(&model.head)),
        }
    }

    /// Layer `l`'s accumulators.
    ///
    /// # Panics
    ///
    /// Panics if the stage does not own layer `l`.
    pub fn layer_mut(&mut self, l: usize) -> &mut LayerParams {
        self.layers[l].as_mut().expect("stage owns the layer")
    }

    /// Full-model gradients from every stage's shard, in stage order:
    /// each tensor is moved out of its one owner, and added in stage
    /// order only where several stages own it (DualPipe's mirrored
    /// blocks and its two end stages). Accumulators start at `+0.0` and
    /// only ever have values added, so they never hold `−0.0`, and a
    /// move has the bits of the `0 + g` a zeroed full-model sum makes.
    ///
    /// # Panics
    ///
    /// Panics if some tensor has no owner among `shards`.
    pub fn merge(mut shards: Vec<GradShard>) -> ModelGrads {
        fn sum<T>(mut owned: impl Iterator<Item = T>, add: fn(&mut T, &T), what: &str) -> T {
            let mut acc = owned
                .next()
                .unwrap_or_else(|| panic!("no stage owns {what}"));
            for t in owned {
                add(&mut acc, &t);
            }
            acc
        }
        let layers = shards.first().map_or(0, |s| s.layers.len());
        ModelGrads {
            embedding: sum(
                shards.iter_mut().filter_map(|s| s.embedding.take()),
                Tensor::add_assign,
                "the embedding",
            ),
            layers: (0..layers)
                .map(|l| {
                    sum(
                        shards.iter_mut().filter_map(|s| s.layers[l].take()),
                        LayerParams::add_assign,
                        "a layer",
                    )
                })
                .collect(),
            final_norm: sum(
                shards.iter_mut().filter_map(|s| s.final_norm.take()),
                Tensor::add_assign,
                "the final norm",
            ),
            head: sum(
                shards.iter_mut().filter_map(|s| s.head.take()),
                Tensor::add_assign,
                "the head",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_model::config::TransformerConfig;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut w = Tensor::from_vec(1, 2, vec![1.0, -1.0]);
        let g = Tensor::from_vec(1, 2, vec![0.5, -0.5]);
        Sgd { lr: 0.1 }.step_tensor(&mut w, &g);
        assert_eq!(w.data(), &[0.95, -0.95]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise (w - 3)^2 with Adam.
        let mut w = Tensor::from_vec(1, 1, vec![0.0]);
        let mut adam = Adam::new(0.1, 1);
        for _ in 0..500 {
            adam.begin_step();
            let g = Tensor::from_vec(1, 1, vec![2.0 * (w.at(0, 0) - 3.0)]);
            adam.step_tensor(0, &mut w, &g);
        }
        assert!((w.at(0, 0) - 3.0).abs() < 0.05, "w = {}", w.at(0, 0));
    }

    #[test]
    fn shards_cover_their_owners_merge_and_step_alone() {
        use mepipe_core::svpp::Mepipe;
        use mepipe_schedule::generator::{Dims, ScheduleGenerator};
        use mepipe_schedule::DualPipe;
        let m = ModelParams::init(TransformerConfig::tiny(2), 1);
        let fill = |shard: &mut GradShard, v: f32| {
            let mut set = |t: &mut Tensor| t.data_mut().fill(v);
            shard.embedding.as_mut().map(&mut set);
            for l in shard.layers.iter_mut().flatten() {
                l.for_each(&mut set);
            }
            shard.final_norm.as_mut().map(&mut set);
            shard.head.as_mut().map(&mut set);
        };
        // MEPipe, 2 stages: one owner per tensor, so the merge moves.
        let meta = Mepipe::new().generate(&Dims::new(2, 2)).unwrap().meta;
        let owners = Ownership::new(&meta, 2);
        let mut shards: Vec<GradShard> = (0..2).map(|w| GradShard::zeros(&m, &owners, w)).collect();
        assert!(shards[0].embedding.is_some() && shards[0].head.is_none());
        assert!(shards[1].embedding.is_none() && shards[1].head.is_some());
        assert!(shards[0].layers[0].is_some() && shards[0].layers[1].is_none());
        fill(&mut shards[0], 1.0);
        fill(&mut shards[1], 2.0);
        // A stage's step leaves what it does not own untouched.
        let mut stepped = m.clone();
        Sgd { lr: 0.5 }.step_shard(&mut stepped, &shards[0]);
        assert_ne!(stepped.layers[0].wq, m.layers[0].wq);
        assert_eq!(stepped.layers[1].wq, m.layers[1].wq);
        assert_eq!(stepped.head, m.head);
        let merged = GradShard::merge(shards);
        assert_eq!(merged.embedding.data()[0], 1.0);
        assert_eq!(merged.layers[1].wd.data()[0], 2.0);
        assert_eq!(merged.head.data()[0], 2.0);
        // DualPipe, 2 stages: both stages own everything; the merge adds.
        let meta = DualPipe::new()
            .generate(&Dims::new(2, 2).virtual_chunks(2))
            .unwrap()
            .meta;
        let owners = Ownership::new(&meta, 2);
        let mut shards: Vec<GradShard> = (0..2).map(|w| GradShard::zeros(&m, &owners, w)).collect();
        fill(&mut shards[0], 1.0);
        fill(&mut shards[1], 2.0);
        let merged = GradShard::merge(shards);
        assert_eq!(merged.embedding.data()[0], 3.0);
        assert_eq!(merged.layers[0].norm1.data()[0], 3.0);
        assert_eq!(merged.head.data()[0], 3.0);
    }

    #[test]
    #[should_panic(expected = "no stage owns a layer")]
    fn merging_without_an_owner_panics() {
        use mepipe_core::svpp::Mepipe;
        use mepipe_schedule::generator::{Dims, ScheduleGenerator};
        let m = ModelParams::init(TransformerConfig::tiny(2), 1);
        let meta = Mepipe::new().generate(&Dims::new(2, 2)).unwrap().meta;
        // Stage 0's shard alone: layer 1 and the head live on stage 1.
        GradShard::merge(vec![GradShard::zeros(&m, &Ownership::new(&meta, 2), 0)]);
    }

    #[test]
    fn model_grads_shapes_match() {
        let m = ModelParams::init(TransformerConfig::tiny(2), 1);
        let g = ModelGrads::zeros(&m);
        assert_eq!(g.layers.len(), 2);
        assert_eq!(g.head.rows(), m.head.rows());
        assert_eq!(g.max_abs_diff(&ModelGrads::zeros(&m)), 0.0);
    }
}
