//! In-memory checkpointing for fault tolerance (Section 9).
//!
//! The paper estimates hardware failures cost under 5% of a thousand-GPU
//! 4090 cluster's time, assuming memory-based checkpointing (MegaScale,
//! GEMINI) brings recovery down to minutes. This module supplies the
//! substrate: serialise the full model to a flat byte buffer (an
//! "in-memory checkpoint"), restore it bit-exactly, and verify that
//! training resumes on the identical trajectory.
//!
//! The format is a versioned magic header, the shape metadata plus
//! little-endian `f32` payload, and a trailing FNV-1a checksum over
//! everything before it. [`restore`] rejects corruption with a typed
//! [`CheckpointError`] *before* any tensor is built: a truncated or
//! bit-flipped buffer can never partially deserialize into a model. The
//! interesting policy questions (how often to checkpoint, what failures
//! cost) live in [`failure_overhead`] and [`optimal_interval`]; the
//! control plane (`mepipe-ctl`) composes both with [`merge_stage_parts`]
//! to rebuild one canonical model out of per-stage checkpoints when it
//! re-shards a job across a different stage count.

use mepipe_comm::frame::checksum;
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::ir::ScheduleMeta;
use mepipe_tensor::Tensor;

use crate::params::{LayerParams, ModelParams, Ownership};

/// Leading magic of every checkpoint: identifies the file type and pins
/// the format version (bump the trailing digit on layout changes).
pub const MAGIC: &[u8; 8] = b"MEPCKPT2";

/// Why a checkpoint buffer was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with [`MAGIC`] — not a checkpoint, or a
    /// version this build does not read.
    BadMagic,
    /// The buffer ends before the named section is complete.
    Truncated(&'static str),
    /// The trailing FNV checksum does not match the bytes before it —
    /// the payload was corrupted in memory or on the wire.
    Corrupt {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// Framing is intact but the contents are inconsistent (trailing
    /// bytes, impossible shapes).
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::Truncated(what) => write!(f, "truncated checkpoint: {what}"),
            CheckpointError::Corrupt { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serialises a model to an in-memory checkpoint.
///
/// # Examples
///
/// ```
/// use mepipe_model::config::TransformerConfig;
/// use mepipe_train::{checkpoint, params::ModelParams};
///
/// let model = ModelParams::init(TransformerConfig::tiny(2), 7);
/// let bytes = checkpoint::save(&model);
/// let restored = checkpoint::restore(&bytes).unwrap();
/// assert_eq!(restored.embedding, model.embedding);
/// ```
pub fn save(model: &ModelParams) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let push_usize = |out: &mut Vec<u8>, v: usize| out.extend((v as u64).to_le_bytes());
    push_usize(&mut out, model.cfg.hidden);
    push_usize(&mut out, model.cfg.layers);
    push_usize(&mut out, model.cfg.ffn_hidden);
    push_usize(&mut out, model.cfg.heads);
    push_usize(&mut out, model.cfg.kv_heads);
    push_usize(&mut out, model.cfg.vocab);
    push_usize(&mut out, model.cfg.seq_len);
    let push_tensor = |out: &mut Vec<u8>, t: &Tensor| {
        out.extend((t.rows() as u64).to_le_bytes());
        out.extend((t.cols() as u64).to_le_bytes());
        for &v in t.data() {
            out.extend(v.to_le_bytes());
        }
    };
    push_tensor(&mut out, &model.embedding);
    for l in &model.layers {
        for t in [
            &l.wq, &l.wk, &l.wv, &l.wo, &l.wg, &l.wu, &l.wd, &l.norm1, &l.norm2,
        ] {
            push_tensor(&mut out, t);
        }
    }
    push_tensor(&mut out, &model.final_norm);
    push_tensor(&mut out, &model.head);
    let sum = checksum(&out);
    out.extend(sum.to_le_bytes());
    out
}

/// Restores a model from a checkpoint produced by [`save`].
///
/// The magic header and trailing checksum are verified before any
/// payload byte is interpreted, so corrupt or truncated buffers are
/// rejected whole — never partially deserialized.
///
/// # Errors
///
/// Returns a [`CheckpointError`] naming what was wrong with the buffer.
pub fn restore(bytes: &[u8]) -> Result<ModelParams, CheckpointError> {
    // Frame checks first: magic, then the checksum over everything
    // before the 8-byte trailer.
    let Some(head) = bytes.get(..MAGIC.len()) else {
        return Err(CheckpointError::Truncated("magic"));
    };
    if head != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 8 {
        return Err(CheckpointError::Truncated("checksum trailer"));
    }
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8-byte trailer"));
    let computed = checksum(&bytes[..body_end]);
    if stored != computed {
        return Err(CheckpointError::Corrupt { stored, computed });
    }
    let bytes = &bytes[..body_end];

    let mut pos = MAGIC.len();
    let mut read_u64 = |bytes: &[u8]| -> Result<usize, CheckpointError> {
        let end = pos + 8;
        let chunk: [u8; 8] = bytes
            .get(pos..end)
            .ok_or(CheckpointError::Truncated("header field"))?
            .try_into()
            .expect("8-byte slice");
        pos = end;
        Ok(u64::from_le_bytes(chunk) as usize)
    };
    let hidden = read_u64(bytes)?;
    let layers = read_u64(bytes)?;
    let ffn_hidden = read_u64(bytes)?;
    let heads = read_u64(bytes)?;
    let kv_heads = read_u64(bytes)?;
    let vocab = read_u64(bytes)?;
    let seq_len = read_u64(bytes)?;
    let cfg = TransformerConfig {
        hidden,
        layers,
        ffn_hidden,
        heads,
        kv_heads,
        vocab,
        seq_len,
    };

    let read_tensor = |bytes: &[u8], pos: &mut usize| -> Result<Tensor, CheckpointError> {
        let mut dim = || -> Result<usize, CheckpointError> {
            let chunk: [u8; 8] = bytes
                .get(*pos..*pos + 8)
                .ok_or(CheckpointError::Truncated("tensor header"))?
                .try_into()
                .expect("8-byte slice");
            *pos += 8;
            Ok(u64::from_le_bytes(chunk) as usize)
        };
        let rows = dim()?;
        let cols = dim()?;
        // Bound the element count by the bytes actually present before
        // allocating, so an absurd header can never trigger a huge
        // allocation (the checksum already makes this unreachable in
        // practice; this keeps the parser safe standalone).
        let elems = rows
            .checked_mul(cols)
            .ok_or_else(|| CheckpointError::Malformed("tensor shape overflows".into()))?;
        let need = elems
            .checked_mul(4)
            .ok_or_else(|| CheckpointError::Malformed("tensor bytes overflow".into()))?;
        let data_bytes = bytes
            .get(*pos..*pos + need)
            .ok_or(CheckpointError::Truncated("tensor data"))?;
        *pos += need;
        let data = data_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        Ok(Tensor::from_vec(rows, cols, data))
    };

    let embedding = read_tensor(bytes, &mut pos)?;
    let mut layer_params = Vec::with_capacity(layers);
    for _ in 0..layers {
        let wq = read_tensor(bytes, &mut pos)?;
        let wk = read_tensor(bytes, &mut pos)?;
        let wv = read_tensor(bytes, &mut pos)?;
        let wo = read_tensor(bytes, &mut pos)?;
        let wg = read_tensor(bytes, &mut pos)?;
        let wu = read_tensor(bytes, &mut pos)?;
        let wd = read_tensor(bytes, &mut pos)?;
        let norm1 = read_tensor(bytes, &mut pos)?;
        let norm2 = read_tensor(bytes, &mut pos)?;
        layer_params.push(LayerParams {
            wq,
            wk,
            wv,
            wo,
            wg,
            wu,
            wd,
            norm1,
            norm2,
        });
    }
    let final_norm = read_tensor(bytes, &mut pos)?;
    let head = read_tensor(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes in checkpoint",
            bytes.len() - pos
        )));
    }
    Ok(ModelParams {
        cfg,
        embedding,
        layers: layer_params,
        final_norm,
        head,
    })
}

/// Rebuilds one canonical model from per-stage checkpoints.
///
/// In a multi-process gang every stage steps only the parameters it
/// owns under the gang's schedule ([`Ownership`]: the layers of the
/// blocks its chunks compute, the embedding on a stage that runs chain
/// position 0, the final norm and head on one that runs the last) —
/// all other tensors in its checkpoint are stale. Merging takes each
/// tensor from its owner, yielding the full model state the gang
/// collectively reached, which is what a re-shard to a *different*
/// stage count must restore from. A tensor several stages own
/// (DualPipe's mirrored blocks, its two end stages) comes from the
/// lowest-numbered one.
///
/// `parts[i]` must be stage `i`'s checkpointed model (same config,
/// same iteration) of a gang that ran a schedule shaped like `meta`.
///
/// # Errors
///
/// Returns [`CheckpointError::Malformed`] when the parts disagree on
/// the config, the list is empty, its length is not the schedule's
/// stage count, or the layers don't divide into the schedule's model
/// blocks.
pub fn merge_stage_parts(
    parts: &[ModelParams],
    meta: &ScheduleMeta,
) -> Result<ModelParams, CheckpointError> {
    let first = parts
        .first()
        .ok_or_else(|| CheckpointError::Malformed("no stage parts to merge".into()))?;
    let cfg = first.cfg;
    for (i, part) in parts.iter().enumerate() {
        if part.cfg != cfg {
            return Err(CheckpointError::Malformed(format!(
                "stage {i} config disagrees with stage 0"
            )));
        }
    }
    if parts.len() != meta.stages {
        return Err(CheckpointError::Malformed(format!(
            "{} stage parts for a {}-stage schedule",
            parts.len(),
            meta.stages
        )));
    }
    if cfg.layers % meta.model_blocks() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} layers not divisible into {} model blocks",
            cfg.layers,
            meta.model_blocks()
        )));
    }
    let owners = Ownership::new(meta, cfg.layers);
    let from = |stages: &[usize]| &parts[stages[0]];
    Ok(ModelParams {
        cfg,
        embedding: from(owners.embedding()).embedding.clone(),
        layers: (0..cfg.layers)
            .map(|l| from(owners.layer(l)).layers[l].clone())
            .collect(),
        final_norm: from(owners.head()).final_norm.clone(),
        head: from(owners.head()).head.clone(),
    })
}

/// Expected fraction of cluster time lost to failures under periodic
/// checkpointing (first-order Young/Daly accounting):
///
/// * checkpoint overhead: `checkpoint_cost / interval`;
/// * per failure, half an interval of lost work plus the recovery time,
///   at a failure rate of `1 / mtbf`.
pub fn failure_overhead(
    mtbf_secs: f64,
    checkpoint_cost_secs: f64,
    recovery_secs: f64,
    interval_secs: f64,
) -> f64 {
    checkpoint_cost_secs / interval_secs + (interval_secs / 2.0 + recovery_secs) / mtbf_secs
}

/// Young's optimal checkpoint interval: `sqrt(2 · cost · MTBF)`.
pub fn optimal_interval(mtbf_secs: f64, checkpoint_cost_secs: f64) -> f64 {
    (2.0 * checkpoint_cost_secs * mtbf_secs).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use crate::reference::forward_backward;
    use mepipe_tensor::init::synthetic_tokens;

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let cfg = TransformerConfig::tiny(2);
        let model = ModelParams::init(cfg, 31);
        let bytes = save(&model);
        let back = restore(&bytes).unwrap();
        assert_eq!(back.cfg, model.cfg);
        assert_eq!(back.embedding, model.embedding);
        assert_eq!(back.layers[1].wd, model.layers[1].wd);
        assert_eq!(back.head, model.head);
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let model = ModelParams::init(TransformerConfig::tiny(1), 1);
        let bytes = save(&model);
        assert!(restore(&bytes[..bytes.len() - 3]).is_err());
        assert!(restore(&bytes[..10]).is_err());
        assert!(restore(&bytes[..3]).is_err());
        assert!(restore(&[]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(restore(&extra).is_err());
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let model = ModelParams::init(TransformerConfig::tiny(1), 5);
        let bytes = save(&model);
        // Wrong magic: not a checkpoint at all.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert!(matches!(
            restore(&wrong_magic),
            Err(CheckpointError::BadMagic)
        ));
        // Any payload bit flip: checksum catches it before parsing.
        let mut flipped = bytes.clone();
        let mid = bytes.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            restore(&flipped),
            Err(CheckpointError::Corrupt { .. })
        ));
        // A flipped trailer bit is also a checksum mismatch.
        let mut bad_trailer = bytes.clone();
        let last = bytes.len() - 1;
        bad_trailer[last] ^= 1;
        assert!(matches!(
            restore(&bad_trailer),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn training_resumes_on_the_same_trajectory() {
        // Train 2 steps, checkpoint, train 2 more; versus restore at the
        // checkpoint and replay the last 2 — identical weights.
        let cfg = TransformerConfig::tiny(2);
        let mut a = ModelParams::init(cfg, 77);
        let step = |m: &mut ModelParams, seed: u64| {
            let toks = synthetic_tokens(cfg.seq_len + 1, cfg.vocab, seed);
            let out = forward_backward(m, &toks);
            Sgd { lr: 0.1 }.step_model(m, &out.grads);
        };
        step(&mut a, 1);
        step(&mut a, 2);
        let ckpt = save(&a);
        step(&mut a, 3);
        step(&mut a, 4);

        let mut b = restore(&ckpt).unwrap();
        step(&mut b, 3);
        step(&mut b, 4);
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.layers[0].wq, b.layers[0].wq);
        assert_eq!(a.head, b.head);
    }

    /// The parts of a `p`-stage gang over `cfg` whose stage `s` owns
    /// `layers[s]`, plus the embedding on `embed` and the final norm and
    /// head on `loss`: every stage starts from the shared init, writes
    /// its stage number into what it owns and a stale value into the
    /// rest — the multi-process update pattern.
    fn gang_parts(
        cfg: TransformerConfig,
        layers: &[&[usize]],
        embed: usize,
        loss: usize,
    ) -> Vec<ModelParams> {
        let base = ModelParams::init(cfg, 9);
        (0..layers.len())
            .map(|stage| {
                let mark = |own: bool| if own { 100.0 + stage as f32 } else { -1.0 };
                let mut m = base.clone();
                for (l, lp) in m.layers.iter_mut().enumerate() {
                    lp.wq.data_mut()[0] = mark(layers[stage].contains(&l));
                }
                m.embedding.data_mut()[0] = mark(stage == embed);
                m.final_norm.data_mut()[0] = mark(stage == loss);
                m.head.data_mut()[0] = mark(stage == loss);
                m
            })
            .collect()
    }

    /// Merges `parts` under `schedule` and checks every tensor came
    /// from the stage the gang's layout says owns it.
    fn assert_merged_from_owners(
        schedule: &mepipe_schedule::ir::Schedule,
        parts: &[ModelParams],
        layers: &[&[usize]],
        embed: usize,
        loss: usize,
    ) {
        let merged = merge_stage_parts(parts, &schedule.meta).unwrap();
        let mark = |stage: usize| 100.0 + stage as f32;
        assert_eq!(merged.embedding.data()[0], mark(embed));
        assert_eq!(merged.final_norm.data()[0], mark(loss));
        assert_eq!(merged.head.data()[0], mark(loss));
        for (stage, own) in layers.iter().enumerate() {
            for &l in *own {
                assert_eq!(merged.layers[l].wq.data()[0], mark(stage), "layer {l}");
            }
        }
        // Untouched tensors come through bit-identical to the base.
        assert_eq!(merged.layers[0].wd, parts[0].layers[0].wd);
    }

    #[test]
    fn merge_takes_each_tensor_from_its_owner() {
        use mepipe_core::svpp::Mepipe;
        use mepipe_schedule::generator::{Dims, ScheduleGenerator};
        // MEPipe at v = 1: contiguous halves, embedding first, head last.
        let schedule = Mepipe::new().generate(&Dims::new(2, 2)).unwrap();
        let layers: [&[usize]; 2] = [&[0, 1], &[2, 3]];
        let parts = gang_parts(TransformerConfig::tiny(4), &layers, 0, 1);
        assert_merged_from_owners(&schedule, &parts, &layers, 0, 1);
    }

    #[test]
    fn merge_follows_interleaved_and_v_shape_placements() {
        use mepipe_core::svpp::Mepipe;
        use mepipe_schedule::generator::{Dims, ScheduleGenerator, Zbv};
        let cfg = TransformerConfig::tiny(4);
        // Interleaved, p = 2, v = 2: stage w's chunk c is block c·2 + w,
        // so stage 0 holds layers 0 and 2 and the loss sits on stage 1.
        let interleaved = Mepipe::new()
            .generate(&Dims::new(2, 4).virtual_chunks(2).slices(2))
            .unwrap();
        let layers: [&[usize]; 2] = [&[0, 2], &[1, 3]];
        let parts = gang_parts(cfg, &layers, 0, 1);
        assert_merged_from_owners(&interleaved, &parts, &layers, 0, 1);
        // ZBV's V: stage 0 holds the first and the last block, so it
        // both embeds and computes the loss.
        let zbv = Zbv.generate(&Dims::new(2, 4).virtual_chunks(2)).unwrap();
        let layers: [&[usize]; 2] = [&[0, 3], &[1, 2]];
        let parts = gang_parts(cfg, &layers, 0, 0);
        assert_merged_from_owners(&zbv, &parts, &layers, 0, 0);
    }

    #[test]
    fn merge_rejects_inconsistent_parts() {
        use mepipe_core::svpp::Mepipe;
        use mepipe_schedule::generator::{Dims, ScheduleGenerator};
        let two = Mepipe::new().generate(&Dims::new(2, 2)).unwrap().meta;
        let three = Mepipe::new().generate(&Dims::new(3, 3)).unwrap().meta;
        let a = ModelParams::init(TransformerConfig::tiny(2), 1);
        let b = ModelParams::init(TransformerConfig::tiny(4), 1);
        assert!(merge_stage_parts(&[], &two).is_err());
        assert!(merge_stage_parts(&[a.clone(), b], &two).is_err());
        // Two parts cannot be a three-stage gang.
        assert!(merge_stage_parts(&[a.clone(), a.clone()], &three).is_err());
        // 2 layers across 3 stages cannot divide.
        let c = ModelParams::init(TransformerConfig::tiny(2), 2);
        let d = ModelParams::init(TransformerConfig::tiny(2), 3);
        assert!(merge_stage_parts(&[a, c, d], &three).is_err());
    }

    #[test]
    fn paper_failure_estimate_holds() {
        // Section 9: MTBF ~12h for 1000 A100s; a 1000-GPU 4090 cluster at
        // similar rates with minute-scale in-memory recovery should lose
        // <5%. Checkpoint cost ~10s (in-memory copy), recovery ~3 min.
        let mtbf = 12.0 * 3600.0;
        let ckpt_cost = 10.0;
        let recovery = 180.0;
        let interval = optimal_interval(mtbf, ckpt_cost);
        let overhead = failure_overhead(mtbf, ckpt_cost, recovery, interval);
        assert!(overhead < 0.05, "overhead {overhead}");
        assert!(overhead > 0.001, "suspiciously free: {overhead}");
    }

    #[test]
    fn optimal_interval_minimises_overhead() {
        let mtbf = 12.0 * 3600.0;
        let cost = 10.0;
        let best = optimal_interval(mtbf, cost);
        let at = |i: f64| failure_overhead(mtbf, cost, 180.0, i);
        assert!(at(best) <= at(best * 2.0));
        assert!(at(best) <= at(best / 2.0));
    }
}
