//! A bit-level fingerprint of the training math: three SGD steps at
//! `train-inproc`'s and `job-uds`' shapes under each [`WgradMode`],
//! hashed with FNV-1a over every step's loss bits and every gradient
//! tensor. Both shapes run MEPipe (one chunk per stage); `job-uds`'
//! shape also runs interleaved MEPipe (`v = 2`), ZBV and DualPipe, so
//! multi-chunk stages, V-shaped placement and the gradients several
//! stages own are fingerprinted too. Two builds that print the same
//! `digest` lines compute the same losses and gradients bit for bit, so
//! a kernel or runtime change that must not move a bit is checked by
//! running `experiments digest` on both trees and diffing those lines.
//! Digests are comparable only between builds for the same target
//! features (FMA or not).

use mepipe_core::svpp::Mepipe;
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::generator::{Dims, ScheduleGenerator, Zbv};
use mepipe_schedule::ir::Schedule;
use mepipe_schedule::DualPipe;
use mepipe_tensor::Tensor;
use mepipe_train::data::batch_for_iter;
use mepipe_train::optim::ModelGrads;
use mepipe_train::params::ModelParams;
use mepipe_train::{PipelineRuntime, WgradMode};

use crate::report::ExperimentReport;

/// SGD steps per case.
const STEPS: usize = 3;
/// Model and data seed.
const SEED: u64 = 1;

/// One case: a training shape (perfbench's workload of the same name)
/// under one schedule.
struct Case {
    name: &'static str,
    cfg: TransformerConfig,
    micro_batches: usize,
    lr: f32,
    schedule: Schedule,
}

fn cases() -> Vec<Case> {
    let train = TransformerConfig {
        seq_len: 128,
        hidden: 256,
        ffn_hidden: 512,
        ..TransformerConfig::tiny(4)
    };
    let job = TransformerConfig {
        seq_len: 64,
        ..TransformerConfig::tiny(4)
    };
    // Both workloads: 2 stages, 4 micro-batches.
    let dims = Dims::new(2, 4);
    let case = |name, cfg, lr, schedule| Case {
        name,
        cfg,
        micro_batches: dims.n,
        lr,
        schedule,
    };
    let mepipe = Mepipe::new()
        .generate(&dims.slices(4))
        .expect("MEPipe schedule for the digest shape");
    vec![
        case("train-inproc", train, 0.02, mepipe.clone()),
        case("job-uds", job, 0.1, mepipe),
        case(
            "job-uds/v2",
            job,
            0.1,
            Mepipe::new()
                .generate(&dims.virtual_chunks(2).slices(4))
                .expect("interleaved MEPipe schedule for the digest shape"),
        ),
        case(
            "job-uds/zbv",
            job,
            0.1,
            Zbv.generate(&dims.virtual_chunks(2))
                .expect("ZBV schedule for the digest shape"),
        ),
        case(
            "job-uds/dualpipe",
            job,
            0.1,
            DualPipe::new()
                .generate(&dims.virtual_chunks(2).slices(4))
                .expect("DualPipe schedule for the digest shape"),
        ),
    ]
}

/// 64-bit FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        for x in t.data() {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn grads(&mut self, g: &ModelGrads) {
        self.tensor(&g.embedding);
        for l in &g.layers {
            for t in [
                &l.wq, &l.wk, &l.wv, &l.wo, &l.wg, &l.wu, &l.wd, &l.norm1, &l.norm2,
            ] {
                self.tensor(t);
            }
        }
        self.tensor(&g.final_norm);
        self.tensor(&g.head);
    }
}

/// Runs the experiment.
pub fn run() -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        "digest",
        "FNV-1a digest of 3 SGD steps' loss bits and gradients, per shape and W mode",
    );
    for shape in cases() {
        let meta = &shape.schedule.meta;
        for mode in [
            WgradMode::Immediate,
            WgradMode::AtWeightOp,
            WgradMode::DrainOnWait,
        ] {
            let mut rt = PipelineRuntime::new(
                ModelParams::init(shape.cfg, SEED),
                meta.stages,
                meta.virtual_chunks,
            );
            let mut h = Fnv::new();
            let mut losses = Vec::with_capacity(STEPS);
            for step in 0..STEPS {
                let batch = batch_for_iter(&shape.cfg, shape.micro_batches, SEED, step);
                let stats = rt
                    .train_step(&shape.schedule, &batch, mode, shape.lr)
                    .expect("in-process train step");
                h.bytes(&stats.loss.to_bits().to_le_bytes());
                h.grads(&stats.grads);
                losses.push(stats.loss);
            }
            let mode_name = format!("{mode:?}");
            rep.line(format!(
                "digest {:<12} {mode_name:<11} {:016x}  losses {}",
                shape.name,
                h.0,
                losses
                    .iter()
                    .map(|l| format!("{l:.9}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
            let values: Vec<(String, f64)> = losses
                .iter()
                .enumerate()
                .map(|(i, &l)| (format!("loss{i}"), l))
                .collect();
            let values: Vec<(&str, f64)> = values.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            rep.row(&format!("{}/{mode_name}", shape.name), &values);
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::Fnv;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
