//! Bit-level fingerprints of the training math and of schedule
//! construction, one FNV-1a `digest` line each. Two builds that print the
//! same lines compute the same bits, so a change that must not move a bit
//! is checked by running `experiments digest` on both trees and diffing
//! the lines.
//!
//! * **Training math**: three SGD steps at `train-inproc`'s and
//!   `job-uds`' shapes under each [`WgradMode`], hashed over every step's
//!   loss bits and every gradient tensor. Both shapes run MEPipe (one
//!   chunk per stage); `job-uds`' shape also runs interleaved MEPipe
//!   (`v = 2`), ZBV and DualPipe, so multi-chunk stages, V-shaped
//!   placement and the gradients several stages own are fingerprinted
//!   too. Digests are comparable only between builds for the same target
//!   features (FMA or not).
//! * **The order solver**: `Synth::synthesize`'s lists, warmup and
//!   statistics over a shape/cap grid (one line per stage count) and at
//!   the Synth candidates of the planner's GBS-128 queries (Llama-13B's
//!   two, and 7B's and 34B's at p 16 and 32).
//! * **The timing engine**: `simulate`'s scalars and every span for each
//!   zoo generator over small shapes, under unit and model costs, with
//!   static, dynamic-W and memory-capped configurations (one line per
//!   generator).

use mepipe_core::svpp::Mepipe;
use mepipe_core::{Svpp, Synth};
use mepipe_hw::topology::ClusterSpec;
use mepipe_model::config::TransformerConfig;
use mepipe_model::cost::ExecutionCost;
use mepipe_model::partition::{PartitionSpec, SequenceSplit};
use mepipe_schedule::exec::{simulate, Cost, SimConfig, SimResult, UnitCost};
use mepipe_schedule::generator::{
    Dapple, Dims, GPipe, Hanayo, ScheduleGenerator, TeraPipe, Vpp, Zb, Zbv,
};
use mepipe_schedule::ir::Schedule;
use mepipe_schedule::{Blocks, DualPipe};
use mepipe_sim::ModelCost;
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

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn schedule(&mut self, s: &Schedule) {
        for ops in &s.workers {
            self.u64(ops.len() as u64);
            for op in ops {
                for x in [op.kind as usize, op.micro_batch, op.slice, op.chunk] {
                    self.u64(x as u64);
                }
            }
        }
    }

    /// One synthesis: the error it returned, or its lists, warmup and
    /// every statistic.
    fn synthesis(&mut self, dims: &Dims, cap: Option<usize>) {
        let solver = match cap {
            Some(c) => Synth::new().cap(c),
            None => Synth::new(),
        };
        match solver.synthesize(dims) {
            Err(e) => self.bytes(e.to_string().as_bytes()),
            Ok(syn) => {
                self.schedule(&syn.schedule);
                let st = syn.stats;
                for x in [
                    syn.warmup,
                    st.seeds_tried,
                    st.nodes_expanded,
                    st.nodes_pruned,
                    usize::from(st.improved),
                ] {
                    self.u64(x as u64);
                }
                for x in [st.seed_makespan, st.makespan, st.floor] {
                    self.f64(x);
                }
            }
        }
    }

    /// One simulation: the error it returned, or its scalars and every
    /// span of its trace.
    fn simulation(&mut self, result: &Result<SimResult, String>) {
        let r = match result {
            Err(e) => return self.bytes(e.as_bytes()),
            Ok(r) => r,
        };
        for x in [r.makespan, r.iteration_time] {
            self.f64(x);
        }
        for &x in r.busy.iter().chain(&r.peak_activation_bytes) {
            self.f64(x);
        }
        match r.oom {
            None => self.u64(u64::MAX),
            Some((stage, bytes)) => {
                self.u64(stage as u64);
                self.f64(bytes);
            }
        }
        for stage in &r.trace.stages {
            self.u64(stage.spans.len() as u64);
            for sp in &stage.spans {
                for x in [
                    sp.kind as u64,
                    sp.mb.into(),
                    sp.slice.into(),
                    sp.chunk.into(),
                ] {
                    self.u64(x);
                }
                for x in [sp.peer.into(), sp.start_ns, sp.end_ns] {
                    self.u64(x);
                }
            }
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

/// The order solver over p 1–8, v 1–2, s 1–4, n ∈ {p, 2p, 16} and five
/// unit caps (none, the `v·s` floor, one above it, twice it and `p` above
/// it): 120 cases per stage count, one line each. Then, one line each,
/// the Synth candidates of the planner's GBS-128 queries with the caps
/// the planner gives them: Llama-13B's two, and Llama-7B's and 34B's at
/// p 16 and 32, where the seed sweep is longest.
fn solver_lines(rep: &mut ExperimentReport) {
    for p in 1..=8 {
        let mut h = Fnv::new();
        let mut cases = 0;
        for v in 1..=2 {
            for s in 1..=4 {
                for n in [p, 2 * p, 16] {
                    let floor = v * s;
                    for cap in [
                        None,
                        Some(floor),
                        Some(floor + 1),
                        Some(2 * floor),
                        Some(floor + p),
                    ] {
                        h.synthesis(&Dims::new(p, n).virtual_chunks(v).slices(s), cap);
                        cases += 1;
                    }
                }
            }
        }
        rep.line(format!(
            "digest {:<24} {:016x}  {cases} cases",
            format!("solver/p{p}"),
            h.0
        ));
    }
    for (dims, cap, query) in [
        (Dims::new(8, 16).slices(2), 9, "13B@128"),
        (Dims::new(8, 16).slices(4), 19, "13B@128"),
        (Dims::new(32, 64).slices(2), 85, "7B@128"),
        (Dims::new(32, 64).slices(4), 172, "7B@128"),
        (Dims::new(16, 32).slices(2), 41, "7B@128"),
        (Dims::new(16, 32).slices(4), 83, "7B@128"),
        (Dims::new(16, 32).slices(1), 2, "34B@128"),
        (Dims::new(16, 32).slices(2), 5, "34B@128"),
        (Dims::new(16, 32).slices(4), 12, "34B@128"),
        (Dims::new(16, 32).slices(8), 24, "34B@128"),
    ] {
        let mut h = Fnv::new();
        h.synthesis(&dims, Some(cap));
        rep.line(format!(
            "digest {:<24} {:016x}  {query}",
            format!("solver/{dims}/cap{cap}"),
            h.0
        ));
    }
}

/// The model cost of Llama-7B on the RTX 4090 cluster at `dims`, with
/// MEPipe's per-GEMM and zero-bubble's whole-op weight granularity, where
/// the partition divides.
fn model_costs(dims: &Dims) -> Vec<ModelCost> {
    let cluster = ClusterSpec::rtx4090_cluster();
    let devices = cluster.num_devices();
    if !devices.is_multiple_of(dims.p) {
        return Vec::new();
    }
    let dp = devices / dims.p;
    let spec = PartitionSpec {
        pp: dims.p,
        vp: dims.v,
        dp,
        seq: SequenceSplit::SlicePipeline { slices: dims.s },
        recompute: false,
        micro_batch_size: 1,
        global_batch: dims.n * dp,
    };
    match ExecutionCost::new(TransformerConfig::llama2_7b(), spec, &cluster) {
        Ok(ec) => vec![ModelCost::new(ec.clone()), ModelCost::new_coarse(ec)],
        Err(_) => Vec::new(),
    }
}

/// Every zoo generator with the dims it needs at a `(p, n, s)` grid
/// point: interleaved generators get `v = 2`. Listed here rather than
/// shared with the `zoo` smoke so that this file alone can be copied into
/// another tree to compare digests.
fn zoo(p: usize, n: usize, s: usize) -> Vec<(Box<dyn ScheduleGenerator>, Dims)> {
    let flat = Dims::new(p, n);
    vec![
        (Box::new(GPipe) as Box<dyn ScheduleGenerator>, flat),
        (Box::new(Dapple), flat),
        (Box::new(Zb), flat),
        (Box::new(Vpp), flat.virtual_chunks(2)),
        (Box::new(Hanayo), flat.virtual_chunks(2)),
        (Box::new(Zbv), flat.virtual_chunks(2)),
        (Box::new(TeraPipe), flat.slices(s)),
        (Box::new(Svpp::new()), flat.slices(s)),
        (Box::new(Mepipe::new()), flat.slices(s)),
        (Box::new(DualPipe::new()), flat.virtual_chunks(2).slices(s)),
        (Box::new(Blocks::uniform()), flat.slices(s)),
        (Box::new(Synth::new()), flat.slices(s)),
    ]
}

/// The timing engine over every zoo generator at p 1–4, n ∈ {2, 4, 8},
/// s ∈ {1, 2, 4}, one line per generator. Each schedule runs under three
/// unit costs and, where the partition divides, Llama-7B's fine and
/// coarse model costs, each static, with dynamic W, memory-capped at 0.7×
/// its static peak, and both (no dynamic W for the 1F/2B unit cost,
/// whose zero weight time the queue rejects).
fn engine_lines(rep: &mut ExperimentReport) {
    let names: Vec<&str> = zoo(1, 1, 1).iter().map(|(g, _)| g.name()).collect();
    let mut hashes: Vec<(Fnv, usize)> = names.iter().map(|_| (Fnv::new(), 0)).collect();
    for p in 1..=4 {
        for n in [2, 4, 8] {
            for s in [1, 2, 4] {
                for ((g, dims), (h, results)) in zoo(p, n, s).into_iter().zip(&mut hashes) {
                    let sched = match g.generate(&dims) {
                        Ok(sched) => sched,
                        Err(e) => {
                            h.bytes(e.to_string().as_bytes());
                            *results += 1;
                            continue;
                        }
                    };
                    let units = [
                        UnitCost::default(),
                        UnitCost {
                            comm: 0.3,
                            wgrad_units: 3,
                            ..UnitCost::default()
                        },
                        UnitCost::one_two(),
                    ];
                    let models = model_costs(&dims);
                    let costs = units
                        .iter()
                        .map(|c| c as &dyn Cost)
                        .chain(models.iter().map(|c| c as &dyn Cost));
                    for cost in costs {
                        let stat = simulate(&sched, cost, &SimConfig::default());
                        let cap = stat
                            .as_ref()
                            .map(|r| {
                                0.7 * r.peak_activation_bytes.iter().copied().fold(0.0, f64::max)
                            })
                            .unwrap_or(1.0);
                        h.simulation(&stat);
                        *results += 1;
                        for (dynamic_wgrad, memory_limit_bytes) in
                            [(true, None), (false, Some(cap)), (true, Some(cap))]
                        {
                            if dynamic_wgrad && cost.wgrad_time(0, sched.workers[0][0]) <= 0.0 {
                                continue;
                            }
                            let config = SimConfig {
                                dynamic_wgrad,
                                memory_limit_bytes,
                            };
                            h.simulation(&simulate(&sched, cost, &config));
                            *results += 1;
                        }
                    }
                }
            }
        }
    }
    for (name, (h, results)) in names.iter().zip(hashes) {
        rep.line(format!(
            "digest {:<24} {:016x}  {results} results",
            format!("engine/{name}"),
            h.0
        ));
    }
}

/// Runs the experiment.
pub fn run() -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        "digest",
        "FNV-1a digests: 3 SGD steps' losses and gradients per shape and W mode; \
         the order solver over a shape/cap grid; the timing engine over the zoo",
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
    solver_lines(&mut rep);
    engine_lines(&mut rep);
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
