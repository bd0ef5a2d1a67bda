//! Figures 7, 11 and 12: fine-grained weight-gradient computation.
//!
//! Figure 7 is the concept (imbalanced slices, W GEMMs filling waits);
//! Figures 11/12 are measured per-stage timelines for Llama-13B at GBS 64
//! without and with the technique. The paper reports a 9.4% improvement.

use mepipe_core::svpp::Mepipe;
use mepipe_hw::topology::ClusterSpec;
use mepipe_model::{
    config::TransformerConfig,
    cost::ExecutionCost,
    partition::{PartitionSpec, SequenceSplit},
};
use mepipe_schedule::exec::{simulate, Cost, SimConfig};
use mepipe_schedule::generator::{Dims, ScheduleGenerator};
use mepipe_sim::{timeline::render_strips, ModelCost};
use mepipe_trace::bubble;

use crate::report::ExperimentReport;

/// Figure 7: the mechanism on a synthetic imbalanced pipeline (slice 0
/// forward = 75% of slice 1, as in the paper's illustration).
pub fn fig7() -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        "fig7",
        "Fine-grained weight-gradient computation, p=4, s=2, v=1, n=4 (imbalanced slices)",
    );
    struct Imbalanced;
    impl Cost for Imbalanced {
        fn duration(&self, _s: usize, op: mepipe_schedule::ir::Op) -> f64 {
            let scale = if op.slice == 0 { 0.75 } else { 1.0 };
            match op.kind {
                mepipe_schedule::ir::OpKind::Forward => scale,
                mepipe_schedule::ir::OpKind::BackwardInput => scale,
                mepipe_schedule::ir::OpKind::Backward => scale + 0.75,
                mepipe_schedule::ir::OpKind::BackwardWeight => 0.75,
            }
        }
        fn transfer_time(&self, _f: usize, _t: usize) -> f64 {
            0.05
        }
        fn wgrad_time(&self, _s: usize, _o: mepipe_schedule::ir::Op) -> f64 {
            0.75
        }
        fn wgrad_units(&self) -> usize {
            7
        }
        fn activation_bytes(&self) -> f64 {
            1.0
        }
        fn deferred_bytes(&self) -> f64 {
            0.5
        }
    }
    let sch = Mepipe::new().generate(&Dims::new(4, 4).slices(2)).unwrap();
    for (tag, dynamic) in [
        ("(a) W immediately after B", false),
        ("(b) W drained into waits", true),
    ] {
        let r = simulate(
            &sch,
            &Imbalanced,
            &SimConfig {
                dynamic_wgrad: dynamic,
                ..Default::default()
            },
        )
        .unwrap();
        rep.line(format!("--- {tag}: makespan {:.2} ---", r.makespan));
        rep.line(render_strips(&r.trace, r.makespan, 96));
        rep.line(bubble::attribute(&r.trace).render());
        rep.row(
            tag,
            &[("makespan", r.makespan), ("bubble", r.bubble_ratio())],
        );
    }
    rep
}

/// Figures 11/12: measured stage timelines for the 13B GBS-64 MEPipe
/// configuration, w/o and w/ fine-grained weight gradients.
pub fn run() -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        "fig11_12",
        "Per-stage timelines, Llama-13B GBS 64, MEPipe (8, 4, 1) — w/o vs w/ fine-grained W",
    );
    let model = TransformerConfig::llama2_13b();
    let spec = PartitionSpec {
        pp: 8,
        vp: 1,
        dp: 8,
        seq: SequenceSplit::SlicePipeline { slices: 4 },
        recompute: false,
        micro_batch_size: 1,
        global_batch: 64,
    };
    let cost =
        ModelCost::new(ExecutionCost::new(model, spec, &ClusterSpec::rtx4090_cluster()).unwrap());
    let sch = Mepipe::new()
        .generate(&Dims::new(8, spec.micro_batches()).slices(4))
        .unwrap();

    let mut times = Vec::new();
    for (fig, tag, dynamic) in [
        ("Figure 11", "w/o fine-grained W", false),
        ("Figure 12", "w/ fine-grained W", true),
    ] {
        let r = simulate(
            &sch,
            &cost,
            &SimConfig {
                dynamic_wgrad: dynamic,
                ..Default::default()
            },
        )
        .unwrap();
        rep.line(format!(
            "--- {fig} ({tag}): iteration {:.0} ms, bubble {:.1}% ---",
            r.iteration_time * 1e3,
            r.bubble_ratio() * 100.0
        ));
        rep.line(render_strips(&r.trace, r.makespan, 100));
        rep.line(bubble::attribute(&r.trace).render());
        rep.row(
            tag,
            &[
                ("iter_ms", r.iteration_time * 1e3),
                ("bubble", r.bubble_ratio()),
            ],
        );
        times.push(r.iteration_time);
    }
    let improvement = (times[0] - times[1]) / times[0] * 100.0;
    rep.line(format!(
        "Fine-grained weight-gradient computation improvement: {improvement:.1}% (paper: 9.4%)"
    ));
    rep.row("improvement", &[("percent", improvement)]);
    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn fine_grained_w_improves_iteration_time() {
        let rep = super::run();
        let imp = rep
            .rows
            .iter()
            .find(|(l, _)| l == "improvement")
            .map(|(_, v)| v[0].1)
            .unwrap();
        assert!(
            (0.5..30.0).contains(&imp),
            "improvement {imp}% out of the plausible band around the paper's 9.4%"
        );
    }

    #[test]
    fn fig7_dynamic_beats_static_on_imbalanced_slices() {
        let rep = super::fig7();
        let m = |l: &str| {
            rep.rows
                .iter()
                .find(|(ll, _)| ll.starts_with(l))
                .map(|(_, v)| v[0].1)
                .unwrap()
        };
        assert!(
            m("(b)") <= m("(a)"),
            "dynamic {} vs static {}",
            m("(b)"),
            m("(a)")
        );
    }
}
