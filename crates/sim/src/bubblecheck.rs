//! Measured-vs-simulated timeline validation.
//!
//! [`commcheck`](crate::commcheck) closes the loop on transfer times;
//! this module closes it on whole timelines. Given a measured
//! [`IterationTrace`] from the real runtime and the [`SimResult`] the
//! simulator predicted for the same schedule, it lines the two up per
//! `(stage, op kind)` — forward, backward, weight-gradient, drain — and
//! reports measured/modeled time ratios, per-stage busy/idle deltas, and
//! the makespan gap. A per-kind ratio far from 1 localises cost-model
//! error to one op class on one stage; a good per-kind fit with a bad
//! makespan fit points at scheduling or communication instead — exactly
//! the split the paper's profile-predict-execute loop needs.

use mepipe_trace::{bubble, IterationTrace};

use mepipe_schedule::exec::{SegmentKind, SimResult};

/// Measured vs modeled time for one op kind on one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpKindCheck {
    /// Pipeline stage.
    pub stage: usize,
    /// Op-kind letter (`F`/`B`/`b`/`W`/`w`, as in timeline strips).
    pub letter: char,
    /// Measured spans of this kind.
    pub measured_count: u64,
    /// Simulated segments of this kind.
    pub modeled_count: u64,
    /// Total measured seconds.
    pub measured_s: f64,
    /// Total simulated seconds.
    pub modeled_s: f64,
}

impl OpKindCheck {
    /// measured / modeled; `NaN` when the model predicts zero time.
    pub fn ratio(&self) -> f64 {
        self.measured_s / self.modeled_s
    }
}

/// Per-stage busy/idle comparison over the two makespans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCheck {
    /// Pipeline stage.
    pub stage: usize,
    /// Measured compute seconds (from the trace's spans).
    pub measured_busy_s: f64,
    /// Simulated compute seconds.
    pub modeled_busy_s: f64,
    /// Measured idle seconds over the measured window.
    pub measured_idle_s: f64,
    /// Simulated idle seconds over the simulated makespan.
    pub modeled_idle_s: f64,
}

/// Whole-iteration measured-vs-simulated comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BubbleCheckReport {
    /// One row per `(stage, op kind)` with time on either side.
    pub ops: Vec<OpKindCheck>,
    /// One row per stage present in both trace and simulation.
    pub stages: Vec<StageCheck>,
    /// Measured analysis window (first to last compute), seconds.
    pub measured_makespan_s: f64,
    /// Simulated makespan, seconds.
    pub modeled_makespan_s: f64,
    /// Measured mean idle fraction (from bubble attribution).
    pub measured_bubble_ratio: f64,
    /// Simulated mean idle fraction.
    pub modeled_bubble_ratio: f64,
}

fn letter_of(kind: SegmentKind) -> char {
    kind.letter()
}

impl BubbleCheckReport {
    /// Lines up a measured trace with the simulation of the same
    /// schedule. Only replica 0 of the trace is compared — data-parallel
    /// replicas run the same schedule, and the simulator models one.
    pub fn from_run(trace: &IterationTrace, sim: &SimResult) -> Self {
        let report = bubble::attribute(trace);
        // Accumulate (stage, letter) -> (count, seconds) on both sides.
        let mut acc: Vec<(usize, char, [f64; 2], [u64; 2])> = Vec::new();
        let mut add = |stage: usize, letter: char, side: usize, secs: f64| match acc
            .iter_mut()
            .find(|(s, l, _, _)| *s == stage && *l == letter)
        {
            Some((_, _, t, n)) => {
                t[side] += secs;
                n[side] += 1;
            }
            None => {
                let mut t = [0.0; 2];
                let mut n = [0u64; 2];
                t[side] = secs;
                n[side] = 1;
                acc.push((stage, letter, t, n));
            }
        };
        for st in trace.stages.iter().filter(|s| s.replica == 0) {
            for s in st.spans.iter().filter(|s| s.kind.is_compute()) {
                add(st.stage, s.kind.letter(), 0, s.duration_ns() as f64 * 1e-9);
            }
        }
        for (stage, segs) in sim.segments.iter().enumerate() {
            for s in segs {
                add(stage, letter_of(s.kind), 1, s.duration());
            }
        }
        acc.sort_by_key(|(stage, letter, _, _)| (*stage, *letter));
        let ops = acc
            .into_iter()
            .map(|(stage, letter, t, n)| OpKindCheck {
                stage,
                letter,
                measured_count: n[0],
                modeled_count: n[1],
                measured_s: t[0],
                modeled_s: t[1],
            })
            .collect();
        let stages = report
            .stages
            .iter()
            .filter(|b| b.replica == 0 && b.stage < sim.busy.len())
            .map(|b| StageCheck {
                stage: b.stage,
                measured_busy_s: b.busy_s,
                modeled_busy_s: sim.busy[b.stage],
                measured_idle_s: b.idle.total(),
                modeled_idle_s: (sim.makespan - sim.busy[b.stage]).max(0.0),
            })
            .collect();
        BubbleCheckReport {
            ops,
            stages,
            measured_makespan_s: report.makespan_s,
            modeled_makespan_s: sim.makespan,
            measured_bubble_ratio: report.bubble_ratio(),
            modeled_bubble_ratio: sim.bubble_ratio(),
        }
    }

    /// Aggregate measured/modeled compute-time ratio.
    pub fn ratio(&self) -> f64 {
        let m: f64 = self.ops.iter().map(|o| o.measured_s).sum();
        let p: f64 = self.ops.iter().map(|o| o.modeled_s).sum();
        m / p
    }

    /// Mean over `(stage, op kind)` rows of
    /// `|measured − modeled| / measured`, skipping rows with no measured
    /// time. This is the calibration loop's convergence metric: fitting
    /// the cost model from the measured spans drives it toward zero, and
    /// the autotune smoke asserts it shrinks monotonically across
    /// calibration rounds. `NaN` when no row has measured time.
    pub fn mean_relative_error(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for o in self.ops.iter().filter(|o| o.measured_s > 0.0) {
            sum += (o.measured_s - o.modeled_s).abs() / o.measured_s;
            n += 1;
        }
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Worst per-row |log ratio| distance from a perfect fit, over rows
    /// with time on both sides. 0 means every op class matched exactly.
    pub fn max_misfit(&self) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.measured_s > 0.0 && o.modeled_s > 0.0)
            .map(|o| o.ratio().ln().abs())
            .fold(0.0, f64::max)
    }

    /// Plain-text table for logs and EXPERIMENTS.md-style reports.
    pub fn render(&self) -> String {
        let mut out = format!(
            "bubblecheck: makespan measured {:.3} ms vs modeled {:.3} ms; \
             idle measured {:.1}% vs modeled {:.1}%\n",
            self.measured_makespan_s * 1e3,
            self.modeled_makespan_s * 1e3,
            self.measured_bubble_ratio * 100.0,
            self.modeled_bubble_ratio * 100.0
        );
        for o in &self.ops {
            out.push_str(&format!(
                "  stage {} {}: {} measured / {} modeled ops, {:.3} ms vs {:.3} ms ({:.2}x)\n",
                o.stage,
                o.letter,
                o.measured_count,
                o.modeled_count,
                o.measured_s * 1e3,
                o.modeled_s * 1e3,
                o.ratio()
            ));
        }
        for s in &self.stages {
            out.push_str(&format!(
                "  stage {} busy {:.3} ms vs {:.3} ms, idle {:.3} ms vs {:.3} ms\n",
                s.stage,
                s.measured_busy_s * 1e3,
                s.modeled_busy_s * 1e3,
                s.measured_idle_s * 1e3,
                s.modeled_idle_s * 1e3
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_core::svpp::Mepipe;
    use mepipe_schedule::exec::{simulate, SimConfig, UnitCost};
    use mepipe_schedule::generator::{Dims, ScheduleGenerator};
    use mepipe_trace::{Span, SpanKind, StageTrace, NO_TAG};

    fn span_kind(kind: SegmentKind) -> SpanKind {
        match kind {
            SegmentKind::Forward => SpanKind::Forward,
            SegmentKind::Backward => SpanKind::Backward,
            SegmentKind::BackwardInput => SpanKind::BackwardInput,
            SegmentKind::BackwardWeight => SpanKind::BackwardWeight,
            SegmentKind::WgradDrain => SpanKind::WgradDrain,
        }
    }

    /// A measured trace fabricated from the simulator's own segments:
    /// the comparison against it must fit perfectly.
    fn trace_from_sim(sim: &SimResult) -> IterationTrace {
        IterationTrace {
            stages: sim
                .segments
                .iter()
                .enumerate()
                .map(|(stage, segs)| StageTrace {
                    stage,
                    replica: 0,
                    epoch_ns: 0,
                    spans: segs
                        .iter()
                        .map(|s| Span {
                            kind: span_kind(s.kind),
                            mb: s.op.map_or(NO_TAG, |o| o.micro_batch as u32),
                            slice: s.op.map_or(NO_TAG, |o| o.slice as u32),
                            chunk: s.op.map_or(NO_TAG, |o| o.chunk as u32),
                            peer: NO_TAG,
                            start_ns: (s.start * 1e9).round() as u64,
                            end_ns: (s.end * 1e9).round() as u64,
                        })
                        .collect(),
                    dropped: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn sim_derived_trace_fits_perfectly() {
        let sch = Mepipe::new().generate(&Dims::new(2, 4).slices(2)).unwrap();
        let sim = simulate(&sch, &UnitCost::default(), &SimConfig::default()).unwrap();
        let trace = trace_from_sim(&sim);
        let r = BubbleCheckReport::from_run(&trace, &sim);
        assert!(!r.ops.is_empty());
        assert_eq!(r.stages.len(), 2);
        // Rounding seconds -> ns keeps every ratio within a hair of 1.
        assert!(r.max_misfit() < 1e-6, "misfit {}", r.max_misfit());
        assert!((r.ratio() - 1.0).abs() < 1e-6);
        assert!(r.mean_relative_error() < 1e-6);
        for o in &r.ops {
            assert_eq!(o.measured_count, o.modeled_count);
        }
        for s in &r.stages {
            assert!((s.measured_busy_s - s.modeled_busy_s).abs() < 1e-6);
        }
        assert!((r.measured_makespan_s - r.modeled_makespan_s).abs() < 1e-6);
    }

    #[test]
    fn inflated_measurements_show_up_in_the_ratio() {
        let sch = Mepipe::new().generate(&Dims::new(2, 2).slices(2)).unwrap();
        let sim = simulate(&sch, &UnitCost::default(), &SimConfig::default()).unwrap();
        let mut trace = trace_from_sim(&sim);
        // Double every measured duration in place.
        for st in &mut trace.stages {
            for s in &mut st.spans {
                s.end_ns = s.start_ns + 2 * (s.end_ns - s.start_ns);
            }
        }
        let r = BubbleCheckReport::from_run(&trace, &sim);
        assert!((r.ratio() - 2.0).abs() < 1e-6, "ratio {}", r.ratio());
        assert!(r.max_misfit() > 0.5);
        // Every row doubled: |m − m/2| / m = 0.5 on each row.
        assert!((r.mean_relative_error() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn render_names_every_stage_and_kind() {
        let sch = Mepipe::new().generate(&Dims::new(2, 2).slices(2)).unwrap();
        let sim = simulate(&sch, &UnitCost::default(), &SimConfig::default()).unwrap();
        let r = BubbleCheckReport::from_run(&trace_from_sim(&sim), &sim);
        let text = r.render();
        assert!(text.contains("bubblecheck"));
        assert!(text.contains("stage 0 F"));
        assert!(text.contains("stage 1"));
    }
}
