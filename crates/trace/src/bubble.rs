//! Bubble attribution: where each stage's idle time went.
//!
//! The paper's Figures 11–12 argument is that MEPipe's schedule turns
//! idle time into useful weight-gradient work; making that argument
//! requires splitting each stage's idle time into causes. Measured runs
//! and the timing engine record the same spans, so one attribution
//! serves both. Given a stage's spans this module buckets every
//! non-compute nanosecond of the iteration window into:
//!
//! * **warmup** — before the stage's first compute span (pipeline fill);
//! * **comm stall** — overlapped by a recorded send or recv-wait span
//!   (the stage was blocked on the interconnect with nothing drainable);
//! * **dependency** — a gap not explained by recorded comm (waiting on
//!   an upstream op, scheduler overhead, OS noise);
//! * **tail** — after the stage's last compute span until the slowest
//!   stage finished (pipeline drain).
//!
//! The buckets plus busy time sum to the analysis window by
//! construction, so the report reconciles exactly with the runtime's
//! per-stage busy/idle counters measured from the same clock.

use crate::span::{IterationTrace, Span, StageTrace};

/// Idle-time decomposition of one stage, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IdleBuckets {
    /// Idle before the first compute span.
    pub warmup: f64,
    /// Idle overlapped by send/recv-wait spans.
    pub comm_stall: f64,
    /// Idle inside the active window not explained by comm spans.
    pub dependency: f64,
    /// Idle after the last compute span, to the end of the window.
    pub tail: f64,
}

impl IdleBuckets {
    /// Total idle seconds.
    pub fn total(&self) -> f64 {
        self.warmup + self.comm_stall + self.dependency + self.tail
    }
}

/// One stage's activity breakdown, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBubble {
    /// Pipeline stage.
    pub stage: usize,
    /// Data-parallel replica.
    pub replica: usize,
    /// Total compute time (F/B/W plus drained wgrads).
    pub busy_s: f64,
    /// Of `busy_s`, time in opportunistically drained weight gradients —
    /// the stall time the runtime converted into work.
    pub drained_s: f64,
    /// Idle decomposition over the analysis window.
    pub idle: IdleBuckets,
}

impl StageBubble {
    /// Idle fraction of the window (`span` = busy + idle).
    pub fn bubble_ratio(&self) -> f64 {
        let span = self.busy_s + self.idle.total();
        if span <= 0.0 {
            0.0
        } else {
            self.idle.total() / span
        }
    }
}

/// Whole-iteration bubble attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BubbleReport {
    /// One row per (replica, stage), in trace order.
    pub stages: Vec<StageBubble>,
    /// Analysis window, seconds: first compute start to last compute end
    /// across every stage passed in (epoch-aligned).
    pub makespan_s: f64,
}

impl BubbleReport {
    /// Mean idle fraction across stages.
    pub fn bubble_ratio(&self) -> f64 {
        if self.stages.is_empty() {
            return 0.0;
        }
        self.stages
            .iter()
            .map(StageBubble::bubble_ratio)
            .sum::<f64>()
            / self.stages.len() as f64
    }

    /// Plain-text table for logs and EXPERIMENTS.md-style reports.
    pub fn render(&self) -> String {
        let mut out = format!(
            "bubble attribution over {:.3} ms (mean idle {:.1}%)\n",
            self.makespan_s * 1e3,
            self.bubble_ratio() * 100.0
        );
        out.push_str(
            "  stage |   busy ms | drained ms | warmup ms |   comm ms |    dep ms |   tail ms | idle %\n",
        );
        for s in &self.stages {
            out.push_str(&format!(
                "  {:>5} | {:>9.3} | {:>10.3} | {:>9.3} | {:>9.3} | {:>9.3} | {:>9.3} | {:>5.1}%\n",
                s.stage,
                s.busy_s * 1e3,
                s.drained_s * 1e3,
                s.idle.warmup * 1e3,
                s.idle.comm_stall * 1e3,
                s.idle.dependency * 1e3,
                s.idle.tail * 1e3,
                s.bubble_ratio() * 100.0
            ));
        }
        out
    }
}

/// Overlap of `[a, b)` with span `s`, nanoseconds.
fn overlap_ns(a: u64, b: u64, s: &Span) -> u64 {
    let lo = a.max(s.start_ns);
    let hi = b.min(s.end_ns);
    hi.saturating_sub(lo)
}

/// Buckets one stage's idle time over the window `[start_ns, end_ns)` of
/// the aligned axis, on which the stage's offset 0 sits at `shift`.
fn attribute_stage(st: &StageTrace, shift: u64, start_ns: u64, end_ns: u64) -> StageBubble {
    let compute: Vec<&Span> = st.spans.iter().filter(|s| s.kind.is_compute()).collect();
    let comm: Vec<&Span> = st.spans.iter().filter(|s| s.kind.is_comm()).collect();
    let busy_ns: u64 = compute.iter().map(|s| s.duration_ns()).sum();
    let drained_ns: u64 = compute
        .iter()
        .filter(|s| s.kind == crate::SpanKind::WgradDrain)
        .map(|s| s.duration_ns())
        .sum();
    let mut idle = IdleBuckets::default();
    if let (Some(first), Some(last)) = (compute.first(), compute.last()) {
        idle.warmup = (first.start_ns + shift - start_ns) as f64 * 1e-9;
        idle.tail = end_ns.saturating_sub(last.end_ns + shift) as f64 * 1e-9;
        // Gaps between consecutive compute spans, split comm vs dependency.
        // Gap lengths and comm overlaps are the same on the stage's own
        // axis as on the aligned one, so only warmup and tail need `shift`.
        for pair in compute.windows(2) {
            let (a, b) = (pair[0].end_ns, pair[1].start_ns);
            if b <= a {
                continue;
            }
            let comm_ns: u64 = comm.iter().map(|s| overlap_ns(a, b, s)).sum();
            let gap = b - a;
            let comm_ns = comm_ns.min(gap);
            idle.comm_stall += comm_ns as f64 * 1e-9;
            idle.dependency += (gap - comm_ns) as f64 * 1e-9;
        }
    } else {
        idle.dependency = (end_ns - start_ns) as f64 * 1e-9;
    }
    StageBubble {
        stage: st.stage,
        replica: st.replica,
        busy_s: busy_ns as f64 * 1e-9,
        drained_s: drained_ns as f64 * 1e-9,
        idle,
    }
}

/// Attributes idle time across every stage of `trace`.
///
/// The analysis window runs from the earliest compute start to the
/// latest compute end over all stages (per the epoch-aligned time axis),
/// so warmup and tail measure pipeline fill/drain rather than process
/// startup.
pub fn attribute(trace: &IterationTrace) -> BubbleReport {
    let base_epoch = trace.stages.iter().map(|s| s.epoch_ns).min().unwrap_or(0);
    // Window: earliest compute start .. latest compute end (aligned ns).
    let mut start = u64::MAX;
    let mut end = 0u64;
    for st in &trace.stages {
        let shift = st.epoch_ns - base_epoch;
        for s in st.spans.iter().filter(|s| s.kind.is_compute()) {
            start = start.min(s.start_ns + shift);
            end = end.max(s.end_ns + shift);
        }
    }
    if start == u64::MAX {
        return BubbleReport {
            stages: Vec::new(),
            makespan_s: 0.0,
        };
    }
    let stages = trace
        .stages
        .iter()
        .map(|st| attribute_stage(st, st.epoch_ns - base_epoch, start, end))
        .collect();
    BubbleReport {
        stages,
        makespan_s: (end - start) as f64 * 1e-9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanKind, NO_TAG};

    fn span(kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            kind,
            mb: 0,
            slice: 0,
            chunk: 0,
            peer: if kind.is_comm() { 1 } else { NO_TAG },
            start_ns: start,
            end_ns: end,
        }
    }

    fn trace(stage_spans: Vec<Vec<Span>>) -> IterationTrace {
        IterationTrace {
            stages: stage_spans
                .into_iter()
                .enumerate()
                .map(|(stage, spans)| StageTrace {
                    stage,
                    replica: 0,
                    epoch_ns: 0,
                    spans,
                    dropped: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn buckets_sum_to_the_window() {
        // Stage 0: F[0,100], gap with comm [100,130], B[150,300].
        // Stage 1: F[50,100], then idle to the end (tail).
        let t = trace(vec![
            vec![
                span(SpanKind::Forward, 0, 100),
                span(SpanKind::RecvWait, 100, 130),
                span(SpanKind::Backward, 150, 300),
            ],
            vec![span(SpanKind::Forward, 50, 100)],
        ]);
        let r = attribute(&t);
        assert!((r.makespan_s - 300e-9).abs() < 1e-15);
        let s0 = &r.stages[0];
        assert!((s0.busy_s - 250e-9).abs() < 1e-15);
        assert!((s0.idle.comm_stall - 30e-9).abs() < 1e-15);
        assert!((s0.idle.dependency - 20e-9).abs() < 1e-15);
        assert_eq!(s0.idle.warmup, 0.0);
        assert_eq!(s0.idle.tail, 0.0);
        let s1 = &r.stages[1];
        assert!((s1.idle.warmup - 50e-9).abs() < 1e-15);
        assert!((s1.idle.tail - 200e-9).abs() < 1e-15);
        // Reconciliation: busy + idle == window, exactly, per stage.
        for s in &r.stages {
            assert!(
                (s.busy_s + s.idle.total() - r.makespan_s).abs() < 1e-12,
                "stage {} does not reconcile",
                s.stage
            );
        }
    }

    #[test]
    fn drained_work_counts_as_busy_and_is_reported() {
        let t = trace(vec![vec![
            span(SpanKind::Forward, 0, 100),
            span(SpanKind::WgradDrain, 100, 140),
            span(SpanKind::Backward, 140, 200),
        ]]);
        let r = attribute(&t);
        let s = &r.stages[0];
        assert!((s.busy_s - 200e-9).abs() < 1e-15);
        assert!((s.drained_s - 40e-9).abs() < 1e-15);
        assert_eq!(s.idle.total(), 0.0);
        assert_eq!(s.bubble_ratio(), 0.0);
    }

    #[test]
    fn comm_overlap_is_clamped_to_the_gap() {
        // A recv-wait span that extends past the gap (it ended inside the
        // next compute's start jitter) must not over-attribute.
        let t = trace(vec![vec![
            span(SpanKind::Forward, 0, 100),
            span(SpanKind::RecvWait, 90, 250),
            span(SpanKind::Backward, 200, 300),
        ]]);
        let r = attribute(&t);
        let s = &r.stages[0];
        assert!((s.idle.comm_stall - 100e-9).abs() < 1e-15);
        assert_eq!(s.idle.dependency, 0.0);
    }

    #[test]
    fn empty_trace_is_empty_report() {
        let r = attribute(&IterationTrace::default());
        assert!(r.stages.is_empty());
        assert_eq!(r.bubble_ratio(), 0.0);
        assert_eq!(r.makespan_s, 0.0);
    }

    #[test]
    fn render_mentions_every_stage() {
        let t = trace(vec![
            vec![span(SpanKind::Forward, 0, 100)],
            vec![span(SpanKind::Forward, 100, 200)],
        ]);
        let s = attribute(&t).render();
        assert!(s.contains("stage"));
        assert!(s.lines().count() >= 4);
    }
}
