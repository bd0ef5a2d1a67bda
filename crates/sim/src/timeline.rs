//! Per-stage activity summaries of the engine's timeline segments, behind
//! Figures 11 and 12.

use mepipe_schedule::exec::{Segment, SegmentKind};

/// Activity breakdown of one worker over an iteration (the quantities the
/// Figure 11/12 timelines visualise).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageActivity {
    /// Time in forward passes.
    pub forward: f64,
    /// Time in (fused or input-gradient) backward passes.
    pub backward: f64,
    /// Time in weight-gradient work (static or drained).
    pub wgrad: f64,
    /// Idle time.
    pub idle: f64,
    /// Total span considered.
    pub span: f64,
}

/// Summarises one worker's segments over `[0, span]`.
pub fn stage_activity(segments: &[Segment], span: f64) -> StageActivity {
    let mut a = StageActivity {
        span,
        ..Default::default()
    };
    for s in segments {
        match s.kind {
            SegmentKind::Forward => a.forward += s.duration(),
            SegmentKind::Backward | SegmentKind::BackwardInput => a.backward += s.duration(),
            SegmentKind::BackwardWeight | SegmentKind::WgradDrain => a.wgrad += s.duration(),
        }
    }
    a.idle = (span - a.forward - a.backward - a.wgrad).max(0.0);
    a
}

/// Renders per-stage timelines as low-resolution ASCII strips (`width`
/// characters per stage), for the experiment harness's Figure 11/12
/// output. Each cell shows the dominant activity in its time bucket.
pub fn render_strips(segments: &[Vec<Segment>], span: f64, width: usize) -> String {
    let mut out = String::new();
    for (w, segs) in segments.iter().enumerate() {
        let mut row = vec!['.'; width];
        for s in segs {
            let a = ((s.start / span) * width as f64).floor() as usize;
            let b = (((s.end / span) * width as f64).ceil() as usize).min(width);
            for cell in row.iter_mut().take(b).skip(a.min(width)) {
                *cell = s.kind.letter();
            }
        }
        out.push_str(&format!("stage {w}: "));
        out.extend(row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(kind: SegmentKind, start: f64, end: f64) -> Segment {
        Segment {
            kind,
            op: None,
            start,
            end,
        }
    }

    #[test]
    fn activity_accounts_for_everything() {
        let segs = vec![
            seg(SegmentKind::Forward, 0.0, 2.0),
            seg(SegmentKind::BackwardInput, 3.0, 5.0),
            seg(SegmentKind::WgradDrain, 5.0, 6.0),
        ];
        let a = stage_activity(&segs, 8.0);
        assert_eq!(a.forward, 2.0);
        assert_eq!(a.backward, 2.0);
        assert_eq!(a.wgrad, 1.0);
        assert_eq!(a.idle, 3.0);
    }

    #[test]
    fn strips_show_dominant_activity() {
        let segs = vec![vec![
            seg(SegmentKind::Forward, 0.0, 5.0),
            seg(SegmentKind::Backward, 5.0, 10.0),
        ]];
        let s = render_strips(&segs, 10.0, 10);
        assert!(s.contains("FFFFF"));
        assert!(s.contains("BBBBB"));
    }

    #[test]
    fn strips_clamp_to_width() {
        let segs = vec![vec![seg(SegmentKind::Forward, 9.0, 20.0)]];
        let s = render_strips(&segs, 10.0, 10);
        // Over-long segment must not panic and fills to the edge.
        assert!(s.ends_with("F\n") || s.contains('F'));
    }
}
