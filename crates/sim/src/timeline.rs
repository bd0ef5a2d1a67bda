//! ASCII timeline strips of a trace, behind Figures 7, 11 and 12.

use mepipe_trace::IterationTrace;

/// Renders per-stage timelines as low-resolution ASCII strips (`width`
/// characters per stage over `[0, makespan]` seconds), for the experiment
/// harness's Figure 7/11/12 output. Each cell shows the letter of the
/// last compute span that covers it; waits stay blank.
pub fn render_strips(trace: &IterationTrace, makespan: f64, width: usize) -> String {
    let mut out = String::new();
    for st in &trace.stages {
        let mut row = vec!['.'; width];
        for s in st.spans.iter().filter(|s| s.kind.is_compute()) {
            let (start, end) = (s.start_ns as f64 * 1e-9, s.end_ns as f64 * 1e-9);
            let a = ((start / makespan) * width as f64).floor() as usize;
            let b = (((end / makespan) * width as f64).ceil() as usize).min(width);
            for cell in row.iter_mut().take(b).skip(a.min(width)) {
                *cell = s.kind.letter();
            }
        }
        out.push_str(&format!("stage {}: ", st.stage));
        out.extend(row);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_trace::{Span, SpanKind, StageTrace, NO_TAG};

    /// One stage whose spans run over `[start, end)` seconds.
    fn stage(spans: &[(SpanKind, f64, f64)]) -> IterationTrace {
        let spans = spans
            .iter()
            .map(|&(kind, start, end)| Span {
                kind,
                mb: NO_TAG,
                slice: NO_TAG,
                chunk: NO_TAG,
                peer: NO_TAG,
                start_ns: (start * 1e9) as u64,
                end_ns: (end * 1e9) as u64,
            })
            .collect();
        IterationTrace {
            stages: vec![StageTrace {
                stage: 0,
                replica: 0,
                epoch_ns: 0,
                spans,
                dropped: 0,
            }],
        }
    }

    #[test]
    fn strips_show_dominant_activity() {
        let t = stage(&[
            (SpanKind::Forward, 0.0, 5.0),
            (SpanKind::RecvWait, 5.0, 6.0),
            (SpanKind::Backward, 6.0, 10.0),
        ]);
        let s = render_strips(&t, 10.0, 10);
        assert_eq!(s, "stage 0: FFFFF.BBBB\n");
    }

    #[test]
    fn strips_clamp_to_width() {
        let t = stage(&[(SpanKind::Forward, 9.0, 20.0)]);
        let s = render_strips(&t, 10.0, 10);
        // An over-long span must not panic and fills to the edge.
        assert!(s.ends_with("F\n") || s.contains('F'));
    }
}
