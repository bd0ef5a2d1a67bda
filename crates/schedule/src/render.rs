//! ASCII rendering of schedule timelines (the paper's Figures 2–7).
//!
//! Each worker is one row; time flows left to right in discrete ticks.
//! Every op paints a three-character token per tick:
//!
//! * first char — op kind (`F` forward, `B` fused backward, `b` input
//!   gradient, `W` weight gradient);
//! * second char — micro-batch as a letter (`a`–`z` for virtual chunk 0,
//!   `A`–`Z` for chunk 1; the paper shades chunks);
//! * third char — slice index digit.
//!
//! Bubbles render as dots, making idle time visually obvious.

use crate::{
    exec::{simulate, span_op, Cost, SimConfig},
    ir::{OpKind, Schedule},
};

/// Renders a schedule's list-order timeline under the given
/// (integral-duration) costs.
///
/// Returns `Err` if the schedule deadlocks or a duration is not a positive
/// whole number of ticks.
///
/// # Examples
///
/// ```
/// use mepipe_schedule::{exec::UnitCost, render::render};
/// use mepipe_schedule::generator::{Dapple, Dims, ScheduleGenerator};
///
/// let out = render(&Dapple.generate(&Dims::new(2, 2)).unwrap(), &UnitCost::ones()).unwrap();
/// assert!(out.starts_with("stage 0: Fa0"));
/// ```
pub fn render(schedule: &Schedule, cost: &dyn Cost) -> Result<String, String> {
    let result = simulate(schedule, cost, &SimConfig::default())?;
    let ticks = result.makespan.round() as usize;
    if (result.makespan - ticks as f64).abs() > 1e-6 {
        return Err(format!(
            "non-integral makespan {} cannot be rendered",
            result.makespan
        ));
    }
    let mut grid = vec![vec!["...".to_string(); ticks]; schedule.num_workers()];
    for (row, stage) in grid.iter_mut().zip(&result.trace.stages) {
        for span in &stage.spans {
            // Static execution books one tagged span per listed op.
            let Some(op) = span_op(span) else { continue };
            let (start, end) = (span.start_ns as f64 * 1e-9, span.end_ns as f64 * 1e-9);
            let s = start.round() as usize;
            let e = end.round() as usize;
            if (start - s as f64).abs() > 1e-6 || (end - e as f64).abs() > 1e-6 {
                return Err(format!("op {op} has non-integral times"));
            }
            let token = op_token(op.kind, op.micro_batch, op.slice, op.chunk);
            for cell in row.iter_mut().take(e).skip(s) {
                *cell = token.clone();
            }
        }
    }
    let mut out = String::new();
    for (w, row) in grid.iter().enumerate() {
        let mut line = format!("stage {w}: ");
        for cell in row {
            line.push_str(cell);
            line.push(' ');
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    Ok(out)
}

fn op_token(kind: OpKind, mb: usize, slice: usize, chunk: usize) -> String {
    let kind_ch = kind.letter();
    let mb_ch = if chunk.is_multiple_of(2) {
        (b'a' + (mb % 26) as u8) as char
    } else {
        (b'A' + (mb % 26) as u8) as char
    };
    let slice_ch = char::from_digit((slice % 10) as u32, 10).expect("digit");
    format!("{kind_ch}{mb_ch}{slice_ch}")
}

/// Compact per-worker op listing (no timing), useful in error messages and
/// snapshot tests.
pub fn render_order(schedule: &Schedule) -> String {
    let mut out = String::new();
    for (w, ops) in schedule.workers.iter().enumerate() {
        out.push_str(&format!("stage {w}:"));
        for op in ops {
            out.push(' ');
            out.push_str(&op_token(op.kind, op.micro_batch, op.slice, op.chunk));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::UnitCost;
    use crate::ir::{ChunkPlacement, Op, ScheduleMeta};

    fn tiny() -> Schedule {
        let meta = ScheduleMeta {
            name: "t".into(),
            stages: 2,
            virtual_chunks: 1,
            slices: 1,
            micro_batches: 1,
            split_backward: false,
            placement: ChunkPlacement::Interleaved,
        };
        Schedule {
            meta,
            workers: vec![
                vec![
                    Op::new(OpKind::Forward, 0, 0, 0),
                    Op::new(OpKind::Backward, 0, 0, 0),
                ],
                vec![
                    Op::new(OpKind::Forward, 0, 0, 0),
                    Op::new(OpKind::Backward, 0, 0, 0),
                ],
            ],
        }
    }

    #[test]
    fn renders_rows_and_bubbles() {
        let out = render(&tiny(), &UnitCost::ones()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("stage 0: Fa0 ... ... Ba0"));
        assert!(lines[1].contains("Fa0 Ba0"));
    }

    #[test]
    fn non_integral_durations_are_rejected() {
        let cost = UnitCost {
            fwd: 0.5,
            ..UnitCost::ones()
        };
        assert!(render(&tiny(), &cost).is_err());
    }

    #[test]
    fn order_rendering_lists_all_ops() {
        let out = render_order(&tiny());
        assert_eq!(out, "stage 0: Fa0 Ba0\nstage 1: Fa0 Ba0\n");
    }
}
