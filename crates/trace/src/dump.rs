//! Line-oriented stage-trace dumps crossing process boundaries.
//!
//! A worker process records its [`StageTrace`] locally and dumps it as a
//! small text file; whoever launched it (the `mepipe-worker` launcher,
//! the `mepipe-ctl` control plane) reads the dumps back and merges them
//! onto one time axis via each trace's clock-anchor epoch. Text rather
//! than JSON so the dump path needs no serializer and the merge path
//! exercises the same epoch-alignment code the in-process writer uses.
//!
//! Format (`MEPIPE-STAGE-TRACE v1`): four header fields, then one
//! `span <letter> <mb> <slice> <chunk> <peer> <start_ns> <end_ns>` line
//! per span.

use std::path::Path;

use crate::span::{Span, SpanKind, StageTrace};

/// Header line identifying the dump format (bump on layout changes).
pub const DUMP_HEADER: &str = "MEPIPE-STAGE-TRACE v1";

/// Serialises one stage's trace to the dump text.
pub fn stage_trace_to_text(st: &StageTrace) -> String {
    let mut out = format!(
        "{DUMP_HEADER}\nstage {}\nreplica {}\nepoch_ns {}\ndropped {}\n",
        st.stage, st.replica, st.epoch_ns, st.dropped
    );
    for s in &st.spans {
        out.push_str(&format!(
            "span {} {} {} {} {} {} {}\n",
            s.kind.letter(),
            s.mb,
            s.slice,
            s.chunk,
            s.peer,
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

/// Writes one stage's trace dump to `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_stage_trace(path: &Path, st: &StageTrace) -> std::io::Result<()> {
    std::fs::write(path, stage_trace_to_text(st))
}

/// Parses a dump produced by [`stage_trace_to_text`].
///
/// # Errors
///
/// Returns a message naming the malformed line on any format violation,
/// including a tag that does not fit its `u32` field and a span that
/// ends before it starts.
pub fn stage_trace_from_text(text: &str) -> Result<StageTrace, String> {
    let mut lines = text.lines();
    if lines.next() != Some(DUMP_HEADER) {
        return Err(format!("bad trace dump header (expected {DUMP_HEADER:?})"));
    }
    let mut field = |name: &str| -> Result<u64, String> {
        let line = lines.next().ok_or_else(|| format!("missing {name} line"))?;
        line.strip_prefix(name)
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("bad {name} line: {line}"))
    };
    let stage = field("stage")? as usize;
    let replica = field("replica")? as usize;
    let epoch_ns = field("epoch_ns")?;
    let dropped = field("dropped")?;
    let spans = lines
        .map(|line| {
            let mut f = line.split_whitespace();
            if f.next() != Some("span") {
                return Err(format!("bad span line: {line}"));
            }
            let letter = f
                .next()
                .and_then(|s| s.chars().next())
                .ok_or_else(|| format!("span line missing kind: {line}"))?;
            let span = Span {
                kind: SpanKind::from_letter(letter)
                    .ok_or_else(|| format!("unknown span letter {letter}"))?,
                mb: span_field(&mut f, "mb", line)?,
                slice: span_field(&mut f, "slice", line)?,
                chunk: span_field(&mut f, "chunk", line)?,
                peer: span_field(&mut f, "peer", line)?,
                start_ns: span_field(&mut f, "start_ns", line)?,
                end_ns: span_field(&mut f, "end_ns", line)?,
            };
            if span.end_ns < span.start_ns {
                return Err(format!("span ends before it starts: {line}"));
            }
            Ok(span)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(StageTrace {
        stage,
        replica,
        epoch_ns,
        spans,
        dropped,
    })
}

/// Parses the next field of a span line as `T` (a `u32` tag or a `u64`
/// timestamp), rejecting values that do not fit rather than wrapping.
fn span_field<T: std::str::FromStr>(
    fields: &mut std::str::SplitWhitespace<'_>,
    what: &str,
    line: &str,
) -> Result<T, String> {
    let v = fields
        .next()
        .ok_or_else(|| format!("span line missing {what}: {line}"))?;
    v.parse()
        .map_err(|_| format!("bad span {what} {v:?}: {line}"))
}

/// Reads a stage-trace dump file written by [`write_stage_trace`].
///
/// # Errors
///
/// Returns a message for I/O failures or format violations.
pub fn read_stage_trace(path: &Path) -> Result<StageTrace, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("read stage trace {}: {e}", path.display()))?;
    stage_trace_from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::NO_TAG;

    fn sample() -> StageTrace {
        StageTrace {
            stage: 2,
            replica: 1,
            epoch_ns: 123_456_789,
            dropped: 3,
            spans: vec![
                Span {
                    kind: SpanKind::Forward,
                    mb: 0,
                    slice: 1,
                    chunk: 0,
                    peer: NO_TAG,
                    start_ns: 10,
                    end_ns: 20,
                },
                Span {
                    kind: SpanKind::Send,
                    mb: NO_TAG,
                    slice: NO_TAG,
                    chunk: NO_TAG,
                    peer: 3,
                    start_ns: 21,
                    end_ns: 22,
                },
            ],
        }
    }

    #[test]
    fn dump_round_trips() {
        let st = sample();
        let text = stage_trace_to_text(&st);
        let back = stage_trace_from_text(&text).unwrap();
        assert_eq!(back.stage, st.stage);
        assert_eq!(back.replica, st.replica);
        assert_eq!(back.epoch_ns, st.epoch_ns);
        assert_eq!(back.dropped, st.dropped);
        assert_eq!(back.spans, st.spans);
    }

    #[test]
    fn malformed_dumps_are_rejected_with_context() {
        assert!(stage_trace_from_text("").is_err());
        assert!(stage_trace_from_text("NOT-A-TRACE\n").is_err());
        let text = stage_trace_to_text(&sample());
        let missing_field = text.replace("epoch_ns 123456789\n", "");
        assert!(stage_trace_from_text(&missing_field).is_err());
        let bad_span = format!("{text}span ? broken\n");
        assert!(stage_trace_from_text(&bad_span).is_err());
    }

    #[test]
    fn out_of_range_tags_and_backwards_spans_are_rejected() {
        let text = stage_trace_to_text(&sample());
        // 2^32 would wrap to micro-batch 0 under a cast.
        let wide_tag = format!("{text}span F 4294967296 0 0 0 1 2\n");
        assert!(stage_trace_from_text(&wide_tag).is_err());
        let max_tag = format!("{text}span F 4294967295 0 0 0 1 2\n");
        assert!(stage_trace_from_text(&max_tag).is_ok());
        let backwards = format!("{text}span F 0 0 0 0 10 5\n");
        let err = stage_trace_from_text(&backwards).unwrap_err();
        assert!(err.contains("ends before it starts"), "{err}");
    }
}
