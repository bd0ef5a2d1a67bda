//! Chrome-tracing export: view any simulated iteration in
//! `chrome://tracing` / Perfetto.
//!
//! Serialisation goes through the shared [`ChromeTraceWriter`] so
//! simulated timelines render identically to the runtime's measured
//! traces (`mepipe_trace::traces_to_chrome`) and the two can be loaded
//! side by side. Event names pass through JSON escaping, and each
//! data-parallel replica gets its own process track (`pid`), with one
//! thread track (`tid`) per pipeline stage.

use mepipe_schedule::exec::{Segment, SegmentKind};
use mepipe_schedule::ir::Op;
use mepipe_trace::ChromeTraceWriter;

/// Serialises one replica's per-stage segments as a Chrome Trace Event
/// Format JSON string (all tracks under `pid` 0).
pub fn to_chrome_trace(segments: &[Vec<Segment>]) -> String {
    let mut w = ChromeTraceWriter::new();
    write_replica(&mut w, 0, segments);
    w.finish()
}

/// Serialises several data-parallel replicas' timelines, one process
/// track (`pid`) per replica.
pub fn replicas_to_chrome_trace(replicas: &[Vec<Vec<Segment>>]) -> String {
    let mut w = ChromeTraceWriter::new();
    for (pid, segments) in replicas.iter().enumerate() {
        write_replica(&mut w, pid as u64, segments);
    }
    w.finish()
}

fn write_replica(w: &mut ChromeTraceWriter, pid: u64, segments: &[Vec<Segment>]) {
    w.process_name(pid, &format!("replica {pid} (simulated)"));
    for (stage, segs) in segments.iter().enumerate() {
        w.thread_name(pid, stage as u64, &format!("stage {stage}"));
        for s in segs {
            let cat = match s.kind {
                SegmentKind::Forward => "forward",
                SegmentKind::Backward | SegmentKind::BackwardInput => "backward",
                SegmentKind::BackwardWeight | SegmentKind::WgradDrain => "wgrad",
            };
            w.complete(
                &segment_name(s.kind, s.op),
                cat,
                pid,
                stage as u64,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
            );
        }
    }
}

fn segment_name(kind: SegmentKind, op: Option<Op>) -> String {
    match op {
        Some(op) => format!(
            "{} mb{} sl{} ck{}",
            kind.letter(),
            op.micro_batch,
            op.slice,
            op.chunk
        ),
        None => "W drain".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_schedule::exec::{simulate, SimConfig, UnitCost};
    use mepipe_schedule::generator::{Dapple, Dims, ScheduleGenerator};

    #[test]
    fn trace_is_valid_json_with_one_event_per_segment() {
        let sch = Dapple.generate(&Dims::new(2, 2)).unwrap();
        let r = simulate(&sch, &UnitCost::default(), &SimConfig::default()).unwrap();
        let json = to_chrome_trace(&r.segments);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed.as_array().expect("array");
        let total: usize = r.segments.iter().map(Vec::len).sum();
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(xs.len(), total);
        // Every complete event has a non-negative duration on a stage track.
        for e in xs {
            assert!(e["dur"].as_f64().unwrap() >= 0.0);
            assert!(e["tid"].as_u64().unwrap() < 2);
            assert_eq!(e["pid"].as_u64().unwrap(), 0);
        }
    }

    #[test]
    fn replicas_get_distinct_pids() {
        let sch = Dapple.generate(&Dims::new(2, 2)).unwrap();
        let r = simulate(&sch, &UnitCost::default(), &SimConfig::default()).unwrap();
        let json = replicas_to_chrome_trace(&[r.segments.clone(), r.segments.clone()]);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let pids: std::collections::BTreeSet<u64> = parsed
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .map(|e| e["pid"].as_u64().unwrap())
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn empty_timeline_has_no_events_beyond_metadata() {
        let parsed: serde_json::Value = serde_json::from_str(&to_chrome_trace(&[])).unwrap();
        assert!(parsed
            .as_array()
            .unwrap()
            .iter()
            .all(|e| e["ph"].as_str() == Some("M")));
    }
}
