//! Spans and the preallocated per-stage ring buffer that records them.

use crate::clock::ClockAnchor;

/// What a stage was doing during a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A forward pass.
    Forward,
    /// A fused backward pass (input + weight gradients).
    Backward,
    /// An input-gradient backward pass.
    BackwardInput,
    /// Weight-gradient GEMMs applied at their static list position.
    BackwardWeight,
    /// A weight-gradient GEMM drained into a wait gap or the final sweep.
    WgradDrain,
    /// Sending a boundary tensor (includes any flow-control stall).
    Send,
    /// Blocked in a transport receive with nothing else to do.
    RecvWait,
}

impl SpanKind {
    /// Whether the span is compute (counts as busy time).
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            SpanKind::Forward
                | SpanKind::Backward
                | SpanKind::BackwardInput
                | SpanKind::BackwardWeight
                | SpanKind::WgradDrain
        )
    }

    /// Whether the span is communication (send or receive wait).
    pub fn is_comm(self) -> bool {
        matches!(self, SpanKind::Send | SpanKind::RecvWait)
    }

    /// Stable lowercase name (trace categories, metric labels).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Forward => "forward",
            SpanKind::Backward => "backward",
            SpanKind::BackwardInput => "backward_input",
            SpanKind::BackwardWeight => "backward_weight",
            SpanKind::WgradDrain => "wgrad_drain",
            SpanKind::Send => "send",
            SpanKind::RecvWait => "recv_wait",
        }
    }

    /// Single-letter tag, as timeline strips and report rows print it;
    /// compute kinds share `OpKind::letter`'s letters.
    pub fn letter(self) -> char {
        match self {
            SpanKind::Forward => 'F',
            SpanKind::Backward => 'B',
            SpanKind::BackwardInput => 'b',
            SpanKind::BackwardWeight => 'W',
            SpanKind::WgradDrain => 'w',
            SpanKind::Send => 's',
            SpanKind::RecvWait => 'r',
        }
    }

    /// Inverse of [`SpanKind::letter`] — used when traces round-trip
    /// through text files (per-process dumps merged by a supervisor).
    pub fn from_letter(letter: char) -> Option<Self> {
        Some(match letter {
            'F' => SpanKind::Forward,
            'B' => SpanKind::Backward,
            'b' => SpanKind::BackwardInput,
            'W' => SpanKind::BackwardWeight,
            'w' => SpanKind::WgradDrain,
            's' => SpanKind::Send,
            'r' => SpanKind::RecvWait,
            _ => return None,
        })
    }
}

/// Sentinel for an absent tag component (`mb`/`slice`/`chunk`/`peer`).
pub const NO_TAG: u32 = u32::MAX;

/// One interval on one stage. Timestamps are nanoseconds since the
/// recording process's [`ClockAnchor`]; the timing engine's spans count
/// from iteration start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Activity class.
    pub kind: SpanKind,
    /// Micro-batch index, or [`NO_TAG`].
    pub mb: u32,
    /// Sequence-slice index, or [`NO_TAG`].
    pub slice: u32,
    /// Local virtual-chunk index, or [`NO_TAG`].
    pub chunk: u32,
    /// Peer stage for comm spans, or [`NO_TAG`].
    pub peer: u32,
    /// Start offset from the anchor, nanoseconds.
    pub start_ns: u64,
    /// End offset from the anchor, nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Display name: letter plus the op tag, e.g. `F mb1 sl0 ck0`.
    pub fn label(&self) -> String {
        if self.mb == NO_TAG {
            match self.kind {
                SpanKind::Send => format!("send -> {}", self.peer),
                SpanKind::RecvWait if self.peer != NO_TAG => format!("recv wait <- {}", self.peer),
                SpanKind::RecvWait => "recv wait".to_string(),
                _ => format!("{} drain", self.kind.letter()),
            }
        } else {
            format!(
                "{} mb{} sl{} ck{}",
                self.kind.letter(),
                self.mb,
                self.slice,
                self.chunk
            )
        }
    }
}

/// The spans one stage recorded over one iteration, plus the anchor that
/// places them on the shared wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTrace {
    /// Pipeline stage index.
    pub stage: usize,
    /// Data-parallel replica index (0 outside DP).
    pub replica: usize,
    /// Epoch position of offset 0, nanoseconds (from the recorder's
    /// [`ClockAnchor`]).
    pub epoch_ns: u64,
    /// Spans in chronological order.
    pub spans: Vec<Span>,
    /// Spans overwritten because the ring filled (oldest-first loss).
    pub dropped: u64,
}

impl StageTrace {
    /// Sum of compute span durations, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind.is_compute())
            .map(Span::duration_ns)
            .sum()
    }
}

/// Every stage's trace for one measured iteration. Under data
/// parallelism the vector holds one entry per (replica, stage) pair;
/// merged multi-process runs concatenate one entry per worker process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationTrace {
    /// Per-stage traces (all replicas).
    pub stages: Vec<StageTrace>,
}

/// Per-stage span recorder: a preallocated ring buffer behind an
/// enabled/disabled switch.
///
/// Disabled tracers allocate nothing and every record call is a single
/// predictable branch (or nothing at all with the crate's `off`
/// feature). Enabled tracers never allocate after construction: when the
/// ring fills, the oldest span is overwritten and counted in `dropped`.
#[derive(Debug)]
pub struct StageTracer {
    enabled: bool,
    stage: usize,
    anchor: ClockAnchor,
    spans: Vec<Span>,
    head: usize,
    dropped: u64,
}

/// Default ring capacity: comfortably above the span count of any
/// schedule this repo runs (ops + comm spans per stage per iteration),
/// ~1.5 MiB per stage when enabled.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 15;

impl StageTracer {
    /// A recorder that records nothing and allocates nothing.
    pub fn disabled(anchor: ClockAnchor) -> Self {
        Self {
            enabled: false,
            stage: 0,
            anchor,
            spans: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// An enabled recorder for `stage` with a preallocated ring of
    /// `capacity` spans, offsets measured from `anchor`.
    pub fn enabled(stage: usize, anchor: ClockAnchor, capacity: usize) -> Self {
        Self {
            enabled: true,
            stage,
            anchor,
            spans: Vec::with_capacity(capacity.max(1)),
            head: 0,
            dropped: 0,
        }
    }

    /// Whether record calls store spans.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        #[cfg(feature = "off")]
        {
            false
        }
        #[cfg(not(feature = "off"))]
        {
            self.enabled
        }
    }

    /// Nanoseconds since the anchor — the timestamp source for both span
    /// recording and the runtime's busy/idle accounting (which stays on
    /// even when tracing is disabled).
    #[inline]
    pub fn clock_ns(&self) -> u64 {
        self.anchor.elapsed_ns()
    }

    /// The anchor spans are measured from.
    pub fn anchor(&self) -> ClockAnchor {
        self.anchor
    }

    /// Records a span ending now. No-op when disabled.
    #[inline]
    pub fn record(&mut self, kind: SpanKind, mb: u32, slice: u32, chunk: u32, start_ns: u64) {
        self.record_to(kind, mb, slice, chunk, NO_TAG, start_ns, self.clock_ns());
    }

    /// Records a comm span (send/recv-wait) ending now. No-op when
    /// disabled.
    #[inline]
    pub fn record_comm(&mut self, kind: SpanKind, peer: u32, start_ns: u64) {
        self.record_to(
            kind,
            NO_TAG,
            NO_TAG,
            NO_TAG,
            peer,
            start_ns,
            self.clock_ns(),
        );
    }

    /// Records a fully specified span. No-op when disabled; zero-length
    /// spans are skipped.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record_to(
        &mut self,
        kind: SpanKind,
        mb: u32,
        slice: u32,
        chunk: u32,
        peer: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        #[cfg(feature = "off")]
        {
            let _ = (kind, mb, slice, chunk, peer, start_ns, end_ns);
        }
        #[cfg(not(feature = "off"))]
        {
            if !self.enabled || end_ns <= start_ns {
                return;
            }
            let span = Span {
                kind,
                mb,
                slice,
                chunk,
                peer,
                start_ns,
                end_ns,
            };
            if self.spans.len() < self.spans.capacity() {
                self.spans.push(span);
            } else {
                // Ring full: overwrite the oldest.
                self.spans[self.head] = span;
                self.head = (self.head + 1) % self.spans.len();
                self.dropped += 1;
            }
        }
    }

    /// Consumes the tracer into its chronological trace (`None` when
    /// disabled), as replica 0.
    pub fn finish(self) -> Option<StageTrace> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans;
        // Un-rotate the ring so spans come out oldest-first.
        spans.rotate_left(self.head);
        Some(StageTrace {
            stage: self.stage,
            replica: 0,
            epoch_ns: self.anchor.epoch_ns,
            spans,
            dropped: self.dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(cap: usize) -> StageTracer {
        StageTracer::enabled(0, ClockAnchor::now(), cap)
    }

    #[test]
    fn disabled_records_nothing_and_allocates_nothing() {
        let mut t = StageTracer::disabled(ClockAnchor::now());
        assert!(!t.is_enabled());
        t.record(SpanKind::Forward, 0, 0, 0, 0);
        assert_eq!(t.spans.capacity(), 0);
        assert!(t.finish().is_none());
    }

    #[test]
    fn spans_come_out_in_order() {
        let mut t = tracer(8);
        for i in 0..3u32 {
            t.record_to(
                SpanKind::Forward,
                i,
                0,
                0,
                NO_TAG,
                u64::from(i) * 10,
                u64::from(i) * 10 + 5,
            );
        }
        let trace = t.finish().unwrap();
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.dropped, 0);
        assert!(trace
            .spans
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
        assert_eq!(trace.busy_ns(), 15);
    }

    #[test]
    fn full_ring_overwrites_oldest() {
        let mut t = tracer(4);
        for i in 0..10u64 {
            t.record_to(SpanKind::WgradDrain, 0, 0, 0, NO_TAG, i * 10, i * 10 + 1);
        }
        let trace = t.finish().unwrap();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.dropped, 6);
        // The survivors are the newest four, oldest-first.
        let starts: Vec<u64> = trace.spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![60, 70, 80, 90]);
    }

    #[test]
    fn zero_length_spans_are_skipped() {
        let mut t = tracer(4);
        t.record_to(SpanKind::Send, 0, 0, 0, 1, 5, 5);
        assert!(t.finish().unwrap().spans.is_empty());
    }

    #[test]
    fn letters_round_trip() {
        for kind in [
            SpanKind::Forward,
            SpanKind::Backward,
            SpanKind::BackwardInput,
            SpanKind::BackwardWeight,
            SpanKind::WgradDrain,
            SpanKind::Send,
            SpanKind::RecvWait,
        ] {
            assert_eq!(SpanKind::from_letter(kind.letter()), Some(kind));
        }
        assert_eq!(SpanKind::from_letter('x'), None);
    }

    #[test]
    fn labels_render_tags_and_comm() {
        let s = Span {
            kind: SpanKind::Forward,
            mb: 1,
            slice: 2,
            chunk: 0,
            peer: NO_TAG,
            start_ns: 0,
            end_ns: 1,
        };
        assert_eq!(s.label(), "F mb1 sl2 ck0");
        let c = Span {
            kind: SpanKind::Send,
            mb: NO_TAG,
            slice: NO_TAG,
            chunk: NO_TAG,
            peer: 3,
            start_ns: 0,
            end_ns: 1,
        };
        assert_eq!(c.label(), "send -> 3");
        let w = Span {
            kind: SpanKind::RecvWait,
            ..c
        };
        assert_eq!(w.label(), "recv wait <- 3");
    }
}
