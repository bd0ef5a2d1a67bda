//! Stage-trace dumps are outside bytes (files other processes wrote), so
//! the decoder must turn any damage into an `Err`, and whatever it
//! accepts must be safe to analyse: mutated dump text never panics the
//! decoder or `bubble::attribute`, and dumps accepted one by one stay
//! safe when merged onto one time axis.

use proptest::prelude::*;

use mepipe_trace::bubble;
use mepipe_trace::chrome::traces_to_chrome;
use mepipe_trace::dump::{stage_trace_from_text, stage_trace_to_text};
use mepipe_trace::{IterationTrace, PidKey, Span, SpanKind, StageTrace, NO_TAG};

/// splitmix64 — deterministic streams from a seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const KINDS: [SpanKind; 7] = [
    SpanKind::Forward,
    SpanKind::Backward,
    SpanKind::BackwardInput,
    SpanKind::BackwardWeight,
    SpanKind::WgradDrain,
    SpanKind::Send,
    SpanKind::RecvWait,
];

/// A well-formed trace with `n` back-to-back spans of random kinds.
fn valid_trace(seed: u64, n: usize) -> StageTrace {
    let mut s = seed;
    let mut t = splitmix(&mut s) % 1_000;
    let spans = (0..n)
        .map(|_| {
            let kind = KINDS[(splitmix(&mut s) % KINDS.len() as u64) as usize];
            let start_ns = t + splitmix(&mut s) % 50;
            t = start_ns + splitmix(&mut s) % 500;
            let tag = |x: u64| {
                if kind.is_comm() {
                    NO_TAG
                } else {
                    (x % 8) as u32
                }
            };
            Span {
                kind,
                mb: tag(splitmix(&mut s)),
                slice: tag(splitmix(&mut s)),
                chunk: tag(splitmix(&mut s)),
                peer: if kind.is_comm() { 1 } else { NO_TAG },
                start_ns,
                end_ns: t,
            }
        })
        .collect();
    StageTrace {
        stage: 0,
        replica: 0,
        epoch_ns: splitmix(&mut s) % 1_000_000,
        spans,
        dropped: 0,
    }
}

/// [`valid_trace`] as dump text.
fn valid_dump(seed: u64, n: usize) -> String {
    stage_trace_to_text(&valid_trace(seed, n))
}

/// Replacement tokens: numbers and separators that keep lines parseable
/// often enough to reach the analysis, plus values just past each
/// field's range.
const TOKENS: [&str; 13] = [
    "5",
    "0",
    "9",
    " ",
    "\n",
    "F",
    "w",
    "s",
    "x",
    "-1",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_dumps_never_panic_the_decoder_or_attribution(
        seed in 0u64..u64::MAX,
        n in 1usize..4,
        edits in 1usize..4,
        mutation_seed in 0u64..u64::MAX,
    ) {
        let mut text = valid_dump(seed, n);
        let mut s = mutation_seed;
        for _ in 0..edits {
            let token = TOKENS[(splitmix(&mut s) % TOKENS.len() as u64) as usize];
            if splitmix(&mut s).is_multiple_of(2) {
                // Overwrite a few raw bytes.
                let pos = (splitmix(&mut s) % text.len() as u64) as usize;
                let end = (pos + (splitmix(&mut s) % 4) as usize).min(text.len());
                text.replace_range(pos..end, token);
            } else {
                // Replace one whole field of one span line (the five
                // header lines come first).
                let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
                if lines.len() <= 5 {
                    continue;
                }
                let li = 5 + (splitmix(&mut s) % (lines.len() - 5) as u64) as usize;
                let mut fields: Vec<&str> = lines[li].split_whitespace().collect();
                if !fields.is_empty() {
                    let fi = (splitmix(&mut s) % fields.len() as u64) as usize;
                    fields[fi] = token;
                    lines[li] = fields.join(" ");
                }
                text = lines.join("\n") + "\n";
            }
        }
        if let Ok(st) = stage_trace_from_text(&text) {
            for span in &st.spans {
                prop_assert!(span.start_ns <= span.end_ns, "accepted a backwards span");
            }
            let report = bubble::attribute(&IterationTrace { stages: vec![st] });
            prop_assert!(report.makespan_s >= 0.0);
        }
    }

    /// Two dumps the decoder accepts one by one stay safe merged: one
    /// near epoch 0, the other near the top of the `u64` clock, so the
    /// shift onto the shared axis is as large as it gets. The decoder
    /// rejects exactly the spans that would overflow once shifted, and
    /// neither the bubble attribution nor the Chrome export overflows on
    /// what it accepts.
    #[test]
    fn merged_dumps_with_far_apart_epochs_never_overflow(
        seed in 0u64..u64::MAX,
        n in 1usize..4,
        near_epoch in 0u64..1_000,
        headroom in 0u64..3_000,
    ) {
        let near = StageTrace { epoch_ns: near_epoch, ..valid_trace(seed, n) };
        let far = StageTrace {
            stage: 1,
            epoch_ns: u64::MAX - headroom,
            ..valid_trace(seed ^ 0x5EED, n)
        };
        let fits = far.spans.iter().all(|s| far.epoch_ns.checked_add(s.end_ns).is_some());
        let near = stage_trace_from_text(&stage_trace_to_text(&near)).unwrap();
        let far = stage_trace_from_text(&stage_trace_to_text(&far));
        prop_assert_eq!(far.is_ok(), fits);
        if let Ok(far) = far {
            let merged = IterationTrace { stages: vec![near, far] };
            let report = bubble::attribute(&merged);
            prop_assert!(report.makespan_s >= 0.0);
            let json = traces_to_chrome(&merged, PidKey::Stage);
            prop_assert!(json.starts_with('['), "{}", json);
        }
    }
}
