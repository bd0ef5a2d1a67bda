//! Dependency derivation for schedule operations.
//!
//! Dependencies encode the training semantics of a decoder-only
//! transformer under slice-level pipelining (Sections 2.1 and 4.1):
//!
//! * a forward pass needs the hidden states from the previous global chunk
//!   position (cross-stage transfer) *and*, because causal attention reads
//!   the key/value tensors of every preceding slice, the forward of the
//!   previous slice on the same worker;
//! * a backward pass needs the activation gradient from the next global
//!   position, its own forward's saved activations, *and* the backward of
//!   the next slice on the same worker (whose attention backward produces
//!   dK/dV contributions for this slice);
//! * a weight-gradient op needs its matching input-gradient op.

use std::{fmt, ops::Deref};

use crate::ir::{Op, OpKind, ScheduleMeta};

/// Up to three entries stored inline — the most producers or consumers any
/// op has — so listing them allocates nothing. Derefs to a slice.
#[derive(Clone, Copy)]
pub struct InlineList<T> {
    items: [T; 3],
    len: usize,
}

impl<T: Copy> InlineList<T> {
    /// An empty list; `fill` only occupies the unused entries.
    pub(crate) fn new(fill: T) -> Self {
        Self {
            items: [fill; 3],
            len: 0,
        }
    }

    /// Appends `item`; panics past three entries.
    pub(crate) fn push(&mut self, item: T) {
        self.items[self.len] = item;
        self.len += 1;
    }
}

impl<T> Deref for InlineList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<'a, T> IntoIterator for &'a InlineList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T> IntoIterator for InlineList<T> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

impl<T: fmt::Debug> fmt::Debug for InlineList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One producer an op must wait for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dep {
    /// The producing op.
    pub op: Op,
    /// Stage (worker) the producer runs on.
    pub stage: usize,
    /// Whether satisfying this dependency moves a tensor between stages.
    pub cross_stage: bool,
}

/// All producers of `op` when placed on `stage` under `meta`.
///
/// # Panics
///
/// Panics if the op's coordinates are outside the meta's shape, or if a
/// weight-gradient op appears in a non-split schedule.
pub fn dependencies(meta: &ScheduleMeta, stage: usize, op: Op) -> InlineList<Dep> {
    assert!(
        op.micro_batch < meta.micro_batches,
        "micro-batch out of range: {op}"
    );
    assert!(op.slice < meta.slices, "slice out of range: {op}");
    assert!(op.chunk < meta.virtual_chunks, "chunk out of range: {op}");
    let backward_kind = if meta.split_backward {
        OpKind::BackwardInput
    } else {
        OpKind::Backward
    };
    if let Some(c) = meta.chunk_of_mb(op.micro_batch) {
        assert_eq!(
            op.chunk, c,
            "bidirectional micro-batch on the wrong chunk: {op}"
        );
    }
    let g = meta.chain_pos(op.micro_batch, stage, op.chunk);
    let mut deps = InlineList::new(Dep {
        op,
        stage,
        cross_stage: false,
    });
    match op.kind {
        OpKind::Forward => {
            if g > 0 {
                let (pw, pc) = meta.chain_stage_chunk(op.micro_batch, g - 1);
                deps.push(Dep {
                    op: Op::new(OpKind::Forward, op.micro_batch, op.slice, pc),
                    stage: pw,
                    cross_stage: pw != stage,
                });
            }
            if op.slice > 0 {
                deps.push(Dep {
                    op: Op::new(OpKind::Forward, op.micro_batch, op.slice - 1, op.chunk),
                    stage,
                    cross_stage: false,
                });
            }
        }
        OpKind::Backward | OpKind::BackwardInput => {
            assert_eq!(
                op.kind, backward_kind,
                "backward kind must match meta.split_backward"
            );
            if g < meta.last_chain_pos() {
                let (nw, nc) = meta.chain_stage_chunk(op.micro_batch, g + 1);
                deps.push(Dep {
                    op: Op::new(backward_kind, op.micro_batch, op.slice, nc),
                    stage: nw,
                    cross_stage: nw != stage,
                });
            }
            // Saved activations from this unit's own forward.
            deps.push(Dep {
                op: Op::new(OpKind::Forward, op.micro_batch, op.slice, op.chunk),
                stage,
                cross_stage: false,
            });
            if op.slice + 1 < meta.slices {
                deps.push(Dep {
                    op: Op::new(backward_kind, op.micro_batch, op.slice + 1, op.chunk),
                    stage,
                    cross_stage: false,
                });
            }
        }
        OpKind::BackwardWeight => {
            assert!(
                meta.split_backward,
                "weight-gradient ops only exist in split-backward schedules"
            );
            deps.push(Dep {
                op: Op::new(OpKind::BackwardInput, op.micro_batch, op.slice, op.chunk),
                stage,
                cross_stage: false,
            });
        }
    }
    deps
}

/// Descendant count of a backward op on its own worker — the priority key
/// used by the Section 4.3 rescheduling pass ("we prioritize the backward
/// passes based on the number of their children").
///
/// A backward at `(slice i, chunk j)` unlocks every backward at
/// `(slice ≤ i, chunk ≤ j)` on the same worker except itself, hence
/// `(i + 1)·(j_rank + 1) − 1` where `j_rank` counts how many of the
/// worker's chunks come *after* this one in backward order.
pub fn backward_descendants(meta: &ScheduleMeta, stage: usize, op: Op) -> usize {
    debug_assert!(op.kind.is_backward_pass());
    // Under bidirectional placement a micro-batch occupies exactly one
    // chunk per worker, so there is no same-worker later chunk to unlock.
    let later_chunks = if meta.bidirectional() {
        0
    } else {
        let g = meta.global_pos(stage, op.chunk);
        // Chunks on this worker whose global position is below g (they run
        // after this one in the backward direction).
        (0..meta.virtual_chunks)
            .filter(|&c| meta.global_pos(stage, c) < g)
            .count()
    };
    (op.slice + 1) * (later_chunks + 1) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ChunkPlacement;

    fn meta(p: usize, v: usize, s: usize, split: bool) -> ScheduleMeta {
        ScheduleMeta {
            name: "test".into(),
            stages: p,
            virtual_chunks: v,
            slices: s,
            micro_batches: 4,
            split_backward: split,
            placement: ChunkPlacement::Interleaved,
        }
    }

    #[test]
    fn first_forward_has_no_deps() {
        let m = meta(4, 1, 2, false);
        let d = dependencies(&m, 0, Op::new(OpKind::Forward, 0, 0, 0));
        assert!(d.is_empty());
    }

    #[test]
    fn forward_slice_dep_stays_on_worker() {
        let m = meta(4, 1, 2, false);
        let d = dependencies(&m, 2, Op::new(OpKind::Forward, 0, 1, 0));
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|x| x.cross_stage && x.stage == 1));
        assert!(d
            .iter()
            .any(|x| !x.cross_stage && x.stage == 2 && x.op.slice == 0));
    }

    #[test]
    fn interleaved_wraparound_crosses_from_last_to_first() {
        // With v=2, chunk 1 of stage 0 (g=4) depends on chunk 0 of stage 3
        // (g=3) — the Figure 4(b) arrow.
        let m = meta(4, 2, 2, false);
        let d = dependencies(&m, 0, Op::new(OpKind::Forward, 0, 0, 1));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].stage, 3);
        assert_eq!(d[0].op.chunk, 0);
        assert!(d[0].cross_stage);
    }

    #[test]
    fn last_stage_backward_needs_own_forward_and_next_slice() {
        let m = meta(4, 1, 2, false);
        // Backward of slice 0 on the last stage (g = last).
        let d = dependencies(&m, 3, Op::new(OpKind::Backward, 0, 0, 0));
        assert_eq!(d.len(), 2);
        assert!(d
            .iter()
            .any(|x| x.op.kind == OpKind::Forward && x.op.slice == 0));
        assert!(d
            .iter()
            .any(|x| x.op.kind == OpKind::Backward && x.op.slice == 1 && !x.cross_stage));
    }

    #[test]
    fn mid_stage_backward_waits_for_downstream() {
        let m = meta(4, 1, 1, false);
        let d = dependencies(&m, 1, Op::new(OpKind::Backward, 2, 0, 0));
        assert!(d
            .iter()
            .any(|x| x.stage == 2 && x.cross_stage && x.op.kind == OpKind::Backward));
    }

    #[test]
    fn weight_op_depends_on_its_input_grad() {
        let m = meta(4, 1, 2, true);
        let d = dependencies(&m, 1, Op::new(OpKind::BackwardWeight, 0, 1, 0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].op.kind, OpKind::BackwardInput);
        assert!(!d[0].cross_stage);
    }

    #[test]
    #[should_panic(expected = "split-backward")]
    fn weight_op_in_fused_schedule_panics() {
        let m = meta(4, 1, 2, false);
        dependencies(&m, 0, Op::new(OpKind::BackwardWeight, 0, 0, 0));
    }

    #[test]
    fn descendant_counts_match_figure4_example() {
        // Section 4.3: in Figure 4(b) — p=4, v=2, s=2 — (Slice 1, Chunk 1)
        // on the last stage has 3 children.
        let m = meta(4, 2, 2, false);
        let op = Op::new(OpKind::Backward, 0, 1, 1);
        assert_eq!(backward_descendants(&m, 3, op), 3);
        // (Slice 0, Chunk 0) is a leaf.
        assert_eq!(
            backward_descendants(&m, 3, Op::new(OpKind::Backward, 0, 0, 0)),
            0
        );
    }

    #[test]
    fn bidirectional_streams_enter_from_opposite_ends() {
        let mut m = meta(4, 2, 1, true);
        m.placement = ChunkPlacement::Bidirectional;
        // Even micro-batch: slice-0 forward on stage 0 chunk 0 is a source.
        assert!(dependencies(&m, 0, Op::new(OpKind::Forward, 0, 0, 0)).is_empty());
        // Odd micro-batch: slice-0 forward on stage 3 chunk 1 is a source.
        assert!(dependencies(&m, 3, Op::new(OpKind::Forward, 1, 0, 1)).is_empty());
        // The odd stream flows downward: stage 2 chunk 1 waits on stage 3.
        let d = dependencies(&m, 2, Op::new(OpKind::Forward, 1, 0, 1));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].stage, 3);
        assert_eq!(d[0].op.chunk, 1);
        assert!(d[0].cross_stage);
        // Odd stream's loss sits on stage 0: its backward there needs only
        // its own forward.
        let d = dependencies(&m, 0, Op::new(OpKind::BackwardInput, 1, 0, 1));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].op.kind, OpKind::Forward);
        // Even stream's backward on stage 0 waits on stage 1.
        let d = dependencies(&m, 0, Op::new(OpKind::BackwardInput, 0, 0, 0));
        assert!(d
            .iter()
            .any(|x| x.cross_stage && x.stage == 1 && x.op.chunk == 0));
        // No same-worker later chunk: descendants count only slices.
        assert_eq!(
            backward_descendants(&m, 1, Op::new(OpKind::BackwardInput, 0, 0, 0)),
            0
        );
    }

    #[test]
    #[should_panic(expected = "wrong chunk")]
    fn bidirectional_wrong_chunk_panics() {
        let mut m = meta(4, 2, 1, true);
        m.placement = ChunkPlacement::Bidirectional;
        dependencies(&m, 0, Op::new(OpKind::Forward, 1, 0, 0));
    }

    #[test]
    fn vshape_backward_chain_descends() {
        let mut m = meta(4, 2, 1, true);
        m.placement = ChunkPlacement::VShape;
        // Chunk 1 of stage 0 is the last global position (loss there).
        let d = dependencies(&m, 0, Op::new(OpKind::BackwardInput, 0, 0, 1));
        // Only dep: its own forward (plus no downstream, no next slice).
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].op.kind, OpKind::Forward);
    }
}
