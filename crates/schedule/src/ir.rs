//! The schedule intermediate representation.
//!
//! Coordinates follow the paper's notation (Table 1): `p` pipeline stages,
//! `v` virtual chunks per stage, `s` sequence slices per sample, `n`
//! micro-batches per iteration. A schedulable unit is identified by
//! `(micro_batch, slice, chunk)` on a stage; its *global position* along
//! the forward chain is determined by the chunk-placement policy.

use std::fmt;

/// The kind of one schedulable operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Forward pass of one slice through one chunk.
    Forward,
    /// Fused backward pass (input and weight gradients together).
    Backward,
    /// Input-gradient half of a split backward (zero-bubble style "B").
    BackwardInput,
    /// Weight-gradient half of a split backward (zero-bubble style "W").
    BackwardWeight,
}

impl OpKind {
    /// Single-letter tag used by renderers and debug output.
    pub fn letter(self) -> char {
        match self {
            OpKind::Forward => 'F',
            OpKind::Backward => 'B',
            OpKind::BackwardInput => 'b',
            OpKind::BackwardWeight => 'W',
        }
    }

    /// Whether this op is a (full or input-) backward pass.
    pub fn is_backward_pass(self) -> bool {
        matches!(self, OpKind::Backward | OpKind::BackwardInput)
    }
}

/// One schedulable operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Op {
    /// What the op computes.
    pub kind: OpKind,
    /// Micro-batch index in `[0, n)`.
    pub micro_batch: usize,
    /// Sequence-slice index in `[0, s)`.
    pub slice: usize,
    /// Local virtual-chunk index in `[0, v)`.
    pub chunk: usize,
}

impl Op {
    /// Constructs an op.
    pub fn new(kind: OpKind, micro_batch: usize, slice: usize, chunk: usize) -> Self {
        Self {
            kind,
            micro_batch,
            slice,
            chunk,
        }
    }

    /// The same coordinates with a different kind.
    pub fn with_kind(self, kind: OpKind) -> Self {
        Self { kind, ..self }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(mb{},sl{},ck{})",
            self.kind.letter(),
            self.micro_batch,
            self.slice,
            self.chunk
        )
    }
}

/// How virtual chunks are laid out across stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkPlacement {
    /// Megatron interleaving: chunk `c` of stage `w` sits at global
    /// position `c·p + w`; the forward chain loops over the stages `v`
    /// times in the same direction.
    Interleaved,
    /// ZBV / wave "V" placement (requires `v = 2`): chunk 0 descends the
    /// stages (`g = w`), chunk 1 climbs back up (`g = 2p − 1 − w`), so each
    /// worker's two chunks are visited symmetrically.
    VShape,
    /// Hanayo-style wave placement for any `v`: even chunks descend the
    /// stages, odd chunks climb back (a zigzag of `v` waves). Identical to
    /// [`ChunkPlacement::VShape`] at `v = 2`.
    Wave,
    /// DualPipe bidirectional placement (requires `v = 2`, even `n`): the
    /// model is replicated, not interleaved. Stage `w` holds model block
    /// `w` in chunk 0 and block `p − 1 − w` in chunk 1, so *even*
    /// micro-batches traverse the stages `0 → p−1` through the chunk-0
    /// copies while *odd* micro-batches traverse `p−1 → 0` through the
    /// chunk-1 copies. Each micro-batch's forward chain has length `p`
    /// (not `p·v`), and which stage owns a chain position depends on the
    /// micro-batch's direction — use the `ScheduleMeta::chain_*` methods,
    /// which take the micro-batch, instead of the placement-level maps.
    Bidirectional,
}

impl ChunkPlacement {
    /// Global position along the forward chain of `(stage, chunk)` for a
    /// pipeline of `p` stages.
    pub fn global_pos(self, p: usize, stage: usize, chunk: usize) -> usize {
        match self {
            ChunkPlacement::Interleaved => chunk * p + stage,
            ChunkPlacement::VShape => {
                if chunk == 0 {
                    stage
                } else {
                    2 * p - 1 - stage
                }
            }
            ChunkPlacement::Wave => {
                if chunk.is_multiple_of(2) {
                    chunk * p + stage
                } else {
                    chunk * p + (p - 1 - stage)
                }
            }
            // For bidirectional placement the *model block* index: chunk 0
            // of stage `w` is block `w`, chunk 1 is the replica of block
            // `p − 1 − w`. Chain traversal is per-micro-batch — see
            // `ScheduleMeta::chain_pos`.
            ChunkPlacement::Bidirectional => {
                if chunk == 0 {
                    stage
                } else {
                    p - 1 - stage
                }
            }
        }
    }

    /// Inverse of [`ChunkPlacement::global_pos`].
    ///
    /// # Panics
    ///
    /// For [`ChunkPlacement::Bidirectional`] the block → `(stage, chunk)`
    /// map is two-valued (every block has a chunk-0 and a chunk-1 host),
    /// so this panics; callers must use
    /// [`ScheduleMeta::chain_stage_chunk`], which disambiguates by
    /// micro-batch direction.
    pub fn stage_chunk_of(self, p: usize, g: usize) -> (usize, usize) {
        match self {
            ChunkPlacement::Interleaved => (g % p, g / p),
            ChunkPlacement::VShape => {
                if g < p {
                    (g, 0)
                } else {
                    (2 * p - 1 - g, 1)
                }
            }
            ChunkPlacement::Wave => {
                let c = g / p;
                let r = g % p;
                if c.is_multiple_of(2) {
                    (r, c)
                } else {
                    (p - 1 - r, c)
                }
            }
            ChunkPlacement::Bidirectional => {
                panic!("bidirectional placement has no micro-batch-independent chain; use ScheduleMeta::chain_stage_chunk")
            }
        }
    }
}

/// Static description of a schedule's shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScheduleMeta {
    /// Scheduling-method name for reports (e.g. `"DAPPLE"`, `"SVPP"`).
    pub name: String,
    /// Pipeline stages `p`.
    pub stages: usize,
    /// Virtual chunks per stage `v`.
    pub virtual_chunks: usize,
    /// Sequence slices per sample `s`.
    pub slices: usize,
    /// Micro-batches per iteration `n`.
    pub micro_batches: usize,
    /// Whether backward passes are split into input- and weight-gradient
    /// halves (zero-bubble style).
    pub split_backward: bool,
    /// Chunk placement policy.
    pub placement: ChunkPlacement,
}

impl ScheduleMeta {
    /// Total virtual chunk positions along the forward chain.
    pub fn total_chunks(&self) -> usize {
        self.stages * self.virtual_chunks
    }

    /// Global position of `(stage, chunk)`.
    pub fn global_pos(&self, stage: usize, chunk: usize) -> usize {
        self.placement.global_pos(self.stages, stage, chunk)
    }

    /// `(stage, chunk)` owning global position `g`.
    pub fn stage_chunk_of(&self, g: usize) -> (usize, usize) {
        self.placement.stage_chunk_of(self.stages, g)
    }

    /// Whether micro-batches enter the pipeline from both ends.
    pub fn bidirectional(&self) -> bool {
        self.placement == ChunkPlacement::Bidirectional
    }

    /// Length of one micro-batch's forward chain. Equal to
    /// [`ScheduleMeta::total_chunks`] for interleaved placements; `p` for
    /// bidirectional placement, where each micro-batch crosses every stage
    /// exactly once.
    pub fn chain_len(&self) -> usize {
        if self.bidirectional() {
            self.stages
        } else {
            self.total_chunks()
        }
    }

    /// Last chain position (where the loss is computed for a micro-batch).
    pub fn last_chain_pos(&self) -> usize {
        self.chain_len() - 1
    }

    /// Chain position of `(stage, chunk)` along micro-batch `mb`'s
    /// forward chain. For non-bidirectional placements this is
    /// micro-batch-independent and equals [`ScheduleMeta::global_pos`].
    pub fn chain_pos(&self, mb: usize, stage: usize, chunk: usize) -> usize {
        if self.bidirectional() {
            if mb.is_multiple_of(2) {
                debug_assert_eq!(chunk, 0, "even micro-batches run in chunk 0");
                stage
            } else {
                debug_assert_eq!(chunk, 1, "odd micro-batches run in chunk 1");
                self.stages - 1 - stage
            }
        } else {
            self.global_pos(stage, chunk)
        }
    }

    /// `(stage, chunk)` that executes chain position `g` of micro-batch
    /// `mb`. Inverse of [`ScheduleMeta::chain_pos`].
    pub fn chain_stage_chunk(&self, mb: usize, g: usize) -> (usize, usize) {
        if self.bidirectional() {
            if mb.is_multiple_of(2) {
                (g, 0)
            } else {
                (self.stages - 1 - g, 1)
            }
        } else {
            self.stage_chunk_of(g)
        }
    }

    /// Which chunk micro-batch `mb` occupies on any stage it visits.
    /// Non-bidirectional micro-batches visit every chunk.
    pub fn chunk_of_mb(&self, mb: usize) -> Option<usize> {
        if self.bidirectional() {
            Some(mb % 2)
        } else {
            None
        }
    }

    /// Number of model blocks the layer stack divides into. Equals
    /// [`ScheduleMeta::total_chunks`] except under bidirectional
    /// placement, where the two chunks per stage are *replicas*: the model
    /// has `p` blocks and stage `w` hosts blocks `w` and `p − 1 − w`.
    pub fn model_blocks(&self) -> usize {
        if self.bidirectional() {
            self.stages
        } else {
            self.total_chunks()
        }
    }

    /// Model block computed by `(stage, chunk)`.
    pub fn block_of(&self, stage: usize, chunk: usize) -> usize {
        // For every placement this is exactly the placement-level
        // position map (bidirectional defines it as the block index).
        self.placement.global_pos(self.stages, stage, chunk)
    }

    /// Work units (slice × chunk × micro-batch) per worker for one op kind.
    /// Under bidirectional placement each micro-batch visits one chunk per
    /// stage, so the per-worker unit count is `n·s` rather than `n·s·v`.
    pub fn units_per_worker(&self) -> usize {
        if self.bidirectional() {
            self.micro_batches * self.slices
        } else {
            self.micro_batches * self.slices * self.virtual_chunks
        }
    }

    /// Dense index of `op` on `stage`, below [`ScheduleMeta::op_slots`]:
    /// the one key every construction loop, validator and the timing
    /// engine use for per-op state. A schedule holds either fused or
    /// input-gradient backwards (dependency derivation rejects the other
    /// kind), so the two share a slot.
    pub fn op_slot(&self, stage: usize, op: Op) -> usize {
        let kind = match op.kind {
            OpKind::Forward => 0,
            OpKind::Backward | OpKind::BackwardInput => 1,
            OpKind::BackwardWeight => 2,
        };
        let unit = (op.micro_batch * self.virtual_chunks + op.chunk) * self.slices + op.slice;
        (stage * 3 + kind) * self.units() + unit
    }

    /// Size of the [`ScheduleMeta::op_slot`] index: three kinds of every
    /// unit on every stage.
    pub fn op_slots(&self) -> usize {
        self.stages * 3 * self.units()
    }

    /// Every `(micro-batch, chunk, slice)` of the shape, whether or not
    /// the placement runs it on a given stage.
    fn units(&self) -> usize {
        self.micro_batches * self.virtual_chunks * self.slices
    }

    /// Basic shape sanity: nonzero dimensions, V-placement only at `v = 2`,
    /// bidirectional placement only at `v = 2` with an even micro-batch
    /// count (the two streams must be balanced).
    pub fn check_shape(&self) -> Result<(), String> {
        if self.stages == 0 || self.virtual_chunks == 0 || self.slices == 0 {
            return Err("stages, virtual_chunks and slices must be nonzero".into());
        }
        if self.micro_batches == 0 {
            return Err("micro_batches must be nonzero".into());
        }
        if self.placement == ChunkPlacement::VShape && self.virtual_chunks != 2 {
            return Err("V-shaped placement requires exactly 2 chunks per stage".into());
        }
        if self.placement == ChunkPlacement::Bidirectional {
            if self.virtual_chunks != 2 {
                return Err("bidirectional placement requires exactly 2 chunks per stage".into());
            }
            if !self.micro_batches.is_multiple_of(2) {
                return Err("bidirectional placement requires an even micro-batch count".into());
            }
        }
        Ok(())
    }
}

/// A complete schedule: per-worker ordered op lists plus metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Shape metadata.
    pub meta: ScheduleMeta,
    /// `workers[w]` is the ordered op list executed by stage `w`.
    pub workers: Vec<Vec<Op>>,
}

impl Schedule {
    /// Number of workers (pipeline stages).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Total ops across all workers.
    pub fn num_ops(&self) -> usize {
        self.workers.iter().map(Vec::len).sum()
    }

    /// Iterates `(worker, index_in_worker, op)` over the whole schedule.
    pub fn iter_ops(&self) -> impl Iterator<Item = (usize, usize, Op)> + '_ {
        self.workers
            .iter()
            .enumerate()
            .flat_map(|(w, ops)| ops.iter().enumerate().map(move |(i, op)| (w, i, *op)))
    }

    /// Expected op count per worker given the meta (for validation):
    /// forwards + backwards (+ weight ops when split).
    pub fn expected_ops_per_worker(&self) -> usize {
        let units = self.meta.units_per_worker();
        if self.meta.split_backward {
            3 * units
        } else {
            2 * units
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_positions_round_trip() {
        let pl = ChunkPlacement::Interleaved;
        for p in [2usize, 4, 8] {
            for v in [1usize, 2, 4] {
                for w in 0..p {
                    for c in 0..v {
                        let g = pl.global_pos(p, w, c);
                        assert_eq!(pl.stage_chunk_of(p, g), (w, c));
                        assert!(g < p * v);
                    }
                }
            }
        }
    }

    #[test]
    fn vshape_positions_round_trip() {
        let pl = ChunkPlacement::VShape;
        let p = 4;
        assert_eq!(pl.global_pos(p, 0, 0), 0);
        assert_eq!(pl.global_pos(p, 3, 0), 3);
        assert_eq!(pl.global_pos(p, 3, 1), 4);
        assert_eq!(pl.global_pos(p, 0, 1), 7);
        for g in 0..2 * p {
            let (w, c) = pl.stage_chunk_of(p, g);
            assert_eq!(pl.global_pos(p, w, c), g);
        }
    }

    #[test]
    fn vshape_first_and_last_share_stage0() {
        // The defining ZBV property: stage 0 hosts both the entry and the
        // exit chunk, so the loss is computed on stage 0.
        let pl = ChunkPlacement::VShape;
        let p = 8;
        assert_eq!(pl.stage_chunk_of(p, 0).0, 0);
        assert_eq!(pl.stage_chunk_of(p, 2 * p - 1).0, 0);
    }

    #[test]
    fn meta_shape_checks() {
        let mut m = ScheduleMeta {
            name: "t".into(),
            stages: 4,
            virtual_chunks: 2,
            slices: 2,
            micro_batches: 4,
            split_backward: false,
            placement: ChunkPlacement::Interleaved,
        };
        assert!(m.check_shape().is_ok());
        assert_eq!(m.total_chunks(), 8);
        assert_eq!(m.units_per_worker(), 16);
        m.placement = ChunkPlacement::VShape;
        assert!(m.check_shape().is_ok());
        m.virtual_chunks = 3;
        assert!(m.check_shape().is_err());
        m.virtual_chunks = 0;
        assert!(m.check_shape().is_err());
    }

    #[test]
    fn bidirectional_chains_enter_from_both_ends() {
        let m = ScheduleMeta {
            name: "dualpipe".into(),
            stages: 4,
            virtual_chunks: 2,
            slices: 2,
            micro_batches: 4,
            split_backward: true,
            placement: ChunkPlacement::Bidirectional,
        };
        assert!(m.check_shape().is_ok());
        assert!(m.bidirectional());
        assert_eq!(m.chain_len(), 4);
        assert_eq!(m.model_blocks(), 4);
        assert_eq!(m.units_per_worker(), 8);
        // Even micro-batches descend through chunk 0.
        assert_eq!(m.chain_stage_chunk(0, 0), (0, 0));
        assert_eq!(m.chain_stage_chunk(0, 3), (3, 0));
        // Odd micro-batches climb through chunk 1.
        assert_eq!(m.chain_stage_chunk(1, 0), (3, 1));
        assert_eq!(m.chain_stage_chunk(1, 3), (0, 1));
        // Round trip + both chunks of a stage map to mirrored blocks.
        for mb in 0..4 {
            for g in 0..m.chain_len() {
                let (w, c) = m.chain_stage_chunk(mb, g);
                assert_eq!(m.chain_pos(mb, w, c), g);
                assert_eq!(c, m.chunk_of_mb(mb).unwrap());
                // Chain position g always computes model block g: the
                // chunk-1 replica on stage p−1−g hosts block g.
                assert_eq!(m.block_of(w, c), g);
            }
        }
        assert_eq!(m.block_of(0, 0), 0);
        assert_eq!(m.block_of(0, 1), 3);
        assert_eq!(m.block_of(3, 1), 0);
        // Odd micro-batch count rejected.
        let odd = ScheduleMeta {
            micro_batches: 3,
            ..m.clone()
        };
        assert!(odd.check_shape().is_err());
        let v1 = ScheduleMeta {
            virtual_chunks: 1,
            ..m
        };
        assert!(v1.check_shape().is_err());
    }

    #[test]
    fn op_display_is_compact() {
        let op = Op::new(OpKind::BackwardInput, 1, 2, 0);
        assert_eq!(op.to_string(), "b(mb1,sl2,ck0)");
    }
}
