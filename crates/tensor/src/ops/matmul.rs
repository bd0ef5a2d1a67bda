//! Matrix multiplication and its two gradient halves, on the blocked,
//! panel-packed kernel engine.
//!
//! For `C = A · B` with `A: [m,k]` (activations) and `B: [k,n]` (weights):
//!
//! * the *input gradient* `dA = dC · Bᵀ` is on the pipeline's critical
//!   path (it feeds the previous layer / previous stage);
//! * the *weight gradient* `dB = Aᵀ · dC` has no consumers until the
//!   optimizer step and can float — this is the GEMM MEPipe queues and
//!   drains opportunistically (Section 5).
//!
//! All three share one engine (`gemm_into`): the right-hand operand is
//! packed into `NR`-wide column strips (a [`PackedB`]), and a
//! register-tiled `MR×NR` micro-kernel accumulates each tile of the
//! output along the inner dimension with no per-element branches —
//! written so the autovectorizer emits SIMD for the `NR`-wide inner loop
//! and keeps the accumulator tile in registers. Operands are read
//! through `View`s (a strided, optionally transposed window of a
//! row-major buffer), and the output can be a strided window too, so no
//! transposed temporary is ever materialised and attention runs each
//! head's GEMMs on its columns of the `[tokens, hidden]` activations in
//! place. The left operand is never packed except at a ragged edge: a
//! row-major one is read row by row, and a transposed one (the
//! weight-gradient form `Aᵀ·`) already lays each `MR`-row micro-panel
//! out contiguously at every inner index. Row blocks are
//! distributed over a [`KernelPool`] — unless the GEMM is below its
//! parallel break-even size (`PAR_FLOP_FLOOR`), where the spawn/join
//! overhead loses and the blocks run inline instead. Because every
//! output element is written by exactly one block and the accumulation
//! order along the inner dimension is fixed, results are bit-identical
//! across worker counts (and across the inline fallback).
//!
//! The weight-gradient form also comes in an accumulating flavour,
//! [`matmul_wgrad_acc_in`]: `g += Aᵀ · dC` added in the kernel's store,
//! with no `[in, out]` temporary. The micro-kernel sums each tile along
//! the inner dimension in registers from zero, so when that dimension
//! fits one `KC` block (every slice here) the store's `g + tile` is the
//! same addition `g.add_assign(&matmul_wgrad_in(..))` makes, bit for
//! bit; past `KC` it is exactly that.
//!
//! Who packs B is explicit. [`matmul_in`], [`matmul_dgrad_in`] and
//! [`matmul_wgrad_in`] pack it per call into arena scratch, which suits
//! one-shot operands. A weight feeds one forward and one input-gradient
//! GEMM per slice per micro-batch, so its owner packs it once per
//! optimizer step ([`PackedB`]) and calls [`matmul_packed_in`] at every
//! use; the arithmetic is the same, so results are bit-identical.
//!
//! The original scalar triple loops survive in [`crate::ops::naive`] as
//! the reference the parity proptests and the `kernels` bench run
//! against.

use crate::arena;
use crate::pool::{row_blocks, KernelPool};
use crate::tensor::Tensor;

/// Rows of one register tile (micro-panel height of the packed A). The
/// tile's `MR × (NR/lanes)` accumulator vectors are independent FMA
/// chains, which must outnumber the FMA unit's latency×throughput
/// product or the micro-kernel is latency-bound, not throughput-bound.
/// On AVX-512 (16 lanes) eight rows make 16 chains in half of the 32
/// vector registers. Eight rows also split a 16- or 32-token slice into
/// whole panels, so slice GEMMs have no ragged edge panel.
const MR: usize = 8;
/// Columns of one register tile (strip width of the packed B): a
/// multiple of the widest SSE/AVX f32 lane count the autovectorizer
/// targets.
const NR: usize = 32;
/// Rows per cache block of C, a multiple of `MR` — also the parallel
/// grain handed to the pool, fixed so chunking (and thus accumulation
/// grouping) never depends on the worker count.
const MC: usize = 48;
/// Inner-dimension block: one `MC×KC` A panel (~48 KiB) plus one `KC×NR`
/// B strip (~8 KiB) stay cache-resident under the accumulator tile.
const KC: usize = 256;
/// The row a ragged row-major panel borrows for its missing rows.
static ZERO_ROW: [f32; KC] = [0.0; KC];
/// FLOP count (`2·m·n·k`) below which [`gemm_into`] ignores the pool and runs
/// the row blocks inline. Fanning out pays a scoped-thread spawn plus a
/// join on every call (tens of microseconds) and splits a working set
/// that fits one core's cache across several; below this much
/// arithmetic those costs outweigh the parallel win — on the bench grid
/// multi-worker *lost* to single-worker up through 512³
/// (`2·512³ ≈ 2.7e8` FLOPs). Chunking is untouched (the grain stays
/// [`MC`]) and a 1-worker `for_each` visits blocks in index order, so
/// the inline path is bit-identical to the fanned-out one.
#[cfg(not(test))]
const PAR_FLOP_FLOOR: usize = 1 << 30;
/// Unit tests shrink the floor so test-sized shapes still exercise the
/// parallel path.
#[cfg(test)]
const PAR_FLOP_FLOOR: usize = 1 << 16;

/// A logical `[rows, cols]` operand over row-major storage with row
/// stride `stride`, optionally transposed. Kernels read through this
/// view, which is how the dgrad (`· Bᵀ`) and wgrad (`Aᵀ ·`) forms reuse
/// the one engine without materialising a transpose, and how a head's
/// columns of a wider activation are read in place.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    /// Storage from the operand's first element on.
    data: &'a [f32],
    stride: usize,
    trans: bool,
    rows: usize,
    cols: usize,
}

impl<'a> View<'a> {
    fn normal(t: &'a Tensor) -> Self {
        Self::block(t, 0, t.rows(), 0, t.cols())
    }

    /// Rows `r0..r0 + rows`, columns `c0..c0 + cols` of `t`, in place.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds `t`.
    pub(crate) fn block(t: &'a Tensor, r0: usize, rows: usize, c0: usize, cols: usize) -> Self {
        assert!(
            r0 + rows <= t.rows() && c0 + cols <= t.cols(),
            "view out of range"
        );
        View {
            data: &t.data()[(r0 * t.cols() + c0).min(t.len())..],
            stride: t.cols(),
            trans: false,
            rows,
            cols,
        }
    }

    fn transposed(t: &'a Tensor) -> Self {
        Self::normal(t).t()
    }

    /// The same storage read as its transpose.
    pub(crate) fn t(self) -> Self {
        View {
            trans: !self.trans,
            rows: self.cols,
            cols: self.rows,
            ..self
        }
    }

    #[inline(always)]
    fn get(&self, r: usize, c: usize) -> f32 {
        if self.trans {
            self.data[c * self.stride + r]
        } else {
            self.data[r * self.stride + c]
        }
    }
}

/// The `rows × cols` window at `(r0, c0)` of a row-major buffer with
/// row stride `ld`, as the flat slice from its first element to its
/// last — the output form [`gemm_into`] writes.
pub(crate) fn window(
    data: &mut [f32],
    ld: usize,
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
) -> &mut [f32] {
    if rows == 0 || cols == 0 {
        return &mut [];
    }
    &mut data[r0 * ld + c0..(r0 + rows - 1) * ld + c0 + cols]
}

/// A right-hand GEMM operand packed into the engine's `NR`-wide strips:
/// strip `s` holds, for each inner index `p`, the `NR` values
/// `b[p, s*NR..]` contiguously (zero-padded past the last column), so
/// the micro-kernel streams it linearly. The strips start on a 64-byte
/// boundary so no vector load in the micro-kernel splits a cache line.
///
/// A pack is a snapshot of its weight: build it once per optimizer step
/// and pass it to [`matmul_packed_in`] at every use.
pub struct PackedB {
    /// Inner dimension: rows of the logical `[k, n]` operand.
    k: usize,
    /// Output columns of the logical `[k, n]` operand.
    n: usize,
    buf: Vec<f32>,
    /// Element offset of the first strip inside `buf`.
    off: usize,
}

impl PackedB {
    /// Packs `w` as the B operand of `x · W`.
    pub fn new(w: &Tensor) -> Self {
        Self::pack(View::normal(w), arena::aligned)
    }

    /// Packs `w` as the B operand of `dy · Wᵀ`, the input-gradient form;
    /// the transpose is absorbed by a column-strided packing pass.
    pub fn transposed(w: &Tensor) -> Self {
        Self::pack(View::transposed(w), arena::aligned)
    }

    /// Elements of the strip buffer, padding included.
    fn len(k: usize, n: usize) -> usize {
        n.div_ceil(NR) * k * NR
    }

    /// Packs `b` into an aligned buffer from `alloc`, whose contents
    /// may be arbitrary: every element is written, the padding past the
    /// last column with zeros.
    fn pack(b: View, alloc: fn(usize) -> (Vec<f32>, usize)) -> Self {
        let (k, n) = (b.rows, b.cols);
        let (mut buf, off) = alloc(Self::len(k, n));
        for s in 0..n.div_ceil(NR) {
            let col0 = s * NR;
            let cols = NR.min(n - col0);
            let strip = &mut buf[off + s * k * NR..][..k * NR];
            for (p, dst) in strip.chunks_exact_mut(NR).enumerate() {
                let (dst, pad) = dst.split_at_mut(cols);
                if b.trans {
                    for (jj, d) in dst.iter_mut().enumerate() {
                        *d = b.data[(col0 + jj) * b.stride + p];
                    }
                } else {
                    dst.copy_from_slice(&b.data[p * b.stride + col0..][..cols]);
                }
                pad.fill(0.0);
            }
        }
        Self { k, n, buf, off }
    }

    /// The strips, from the first aligned element.
    fn strips(&self) -> &[f32] {
        &self.buf[self.off..]
    }
}

/// Packs the ragged last micro-panel of a transposed left operand:
/// rows `r0..r0 + rows` (`rows < MR`), inner indices `pk..pk + kc`,
/// `MR` values per inner index with the missing rows zero.
fn pack_edge_panel(a: View, r0: usize, rows: usize, pk: usize, kc: usize, buf: &mut [f32]) {
    for (p, dst) in buf[..kc * MR].chunks_exact_mut(MR).enumerate() {
        for (ii, d) in dst.iter_mut().enumerate() {
            *d = if ii < rows {
                a.get(r0 + ii, pk + p)
            } else {
                0.0
            };
        }
    }
}

/// Fused multiply-add when the target has an FMA unit (one rounding,
/// `vfmadd` under AVX2/AVX-512), plain multiply-add otherwise. rustc
/// never contracts `a * b + c` on its own, so the fusion — which roughly
/// doubles micro-kernel throughput — has to be asked for explicitly.
/// Either form is deterministic for a given build.
#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        c + a * b
    }
}

/// The register-tiled inner loop: returns `init + Σ_p a_p ⊗ b_strip`
/// over `kc = bp.len() / NR` inner indices, where `a_p` is the `MR`
/// values at `ap[p * lda..]` — a packed panel (`lda == MR`) or a
/// transposed operand read in place (`lda` its row stride). Constant
/// trip counts let the `NR`-wide loop vectorize, and there are no
/// data-dependent branches. The accumulator is taken and returned *by
/// value*: mutating it through a `&mut` reference makes LLVM keep the
/// in-memory copy coherent — one stack store per FMA — where a local
/// array lives purely in registers.
#[inline]
fn micro_kernel(ap: &[f32], lda: usize, bp: &[f32], init: [[f32; NR]; MR]) -> [[f32; NR]; MR] {
    let mut acc = init;
    for (a, b) in ap.chunks(lda).zip(bp.chunks_exact(NR)) {
        for (accr, &av) in acc.iter_mut().zip(&a[..MR]) {
            for (c, &bv) in accr.iter_mut().zip(b) {
                *c = fmadd(av, bv, *c);
            }
        }
    }
    acc
}

/// [`micro_kernel`] reading the left operand straight from `MR` source
/// rows instead of a packed panel. A row-major (non-transposed) left
/// operand already has each tile row contiguous over the inner indices,
/// so packing it would only copy data the broadcast loads can read in
/// place — skipping the copy removes the whole pack-A pass from the
/// `matmul`/`dgrad` hot path. Accumulation order is identical to the
/// packed kernel, so both paths produce bit-identical results. Each
/// `a_rows[r]` must hold exactly `bp.len() / NR` values.
#[inline]
fn micro_kernel_rows(a_rows: &[&[f32]; MR], bp: &[f32], init: [[f32; NR]; MR]) -> [[f32; NR]; MR] {
    let mut acc = init;
    for (p, b) in bp.chunks_exact(NR).enumerate() {
        for (accr, ar) in acc.iter_mut().zip(a_rows) {
            let av = ar[p];
            for (c, &bv) in accr.iter_mut().zip(b) {
                *c = fmadd(av, bv, *c);
            }
        }
    }
    acc
}

/// `dst.copy_from_slice(src)` for a tile row of at most `NR` values, as
/// constant-length moves (`NR`, then halves down to one value): a
/// runtime-length copy is a `memcpy` call per row, which at attention's
/// narrow tiles costs as much as the arithmetic.
#[inline(always)]
fn copy_row(dst: &mut [f32], src: &[f32]) {
    let mut at = 0;
    for width in [NR, 16, 8, 4, 2, 1] {
        if dst.len() - at >= width {
            dst[at..at + width].copy_from_slice(&src[at..at + width]);
            at += width;
        }
    }
}

/// How [`gemm_into`] writes a finished tile into C.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Store {
    /// `C = A·B`: C's prior contents are ignored.
    Overwrite,
    /// `C += A·B`, added once per element as the tile is stored. Only
    /// for inner dimensions of at most `KC`, where the tile holds the
    /// whole product summed from zero.
    Add,
}

/// `dst[i] += src[i]` over a tile row.
#[inline(always)]
fn add_row(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// One `MC`-row block of the output (row stride `ldc`), sweeping the
/// shared packed B and accumulating through the micro-kernel. A
/// row-major left operand is read in place by [`micro_kernel_rows`]
/// (rows past the edge borrow a zero row); a transposed one is read in
/// place by [`micro_kernel`], except that a ragged last panel is packed
/// zero-padded per `KC` block. Either way every micro-kernel call sees
/// the values a fully packed panel would hold, in the same order.
#[allow(clippy::too_many_arguments)]
fn gemm_row_block(
    i0: usize,
    c_rows: &mut [f32],
    ldc: usize,
    n: usize,
    k: usize,
    a: View,
    b_pack: &[f32],
    store: Store,
) {
    debug_assert!(
        store == Store::Overwrite || k <= KC,
        "Store::Add needs k <= KC"
    );
    let mc = c_rows.len().div_ceil(ldc);
    let panels = mc.div_ceil(MR);
    let edge_rows = mc % MR;
    let edge_len = if a.trans && edge_rows > 0 {
        KC.min(k) * MR
    } else {
        0
    };
    let mut edge = if edge_len > 0 {
        arena::acquire_scratch(edge_len).0
    } else {
        Vec::new()
    };
    let mut pk = 0;
    while pk < k {
        let kc = KC.min(k - pk);
        if edge_len > 0 {
            pack_edge_panel(a, i0 + mc - edge_rows, edge_rows, pk, kc, &mut edge);
        }
        for (s, j0) in (0..n).step_by(NR).enumerate() {
            let cols = NR.min(n - j0);
            let bs = &b_pack[s * k * NR + pk * NR..][..kc * NR];
            for q in 0..panels {
                let r0 = q * MR;
                let rows = MR.min(mc - r0);
                let full = rows == MR && cols == NR;
                let mut acc = [[0.0f32; NR]; MR];
                // On the first KC pass C is still all zeros — skip the read.
                if pk > 0 {
                    if full {
                        // Constant-length copies let the accumulator move
                        // between registers and C without a stack bounce.
                        for (i, accr) in acc.iter_mut().enumerate() {
                            accr.copy_from_slice(&c_rows[(r0 + i) * ldc + j0..][..NR]);
                        }
                    } else {
                        for (i, accr) in acc.iter_mut().enumerate().take(rows) {
                            copy_row(&mut accr[..cols], &c_rows[(r0 + i) * ldc + j0..][..cols]);
                        }
                    }
                }
                let acc = if a.trans {
                    // One call site, so the kernel inlines and its
                    // accumulator stays in registers.
                    let (ap, lda) = if rows == MR {
                        (&a.data[pk * a.stride + i0 + r0..], a.stride)
                    } else {
                        (&edge[..], MR)
                    };
                    micro_kernel(ap, lda, bs, acc)
                } else {
                    let mut a_rows: [&[f32]; MR] = [&ZERO_ROW[..kc]; MR];
                    for (ii, ar) in a_rows.iter_mut().enumerate().take(rows) {
                        *ar = &a.data[(i0 + r0 + ii) * a.stride + pk..][..kc];
                    }
                    micro_kernel_rows(&a_rows, bs, acc)
                };
                match (store, full) {
                    (Store::Overwrite, true) => {
                        for (i, accr) in acc.iter().enumerate() {
                            c_rows[(r0 + i) * ldc + j0..][..NR].copy_from_slice(accr);
                        }
                    }
                    (Store::Overwrite, false) => {
                        for (i, accr) in acc.iter().enumerate().take(rows) {
                            copy_row(&mut c_rows[(r0 + i) * ldc + j0..][..cols], &accr[..cols]);
                        }
                    }
                    (Store::Add, true) => {
                        for (i, accr) in acc.iter().enumerate() {
                            add_row(&mut c_rows[(r0 + i) * ldc + j0..][..NR], accr);
                        }
                    }
                    (Store::Add, false) => {
                        for (i, accr) in acc.iter().enumerate().take(rows) {
                            add_row(&mut c_rows[(r0 + i) * ldc + j0..][..cols], &accr[..cols]);
                        }
                    }
                }
            }
        }
        pk += kc;
    }
    if edge_len > 0 {
        arena::release_scratch(edge_len, edge);
    }
}

/// Shared engine: logical `C[m, n] = A[m, k] · B[k, n]` with `A` any
/// view and `B` already packed, stored into `c`, a [`window`] of row
/// stride `ldc`; entries of `c` between the window's rows are left
/// alone (or, under [`Store::Add`], added to). Row blocks of C fan out
/// over the pool.
fn gemm_into(pool: &KernelPool, a: View, b: &PackedB, c: &mut [f32], ldc: usize, store: Store) {
    let (m, n, k) = (a.rows, b.n, b.k);
    assert_eq!(b.k, a.cols, "gemm inner dimension mismatch");
    if m == 0 || n == 0 {
        return;
    }
    assert_eq!(c.len(), (m - 1) * ldc + n, "output window shape mismatch");
    if k == 0 {
        if store == Store::Overwrite {
            for row in c.chunks_mut(ldc) {
                row[..n].fill(0.0);
            }
        }
        return;
    }
    if m <= MC || 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k) < PAR_FLOP_FLOOR {
        // Below the break-even size the blocks run inline, in index
        // order, exactly as a one-worker pool would run them.
        for (i, c_rows) in c.chunks_mut(MC * ldc).enumerate() {
            gemm_row_block(i * MC, c_rows, ldc, n, k, a, b.strips(), store);
        }
        return;
    }
    let mut blocks = row_blocks(c, ldc, MC);
    pool.for_each(&mut blocks, |_, (i0, c_rows)| {
        gemm_row_block(*i0, c_rows, ldc, n, k, a, b.strips(), store);
    });
}

/// [`gemm_into`] a fresh `[m, n]` tensor.
fn gemm(pool: &KernelPool, a: View, b: &PackedB) -> Tensor {
    // Every output element is stored on the first KC pass (the kernel
    // skips the C read when `pk == 0`), so a zero-fill would be dead.
    let mut out = Tensor::uninit(a.rows, b.n);
    let n = out.cols();
    gemm_into(pool, a, b, out.data_mut(), n, Store::Overwrite);
    out
}

/// [`gemm_into`] against a one-shot B: packs it into arena scratch,
/// runs, and hands the scratch back.
pub(crate) fn gemm_once_into(pool: &KernelPool, a: View, b: View, c: &mut [f32], ldc: usize) {
    let packed = PackedB::pack(b, arena::acquire_scratch);
    gemm_into(pool, a, &packed, c, ldc, Store::Overwrite);
    arena::release_scratch(PackedB::len(packed.k, packed.n), packed.buf);
}

/// [`gemm_once_into`] a fresh `[m, n]` tensor.
fn gemm_once(pool: &KernelPool, a: View, b: View) -> Tensor {
    let mut out = Tensor::uninit(a.rows, b.cols);
    let n = out.cols();
    gemm_once_into(pool, a, b, out.data_mut(), n);
    out
}

/// `C = A · B`.
///
/// # Panics
///
/// Panics if inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_in(KernelPool::shared_serial(), a, b)
}

/// `C = A · B` on a worker pool, packing `B` for this one call.
///
/// # Panics
///
/// Panics if inner dimensions disagree.
pub fn matmul_in(pool: &KernelPool, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    gemm_once(pool, View::normal(a), View::normal(b))
}

/// `C = A · B` against a prebuilt pack on a worker pool: `A · W` for a
/// [`PackedB::new`] pack, `A · Wᵀ` for a [`PackedB::transposed`] one.
/// Bit-identical to [`matmul_in`] / [`matmul_dgrad_in`] on the packed
/// weight.
///
/// # Panics
///
/// Panics if inner dimensions disagree.
pub fn matmul_packed_in(pool: &KernelPool, a: &Tensor, b: &PackedB) -> Tensor {
    assert_eq!(a.cols(), b.k, "matmul inner dimension mismatch");
    gemm(pool, View::normal(a), b)
}

/// Input gradient of a matmul: `dA = dC · Bᵀ`.
///
/// # Panics
///
/// Panics if column counts disagree.
pub fn matmul_dgrad(dc: &Tensor, b: &Tensor) -> Tensor {
    matmul_dgrad_in(KernelPool::shared_serial(), dc, b)
}

/// Input gradient of a matmul on a worker pool: `dA = dC · Bᵀ`, with the
/// transpose absorbed by packing (no `Bᵀ` temporary).
///
/// # Panics
///
/// Panics if column counts disagree.
pub fn matmul_dgrad_in(pool: &KernelPool, dc: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(dc.cols(), b.cols(), "dgrad dimension mismatch");
    gemm_once(pool, View::normal(dc), View::transposed(b))
}

/// Weight gradient of a matmul: `dB = Aᵀ · dC`.
///
/// # Panics
///
/// Panics if row counts disagree.
pub fn matmul_wgrad(a: &Tensor, dc: &Tensor) -> Tensor {
    matmul_wgrad_in(KernelPool::shared_serial(), a, dc)
}

/// Weight gradient of a matmul on a worker pool: `dB = Aᵀ · dC`, with the
/// transpose absorbed by packing (no `Aᵀ` temporary).
///
/// # Panics
///
/// Panics if row counts disagree.
pub fn matmul_wgrad_in(pool: &KernelPool, a: &Tensor, dc: &Tensor) -> Tensor {
    assert_eq!(a.rows(), dc.rows(), "wgrad dimension mismatch");
    gemm_once(pool, View::transposed(a), View::normal(dc))
}

/// Adds a matmul's weight gradient into `g` on a worker pool:
/// `g += Aᵀ · dC`, bit-identical to
/// `g.add_assign(&matmul_wgrad_in(pool, a, dc))`. When the inner
/// dimension (`A`'s rows: a slice's tokens) fits one `KC` block, each
/// tile is added into `g` as it is stored and no `[in, out]` temporary
/// exists; above `KC` (or at zero rows) it is that two-pass form.
///
/// # Panics
///
/// Panics if row counts disagree or `g` is not `[A.cols, dC.cols]`.
pub fn matmul_wgrad_acc_in(pool: &KernelPool, a: &Tensor, dc: &Tensor, g: &mut Tensor) {
    assert_eq!(a.rows(), dc.rows(), "wgrad dimension mismatch");
    assert_eq!(
        (g.rows(), g.cols()),
        (a.cols(), dc.cols()),
        "wgrad target shape mismatch"
    );
    let k = a.rows();
    if k == 0 || k > KC {
        g.add_assign(&matmul_wgrad_in(pool, a, dc));
        return;
    }
    let packed = PackedB::pack(View::normal(dc), arena::acquire_scratch);
    let ldc = g.cols();
    gemm_into(
        pool,
        View::transposed(a),
        &packed,
        g.data_mut(),
        ldc,
        Store::Add,
    );
    arena::release_scratch(PackedB::len(packed.k, packed.n), packed.buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng, uniform};
    use crate::ops::naive;

    fn finite_diff_check(
        f: &dyn Fn(&Tensor) -> f32,
        x: &Tensor,
        analytic: &Tensor,
        eps: f32,
        tol: f32,
    ) {
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.at(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.at(r, c) - eps);
                let num = (f(&xp) - f(&xm)) / (2.0 * eps);
                let ana = analytic.at(r, c);
                assert!(
                    (num - ana).abs() < tol,
                    "grad mismatch at ({r},{c}): numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn small_matmul_is_exact() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn kernel_matches_naive_at_awkward_shapes() {
        // Shapes straddling every blocking boundary: below MR/NR, exact
        // multiples, one past MC and KC.
        let shapes = [
            (1, 1, 1),
            (5, 7, 3),
            (MR, NR, 4),
            (MR + 1, NR + 1, KC + 1),
            (MC, 2 * NR, KC),
            (MC + 1, NR - 1, 2 * KC + 3),
            (2 * MC + 5, 3 * NR + 2, 17),
        ];
        for (m, k, n) in shapes {
            let mut r = rng((m * 31 + k * 7 + n) as u64);
            let a = uniform(m, k, 1.0, &mut r);
            let b = uniform(k, n, 1.0, &mut r);
            let dc = uniform(m, n, 1.0, &mut r);
            assert!(
                matmul(&a, &b).max_abs_diff(&naive::matmul(&a, &b)) < 1e-5,
                "fwd mismatch at {m}x{k}x{n}"
            );
            assert!(
                matmul_dgrad(&dc, &b).max_abs_diff(&naive::matmul_dgrad(&dc, &b)) < 1e-5,
                "dgrad mismatch at {m}x{k}x{n}"
            );
            assert!(
                matmul_wgrad(&a, &dc).max_abs_diff(&naive::matmul_wgrad(&a, &dc)) < 1e-5,
                "wgrad mismatch at {m}x{k}x{n}"
            );
            // A prebuilt pack of either form is bit-identical to packing
            // per call, at every worker count.
            let (fwd, dgrad) = (PackedB::new(&b), PackedB::transposed(&b));
            for workers in 1..=4 {
                let pool = KernelPool::new(workers);
                assert_eq!(
                    matmul_packed_in(&pool, &a, &fwd).data(),
                    matmul_in(&pool, &a, &b).data(),
                    "packed fwd bits at {m}x{k}x{n}, {workers} workers"
                );
                assert_eq!(
                    matmul_packed_in(&pool, &dc, &dgrad).data(),
                    matmul_dgrad_in(&pool, &dc, &b).data(),
                    "packed dgrad bits at {m}x{k}x{n}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn multi_worker_is_bit_identical_to_serial() {
        let mut r = rng(99);
        // Big enough to clear the (test-shrunk) break-even floor, so the
        // parallel path really runs.
        let a = uniform(3 * MC + 7, 100, 1.0, &mut r);
        let b = uniform(100, 37, 1.0, &mut r);
        let serial = matmul(&a, &b);
        for workers in [2, 3, 4] {
            let pool = KernelPool::new(workers);
            let par = matmul_in(&pool, &a, &b);
            assert_eq!(pool.parallel_dispatches(), 1, "expected a fan-out");
            assert_eq!(
                serial.data(),
                par.data(),
                "worker count {workers} changed bits"
            );
        }
    }

    #[test]
    fn below_break_even_matmul_ignores_the_pool() {
        // 100 rows make three row blocks, but only ~3e3 FLOPs — far
        // below the floor, so the pool must not spawn workers and the
        // result must still be right.
        let mut r = rng(7);
        let a = uniform(100, 4, 1.0, &mut r);
        let b = uniform(4, 4, 1.0, &mut r);
        let pool = KernelPool::new(4);
        let c = matmul_in(&pool, &a, &b);
        assert_eq!(pool.parallel_dispatches(), 0, "tiny GEMM fanned out");
        assert!(c.max_abs_diff(&naive::matmul(&a, &b)) < 1e-5);
    }

    #[test]
    fn dgrad_matches_finite_differences() {
        let mut r = rng(3);
        let a = uniform(3, 4, 1.0, &mut r);
        let b = uniform(4, 2, 1.0, &mut r);
        // Scalar objective: sum of C.
        let loss = |a: &Tensor| matmul(a, &b).data().iter().sum::<f32>();
        let dc = Tensor::from_vec(3, 2, vec![1.0; 6]);
        let da = matmul_dgrad(&dc, &b);
        finite_diff_check(&loss, &a, &da, 1e-3, 1e-2);
    }

    #[test]
    fn wgrad_matches_finite_differences() {
        let mut r = rng(4);
        let a = uniform(3, 4, 1.0, &mut r);
        let b = uniform(4, 2, 1.0, &mut r);
        let loss = |b: &Tensor| matmul(&a, b).data().iter().sum::<f32>();
        let dc = Tensor::from_vec(3, 2, vec![1.0; 6]);
        let db = matmul_wgrad(&a, &dc);
        finite_diff_check(&loss, &b, &db, 1e-3, 1e-2);
    }

    #[test]
    fn wgrad_sums_over_row_slices() {
        // The slice-equivalence property MEPipe relies on: the weight
        // gradient over a whole batch equals the sum over token slices.
        let mut r = rng(5);
        let a = uniform(8, 4, 1.0, &mut r);
        let dc = uniform(8, 3, 1.0, &mut r);
        let whole = matmul_wgrad(&a, &dc);
        let mut parts = matmul_wgrad(&a.slice_rows(0, 3), &dc.slice_rows(0, 3));
        parts.add_assign(&matmul_wgrad(&a.slice_rows(3, 5), &dc.slice_rows(3, 5)));
        assert!(whole.max_abs_diff(&parts) < 1e-5);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Adding in the store is the two-pass `add_assign` bit for bit,
        /// on a non-zero target: output rows straddle `MR` (ragged
        /// transposed edge panels) and `MC`, columns straddle `NR`, the
        /// inner dimension sits on both sides of `KC`, and 3 workers fan
        /// out (this build's break-even floor is shrunk).
        #[test]
        fn wgrad_acc_is_add_assign_of_wgrad_bit_for_bit(
            m in proptest::sample::select(vec![1, MR - 1, MR, MR + 1, MC - 1, MC + 1, 2 * MC + 5]),
            n in proptest::sample::select(vec![1, NR - 1, NR, NR + 1, 3 * NR + 2]),
            k in proptest::sample::select(vec![1, 7, 32, KC - 1, KC, KC + 1, 2 * KC + 3]),
            workers in proptest::sample::select(vec![1usize, 3]),
            seed in 0u64..1000,
        ) {
            let mut r = rng(seed);
            let a = uniform(k, m, 1.0, &mut r);
            let dc = uniform(k, n, 1.0, &mut r);
            let target = uniform(m, n, 1.0, &mut r);
            let pool = KernelPool::new(workers);
            let mut want = target.clone();
            want.add_assign(&matmul_wgrad_in(&pool, &a, &dc));
            let mut got = target;
            matmul_wgrad_acc_in(&pool, &a, &dc, &mut got);
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn empty_inner_dimension_gives_zeros() {
        let c = matmul(&Tensor::zeros(3, 0), &Tensor::zeros(0, 4));
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 4);
        assert!(c.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn dimension_mismatch_panics() {
        matmul(&Tensor::zeros(2, 3), &Tensor::zeros(2, 3));
    }
}
