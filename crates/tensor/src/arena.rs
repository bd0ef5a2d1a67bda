//! The shape-keyed tensor arena: a free-list buffer pool that makes the
//! steady-state training iteration (near-)allocation-free.
//!
//! Every tensor the pipeline runtime creates per iteration — activations,
//! saved state, dKV accumulators, weight-gradient operands, GEMM packing
//! scratch — has a shape that recurs exactly on the next iteration. The
//! arena exploits that: buffers are kept on per-shape free lists
//! ("shelves") and handed back out on the next request for the same
//! shape, 64-byte-aligned and re-zeroed, so after one warmup iteration
//! most acquisitions are served from a shelf. Three kinds of allocation
//! remain in the steady state: a shape with more buffers released before
//! it is acquired again than its shelf keeps (`SHELF_CAP`, 64, or for
//! buffers under 8 KiB `SHELF_BYTES`, 512 KiB, worth) frees the
//! overflow, so its next acquisitions miss; buffers that leave the stage
//! thread (the gradients a run returns) never come back; and the
//! runtime's weight packs (`ops::PackedB`) are plain allocations by
//! design, never arena-served.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero synchronization on the hot path.** An arena is installed
//!    into thread-local storage for the duration of a stage's run
//!    ([`TensorArena::install`]); acquire and release are plain
//!    `RefCell` + `HashMap` operations, no atomics, no locks. Each
//!    pipeline stage owns its own instance — pooling never crosses a
//!    thread.
//! 2. **Value transparency.** A recycled tensor buffer is re-zeroed
//!    before it leaves the arena, so [`Tensor::zeros`] returns
//!    bit-identical contents whether or not an arena is installed —
//!    pooled and fresh-allocation runs produce exactly the same results.
//!    Packing scratch is the exception: its users write every element
//!    they read, so it is handed out as its last user left it.
//! 3. **Observability.** Hit/miss/recycle counters are exposed via
//!    [`ArenaStats`] so tests can assert the steady-state hit rate and
//!    the bench can record it.
//!
//! Ownership rules (see DESIGN.md "Tensor arena"): a pooled buffer
//! belongs to whichever thread drops the tensor. Tensors sent across
//! stage channels are plain owned values — the *receiving* stage's arena
//! recycles them, which is safe because shapes crossing a given channel
//! also recur per iteration.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::hash::FastBuild;

use crate::tensor::Tensor;

/// Alignment every arena buffer is placed on, in bytes.
const ALIGN: usize = 64;
/// Spare `f32` slots allocated past the payload so the aligned offset
/// always fits: `64 / size_of::<f32>()`.
const PAD: usize = ALIGN / std::mem::size_of::<f32>();
/// Free-list depth per shape; buffers beyond it are simply freed, so a
/// pathological shape mix cannot hold unbounded memory.
const SHELF_CAP: usize = 64;
/// A shape of small buffers may keep this many bytes of them instead,
/// when that is more than `SHELF_CAP` buffers: a short slice's
/// activations (2–4 KiB each) number in the hundreds per stage, and
/// re-allocating the overflow every iteration costs more than keeping
/// it, while shapes of 8 KiB and up keep `SHELF_CAP`.
const SHELF_BYTES: usize = 512 << 10;

/// Free buffers a shelf of `n`-element buffers keeps.
fn shelf_cap(n: usize) -> usize {
    SHELF_CAP.max(SHELF_BYTES / (n * std::mem::size_of::<f32>()).max(1))
}

/// Hit/miss/recycle counters of one arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Acquisitions served from a free list.
    pub hits: u64,
    /// Acquisitions that had to allocate fresh memory.
    pub misses: u64,
    /// Buffers returned to a free list.
    pub recycled: u64,
}

impl ArenaStats {
    /// Fraction of acquisitions served from the pool (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot of the same arena.
    #[must_use]
    pub fn since(&self, earlier: &ArenaStats) -> ArenaStats {
        ArenaStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            recycled: self.recycled - earlier.recycled,
        }
    }

    /// Element-wise sum — used to merge per-stage or per-replica stats.
    #[must_use]
    pub fn merged(&self, other: &ArenaStats) -> ArenaStats {
        ArenaStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            recycled: self.recycled + other.recycled,
        }
    }
}

/// The free lists plus counters; lives either inside a [`TensorArena`]
/// handle or, while installed, in the thread-local slot.
#[derive(Debug, Default)]
struct Shelves {
    /// Tensor buffers keyed by `(rows, cols)`.
    by_shape: HashMap<(usize, usize), Vec<Vec<f32>>, FastBuild>,
    /// Kernel packing scratch keyed by element count.
    scratch: HashMap<usize, Vec<Vec<f32>>, FastBuild>,
    hits: u64,
    misses: u64,
    recycled: u64,
}

/// Element offset that puts `buf[off]` on a 64-byte boundary (capped so
/// `off + payload` always stays inside an allocation with `PAD` spare).
fn align_off(buf: &[f32]) -> usize {
    buf.as_ptr().align_offset(ALIGN).min(PAD)
}

impl Shelves {
    /// A zero-filled (or, with `zero == false`, arbitrary-content)
    /// aligned buffer of `rows * cols` payload elements plus its offset.
    fn acquire(&mut self, rows: usize, cols: usize, zero: bool) -> (Vec<f32>, usize) {
        let n = rows * cols;
        if let Some(mut buf) = self
            .by_shape
            .get_mut(&(rows, cols))
            .and_then(|shelf| shelf.pop())
        {
            let off = align_off(&buf);
            debug_assert!(off + n <= buf.len(), "shelved buffer too small");
            self.hits += 1;
            if zero {
                buf[off..off + n].fill(0.0);
            }
            return (buf, off);
        }
        self.misses += 1;
        let buf = vec![0.0f32; n + PAD];
        let off = align_off(&buf);
        (buf, off)
    }

    /// Returns a buffer to its shape's free list, normalising its length
    /// so any future aligned offset fits.
    fn release(&mut self, rows: usize, cols: usize, mut buf: Vec<f32>) {
        let n = rows * cols;
        if n == 0 {
            return;
        }
        let shelf = self.by_shape.entry((rows, cols)).or_default();
        if shelf.len() >= shelf_cap(n) {
            return;
        }
        if buf.len() < n + PAD {
            buf.resize(n + PAD, 0.0);
        }
        self.recycled += 1;
        shelf.push(buf);
    }

    /// A scratch buffer of `len` payload elements plus its aligned
    /// offset. A recycled one keeps whatever its last user left in it:
    /// packing writes every element it later reads.
    fn acquire_scratch(&mut self, len: usize) -> (Vec<f32>, usize) {
        if let Some(buf) = self.scratch.get_mut(&len).and_then(|s| s.pop()) {
            let off = align_off(&buf);
            debug_assert!(off + len <= buf.len(), "shelved scratch too small");
            self.hits += 1;
            return (buf, off);
        }
        self.misses += 1;
        let buf = vec![0.0f32; len + PAD];
        let off = align_off(&buf);
        (buf, off)
    }

    fn release_scratch(&mut self, len: usize, mut buf: Vec<f32>) {
        if len == 0 {
            return;
        }
        let shelf = self.scratch.entry(len).or_default();
        if shelf.len() >= SHELF_CAP {
            return;
        }
        if buf.len() < len + PAD {
            buf.resize(len + PAD, 0.0);
        }
        self.recycled += 1;
        shelf.push(buf);
    }

    fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits,
            misses: self.misses,
            recycled: self.recycled,
        }
    }
}

thread_local! {
    /// The arena currently installed on this thread, if any.
    static INSTALLED: RefCell<Option<Shelves>> = const { RefCell::new(None) };
}

/// A shape-keyed free-list pool of tensor buffers.
///
/// Create one per pipeline stage and [`install`](Self::install) it for
/// the duration of a run; while installed, every [`Tensor::zeros`],
/// `Tensor::clone`, slice copy and kernel packing buffer on that thread
/// is served from (and returned to) the pool. The handle keeps the
/// warmed free lists between runs, which is what makes the *next*
/// iteration allocation-free.
#[derive(Debug)]
pub struct TensorArena {
    /// `None` while the shelves are checked out into thread-local
    /// storage by an [`ArenaScope`].
    inner: Option<Shelves>,
}

/// An empty, uninstalled arena, the same as [`TensorArena::new`] (a
/// derived `Default` would start in the installed state).
impl Default for TensorArena {
    fn default() -> Self {
        Self::new()
    }
}

impl TensorArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self {
            inner: Some(Shelves::default()),
        }
    }

    /// Installs this arena on the current thread until the returned
    /// scope drops. While installed, tensor allocations on this thread
    /// are pooled; a previously installed arena (if any) is restored
    /// afterwards.
    ///
    /// # Panics
    ///
    /// Panics if this arena is already installed.
    pub fn install(&mut self) -> ArenaScope<'_> {
        let mine = self.inner.take().expect("arena already installed");
        let prev = INSTALLED.with(|slot| slot.replace(Some(mine)));
        ArenaScope { owner: self, prev }
    }

    /// Acquires a zeroed `[rows, cols]` tensor directly from this
    /// (uninstalled) arena — the explicit form of what `Tensor::zeros`
    /// does while the arena is installed. The backing buffer starts on a
    /// 64-byte boundary.
    ///
    /// # Panics
    ///
    /// Panics while the arena is installed.
    pub fn acquire(&mut self, rows: usize, cols: usize) -> Tensor {
        let shelves = self.inner.as_mut().expect("arena is installed");
        let (buf, off) = shelves.acquire(rows, cols, true);
        Tensor::from_pooled(rows, cols, off, buf)
    }

    /// Returns a tensor's buffer to this (uninstalled) arena's free
    /// list — the explicit form of what dropping the tensor does while
    /// the arena is installed.
    ///
    /// # Panics
    ///
    /// Panics while the arena is installed.
    pub fn release(&mut self, t: Tensor) {
        let shelves = self.inner.as_mut().expect("arena is installed");
        let (rows, cols, buf) = t.into_storage();
        shelves.release(rows, cols, buf);
    }

    /// Cumulative counters.
    ///
    /// # Panics
    ///
    /// Panics while the arena is installed (read before installing or
    /// after the scope drops).
    pub fn stats(&self) -> ArenaStats {
        self.inner.as_ref().expect("arena is installed").stats()
    }
}

/// RAII guard of an installed arena; restores the previous thread state
/// (and hands the shelves back to the owning [`TensorArena`]) on drop.
#[must_use = "the arena is only installed while the scope is alive"]
pub struct ArenaScope<'a> {
    owner: &'a mut TensorArena,
    prev: Option<Shelves>,
}

impl Drop for ArenaScope<'_> {
    fn drop(&mut self) {
        let mine = INSTALLED.with(|slot| slot.replace(self.prev.take()));
        self.owner.inner = mine;
    }
}

/// Pool allocation for `Tensor`: `Some((buffer, offset))` when an arena
/// is installed on this thread, `None` otherwise (caller allocates
/// plainly). With `zero`, the payload region is zero-filled.
pub(crate) fn acquire_raw(rows: usize, cols: usize, zero: bool) -> Option<(Vec<f32>, usize)> {
    INSTALLED.with(|slot| {
        slot.borrow_mut()
            .as_mut()
            .map(|shelves| shelves.acquire(rows, cols, zero))
    })
}

/// Returns a tensor buffer to the installed arena; `false` (buffer
/// dropped by the caller's `Vec` drop) when no arena is installed.
pub(crate) fn give_back(rows: usize, cols: usize, buf: Vec<f32>) -> bool {
    INSTALLED.with(|slot| match slot.borrow_mut().as_mut() {
        Some(shelves) => {
            shelves.release(rows, cols, buf);
            true
        }
        None => false,
    })
}

/// A fresh, never-pooled [`acquire_scratch`].
pub(crate) fn aligned(len: usize) -> (Vec<f32>, usize) {
    let buf = vec![0.0f32; len + PAD];
    let off = align_off(&buf);
    (buf, off)
}

/// An aligned scratch buffer of `len` elements (pooled when an arena is
/// installed, fresh and zeroed otherwise) plus its aligned offset — used
/// by kernel packing routines, which write every element they read, so
/// a recycled buffer is handed out as its last user left it.
pub(crate) fn acquire_scratch(len: usize) -> (Vec<f32>, usize) {
    INSTALLED.with(|slot| match slot.borrow_mut().as_mut() {
        Some(shelves) => shelves.acquire_scratch(len),
        None => aligned(len),
    })
}

/// Returns packing scratch to the installed arena (no-op when none is).
pub(crate) fn release_scratch(len: usize, buf: Vec<f32>) {
    INSTALLED.with(|slot| {
        if let Some(shelves) = slot.borrow_mut().as_mut() {
            shelves.release_scratch(len, buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_aligned_and_zeroed() {
        let mut arena = TensorArena::new();
        let t = arena.acquire(7, 9);
        assert_eq!((t.rows(), t.cols()), (7, 9));
        assert_eq!(t.data().as_ptr() as usize % ALIGN, 0);
        assert!(t.data().iter().all(|&x| x == 0.0));
        assert_eq!(arena.stats().misses, 1);
    }

    #[test]
    fn a_default_arena_is_an_empty_uninstalled_one() {
        let mut arena = TensorArena::default();
        let t = arena.acquire(2, 3);
        arena.release(t);
        {
            let _scope = arena.install();
            drop(Tensor::zeros(2, 3));
        }
        let stats = arena.stats();
        assert_eq!((stats.hits, stats.misses, stats.recycled), (1, 1, 2));
    }

    #[test]
    fn release_then_acquire_hits_and_rezeros() {
        let mut arena = TensorArena::new();
        let mut t = arena.acquire(3, 4);
        t.data_mut().fill(5.0);
        arena.release(t);
        let stats = arena.stats();
        assert_eq!((stats.hits, stats.misses, stats.recycled), (0, 1, 1));
        let t2 = arena.acquire(3, 4);
        assert!(t2.data().iter().all(|&x| x == 0.0), "buffer not re-zeroed");
        assert_eq!(arena.stats().hits, 1);
        assert_eq!(t2.data().as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn shapes_are_keyed_separately() {
        let mut arena = TensorArena::new();
        let a = arena.acquire(2, 6);
        arena.release(a);
        // Same element count, different shape: must miss.
        let _b = arena.acquire(3, 4);
        assert_eq!(arena.stats().hits, 0);
        assert_eq!(arena.stats().misses, 2);
        let _c = arena.acquire(2, 6);
        assert_eq!(arena.stats().hits, 1);
    }

    #[test]
    fn install_scope_pools_tensor_zeros_and_drop() {
        let mut arena = TensorArena::new();
        {
            let _scope = arena.install();
            let t = Tensor::zeros(4, 5);
            drop(t);
            let t2 = Tensor::zeros(4, 5);
            assert!(t2.data().iter().all(|&x| x == 0.0));
        }
        let stats = arena.stats();
        assert_eq!(stats.misses, 1, "first zeros allocates");
        assert_eq!(stats.hits, 1, "second zeros reuses the dropped buffer");
        assert!(stats.recycled >= 1);
    }

    #[test]
    fn scope_restores_previous_arena() {
        let mut outer = TensorArena::new();
        let mut inner = TensorArena::new();
        let outer_scope = outer.install();
        {
            let _inner_scope = inner.install();
            drop(Tensor::zeros(2, 2));
        }
        // Back on the outer arena: this drop lands on `outer`.
        drop(Tensor::zeros(9, 9));
        drop(outer_scope);
        assert_eq!(inner.stats().recycled, 1);
        assert_eq!(outer.stats().recycled, 1);
    }

    #[test]
    fn hit_rate_reaches_one_in_steady_state() {
        let mut arena = TensorArena::new();
        let warm = |arena: &mut TensorArena| {
            let _scope = arena.install();
            let a = Tensor::zeros(8, 8);
            let b = a.clone();
            drop(a);
            drop(b);
        };
        warm(&mut arena);
        let before = arena.stats();
        warm(&mut arena);
        let steady = arena.stats().since(&before);
        assert_eq!(steady.misses, 0, "steady state must not allocate");
        assert_eq!(steady.hit_rate(), 1.0);
    }

    #[test]
    fn shelf_cap_bounds_retention() {
        // Buffers of 64 KiB: `SHELF_CAP` of them.
        let mut arena = TensorArena::new();
        let tensors: Vec<Tensor> = (0..SHELF_CAP + 10)
            .map(|_| arena.acquire(64, 256))
            .collect();
        for t in tensors {
            arena.release(t);
        }
        assert_eq!(arena.stats().recycled as usize, SHELF_CAP);
        // Buffers of 2 KiB: `SHELF_BYTES` of them.
        let mut arena = TensorArena::new();
        let keep = SHELF_BYTES / (8 * 64 * 4);
        assert!(keep > SHELF_CAP);
        let tensors: Vec<Tensor> = (0..keep + 10).map(|_| arena.acquire(8, 64)).collect();
        for t in tensors {
            arena.release(t);
        }
        assert_eq!(arena.stats().recycled as usize, keep);
    }
}
