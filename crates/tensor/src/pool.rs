//! The kernel worker pool: row-block data parallelism for tensor kernels.
//!
//! A [`KernelPool`] is a cheap, cloneable handle describing how many
//! workers a kernel may fan out over. Kernels hand it a list of disjoint
//! mutable work items (typically row blocks of the output tensor) and a
//! closure; the pool runs the closure over every item, splitting the item
//! list into contiguous spans across `std::thread::scope` workers.
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism across worker counts.** Work is chunked by a *fixed
//!    grain* chosen by each kernel, never by the worker count, and
//!    per-chunk partial results are reduced in chunk-index order. A kernel
//!    therefore produces bit-identical output on 1 worker and on 8 — the
//!    property the gradient-equivalence tests rely on.
//! 2. **Safe nesting under the pipeline runtime.** Workers are spawned
//!    with [`std::thread::scope`] per kernel invocation, so borrowed
//!    operands need no `'static` bound and a pool used *inside* a
//!    per-stage pipeline thread cannot outlive or deadlock against it.
//!    The handle itself is the persistent, shared object: create one per
//!    stage and pass it through every op. The spawn cost (tens of
//!    microseconds) is amortised over kernel bodies that run for
//!    milliseconds; single-item or single-worker calls run inline and
//!    spawn nothing.
//! 3. **Oversubscription control.** The runtime composes stage-level and
//!    kernel-level parallelism as `stages × workers_per_pool` threads;
//!    [`KernelPool::auto`] divides the machine's parallelism by the
//!    caller's stage count so the product never exceeds the core count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct Inner {
    workers: usize,
    /// How many `for_each` calls actually fanned out over threads —
    /// observability for tests.
    parallel_dispatches: AtomicUsize,
}

/// Shared handle to a kernel worker pool. Clones share the same
/// configuration and dispatch counters.
#[derive(Debug, Clone)]
pub struct KernelPool(Arc<Inner>);

impl Default for KernelPool {
    fn default() -> Self {
        Self::serial()
    }
}

impl KernelPool {
    /// A pool fanning out over `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        KernelPool(Arc::new(Inner {
            workers: workers.max(1),
            parallel_dispatches: AtomicUsize::new(0),
        }))
    }

    /// The single-threaded pool: every kernel runs inline on the caller's
    /// thread. This is the default everywhere a pool is not plumbed in.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A pool sized for one of `stages` concurrent pipeline stage threads:
    /// `available_parallelism / stages`, at least 1, so stage-level and
    /// kernel-level parallelism compose without oversubscription.
    pub fn auto(stages: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::new(cores / stages.max(1))
    }

    /// The process-wide single-threaded pool — what the pool-less op
    /// entry points (`matmul(a, b)` etc.) run on without allocating a
    /// fresh handle per call.
    pub fn shared_serial() -> &'static KernelPool {
        static POOL: std::sync::OnceLock<KernelPool> = std::sync::OnceLock::new();
        POOL.get_or_init(KernelPool::serial)
    }

    /// Worker count this pool fans out over.
    pub fn workers(&self) -> usize {
        self.0.workers
    }

    /// Number of `for_each` calls that spawned scoped worker threads.
    pub fn parallel_dispatches(&self) -> usize {
        self.0.parallel_dispatches.load(Ordering::Relaxed)
    }

    /// Runs `f(chunk_index, item)` over every item, returning the results
    /// in item order.
    ///
    /// Items are distributed as contiguous spans across at most
    /// `workers()` scoped threads; within a span they run in index order.
    /// Because the closure sees the same `(index, item)` pairs regardless
    /// of the worker count, any per-item computation — and any reduction
    /// the caller performs over the ordered results — is bit-identical
    /// across worker counts.
    pub fn for_each<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        let w = self.0.workers.min(n);
        if w <= 1 {
            return items
                .iter_mut()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        self.0.parallel_dispatches.fetch_add(1, Ordering::Relaxed);
        // Split into `w` contiguous spans; span s covers
        // [s*base + min(s, rem), ...) so sizes differ by at most one.
        let base = n / w;
        let rem = n % w;
        let mut spans: Vec<(usize, &mut [T])> = Vec::with_capacity(w);
        let mut rest = items;
        let mut start = 0;
        for s in 0..w {
            let len = base + usize::from(s < rem);
            let (head, tail) = rest.split_at_mut(len);
            spans.push((start, head));
            start += len;
            rest = tail;
        }
        let f = &f;
        let mut per_span: Vec<Vec<R>> = Vec::with_capacity(w);
        std::thread::scope(|scope| {
            let handles: Vec<_> = spans
                .into_iter()
                .map(|(first, span)| {
                    scope.spawn(move || {
                        span.iter_mut()
                            .enumerate()
                            .map(|(i, item)| f(first + i, item))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            for h in handles {
                per_span.push(h.join().expect("kernel worker panicked"));
            }
        });
        per_span.into_iter().flatten().collect()
    }
}

/// Splits a flat row-major buffer into `(first_row, rows)` blocks of at
/// most `grain` rows — the standard work-item list for row-parallel
/// kernels. The grain must not depend on the worker count, or determinism
/// across worker counts is lost.
pub fn row_blocks(data: &mut [f32], cols: usize, grain: usize) -> Vec<(usize, &mut [f32])> {
    assert!(grain > 0, "row grain must be positive");
    if cols == 0 {
        return Vec::new();
    }
    data.chunks_mut(grain * cols)
        .enumerate()
        .map(|(i, chunk)| (i * grain, chunk))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_preserves_item_order() {
        let pool = KernelPool::new(3);
        let mut items: Vec<usize> = (0..10).collect();
        let out = pool.for_each(&mut items, |i, item| {
            *item += 100;
            i * 2
        });
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(items, (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn serial_pool_runs_inline_without_dispatch() {
        let pool = KernelPool::serial();
        let mut items = vec![0u32; 8];
        pool.for_each(&mut items, |_, item| *item = 1);
        assert_eq!(pool.parallel_dispatches(), 0);
        assert!(items.iter().all(|&x| x == 1));
    }

    #[test]
    fn parallel_pool_dispatches_threads() {
        let pool = KernelPool::new(4);
        let mut items = vec![0u32; 8];
        pool.for_each(&mut items, |i, item| *item = i as u32);
        assert_eq!(pool.parallel_dispatches(), 1);
        assert_eq!(items, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn results_identical_across_worker_counts() {
        // The determinism contract: same items, same results, any workers.
        let run = |workers: usize| {
            let pool = KernelPool::new(workers);
            let mut items: Vec<(usize, Vec<f32>)> =
                (0..7).map(|i| (i, vec![i as f32; 5])).collect();
            pool.for_each(&mut items, |idx, (first, block)| {
                for x in block.iter_mut() {
                    *x += idx as f32;
                }
                *first * 3
            })
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn row_blocks_cover_everything_once() {
        let mut data = vec![0.0f32; 7 * 3];
        let blocks = row_blocks(&mut data, 3, 2);
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0].0, 0);
        assert_eq!(blocks[3].0, 6);
        assert_eq!(blocks[3].1.len(), 3);
        let total: usize = blocks.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn auto_pool_divides_by_stage_count() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(KernelPool::auto(1).workers(), cores.max(1));
        assert!(KernelPool::auto(cores * 2).workers() >= 1);
    }
}
