//! Fine-grained weight-gradient computation (Section 5).
//!
//! Zero-bubble PP splits each backward pass into an input-gradient half
//! (critical path) and a weight-gradient half (free to float). MEPipe goes
//! further: because individual weight gradients have no dependencies among
//! themselves, the weight half decomposes into its constituent GEMMs,
//! which are queued when the input-gradient half completes and *drained
//! one GEMM at a time* whenever the worker would otherwise idle waiting on
//! communication. This both fills bubbles (including those caused by the
//! slice imbalance) and lets deep stages defer W work past the last
//! backward, erasing tail bubbles (Figures 7, 11, 12).
//!
//! This module provides the queue the timing engine drains, with the
//! memory accounting the paper requires: a deferred entry retains its
//! activations *and* activation gradients until fully drained. (The
//! threaded runtime in `mepipe-train` drains its own queue of real
//! weight-gradient closures.)

use std::collections::VecDeque;

use crate::ir::Op;

/// One deferred weight-gradient computation (one unit's W pass, divisible
/// into `units_left` GEMMs).
#[derive(Debug, Clone, PartialEq)]
struct WgradEntry {
    /// The weight op this entry realises.
    op: Op,
    /// GEMMs not yet executed.
    units_left: usize,
    /// Duration of one GEMM in seconds.
    unit_time: f64,
    /// Bytes retained (activations + activation gradients) while any GEMM
    /// of this entry is outstanding.
    retained_bytes: f64,
}

/// FIFO queue of deferred weight-gradient GEMMs with retained-memory
/// accounting.
///
/// # Examples
///
/// ```
/// use mepipe_schedule::exec::WgradQueue;
/// use mepipe_schedule::ir::{Op, OpKind};
///
/// let mut q = WgradQueue::new();
/// q.enqueue(Op::new(OpKind::BackwardWeight, 0, 0, 0), 7, 0.1, 1024.0);
/// // A 0.35-second communication wait fits three GEMMs.
/// let (spent, done) = q.drain_for(0.35);
/// assert!((spent - 0.3).abs() < 1e-12);
/// assert!(done.is_empty()); // 4 GEMMs (and the memory) still retained.
/// assert_eq!(q.pending_units(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WgradQueue {
    entries: VecDeque<WgradEntry>,
}

impl WgradQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues the weight work of one backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or `unit_time` is not finite and positive.
    pub fn enqueue(&mut self, op: Op, units: usize, unit_time: f64, retained_bytes: f64) {
        assert!(units > 0, "weight work must have at least one GEMM");
        assert!(
            unit_time.is_finite() && unit_time > 0.0,
            "GEMM time must be positive"
        );
        self.entries.push_back(WgradEntry {
            op,
            units_left: units,
            unit_time,
            retained_bytes,
        });
    }

    /// Whether any GEMMs are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total pending GEMM count.
    pub fn pending_units(&self) -> usize {
        self.entries.iter().map(|e| e.units_left).sum()
    }

    /// Total time to drain everything.
    pub fn pending_time(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.units_left as f64 * e.unit_time)
            .sum()
    }

    /// Bytes retained by deferred entries right now.
    pub fn retained_bytes(&self) -> f64 {
        self.entries.iter().map(|e| e.retained_bytes).sum()
    }

    /// Executes GEMMs from the front of the queue for up to `budget`
    /// seconds, without splitting a GEMM. Returns `(time_spent, completed)`
    /// where `completed` lists weight ops fully finished (their retained
    /// memory is released).
    ///
    /// A zero or negative budget performs nothing; a budget smaller than
    /// one GEMM also performs nothing (GEMMs are atomic).
    pub fn drain_for(&mut self, budget: f64) -> (f64, Vec<Op>) {
        let mut spent = 0.0;
        let mut completed = Vec::new();
        while let Some(front) = self.entries.front_mut() {
            let step = front.unit_time;
            if spent + step > budget + 1e-15 {
                break;
            }
            spent += step;
            front.units_left -= 1;
            if front.units_left == 0 {
                completed.push(front.op);
                self.entries.pop_front();
            }
        }
        (spent, completed)
    }

    /// Drains everything unconditionally (end of iteration / OOM pressure).
    /// Returns `(time_spent, completed)`.
    pub fn drain_all(&mut self) -> (f64, Vec<Op>) {
        let total = self.pending_time();
        let completed = self.entries.drain(..).map(|e| e.op).collect();
        (total, completed)
    }

    /// Drains the *oldest* entries until at least `bytes` of retained
    /// memory has been released; used when the memory tracker needs room
    /// for a new forward pass (Section 5: "we can stop and process the
    /// next forward or backward pass as soon as there is enough memory").
    /// Returns `(time_spent, completed)`.
    pub fn drain_for_bytes(&mut self, bytes: f64) -> (f64, Vec<Op>) {
        let mut spent = 0.0;
        let mut freed = 0.0;
        let mut completed = Vec::new();
        while freed < bytes {
            match self.entries.front_mut() {
                None => break,
                Some(front) => {
                    spent += front.unit_time * front.units_left as f64;
                    freed += front.retained_bytes;
                    completed.push(front.op);
                    self.entries.pop_front();
                }
            }
        }
        (spent, completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpKind;

    fn wop(mb: usize) -> Op {
        Op::new(OpKind::BackwardWeight, mb, 0, 0)
    }

    #[test]
    fn drain_respects_budget_and_atomicity() {
        let mut q = WgradQueue::new();
        q.enqueue(wop(0), 4, 1.0, 100.0);
        let (spent, done) = q.drain_for(2.5);
        assert_eq!(spent, 2.0);
        assert!(done.is_empty());
        assert_eq!(q.pending_units(), 2);
        let (spent2, done2) = q.drain_for(10.0);
        assert_eq!(spent2, 2.0);
        assert_eq!(done2, vec![wop(0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn retained_bytes_released_only_on_completion() {
        let mut q = WgradQueue::new();
        q.enqueue(wop(0), 2, 1.0, 100.0);
        q.enqueue(wop(1), 2, 1.0, 50.0);
        assert_eq!(q.retained_bytes(), 150.0);
        q.drain_for(1.0);
        // One GEMM of entry 0 done, both entries still retained.
        assert_eq!(q.retained_bytes(), 150.0);
        q.drain_for(1.0);
        assert_eq!(q.retained_bytes(), 50.0);
    }

    #[test]
    fn drain_for_bytes_frees_oldest_first() {
        let mut q = WgradQueue::new();
        q.enqueue(wop(0), 2, 0.5, 100.0);
        q.enqueue(wop(1), 2, 0.5, 100.0);
        let (spent, done) = q.drain_for_bytes(150.0);
        assert_eq!(done, vec![wop(0), wop(1)]);
        assert_eq!(spent, 2.0);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_all_completes_everything() {
        let mut q = WgradQueue::new();
        q.enqueue(wop(0), 3, 2.0, 10.0);
        q.enqueue(wop(1), 1, 4.0, 10.0);
        let (t, done) = q.drain_all();
        assert_eq!(t, 10.0);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn zero_budget_is_a_noop() {
        let mut q = WgradQueue::new();
        q.enqueue(wop(0), 1, 1.0, 1.0);
        let (t, done) = q.drain_for(0.0);
        assert_eq!(t, 0.0);
        assert!(done.is_empty());
        assert_eq!(q.pending_units(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one GEMM")]
    fn zero_units_panics() {
        WgradQueue::new().enqueue(wop(0), 0, 1.0, 1.0);
    }
}
