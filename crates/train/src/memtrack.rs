//! Live activation-memory accounting for one pipeline stage.
//!
//! The tracker plays the role of the device allocator: saved activations,
//! KV caches and retained weight-gradient operands are charged when
//! created and credited when dropped; the running peak is what Tables 5–8
//! and Figure 1 are about. An optional hard cap turns over-subscription
//! into an explicit error — the "OOM" rows of the paper's configuration
//! tables.

/// A typed over-cap verdict: which stage blew which cap, by how much.
///
/// The OOM rows of the Tables 5–8 reproduction used to travel as
/// formatted strings; machine consumers (the status exporter, the
/// memory fidelity report, the strategy evaluator) want the numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// Live bytes at the moment the cap was exceeded.
    pub current: usize,
    /// The cap that was exceeded, bytes.
    pub cap: usize,
    /// The pipeline stage the tracker accounts for.
    pub stage: usize,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stage {}: activation memory {} exceeds cap {}",
            self.stage, self.current, self.cap
        )
    }
}

impl std::error::Error for MemError {}

/// Byte-level activation tracker with optional cap.
#[derive(Debug, Clone)]
pub struct MemTracker {
    current: usize,
    peak: usize,
    cap: Option<usize>,
    stage: usize,
}

impl MemTracker {
    /// A tracker for `stage` with an optional capacity in bytes.
    pub fn new(stage: usize, cap: Option<usize>) -> Self {
        Self {
            current: 0,
            peak: 0,
            cap,
            stage,
        }
    }

    /// Charges `bytes`; returns a typed [`MemError`] if a cap would be
    /// exceeded (the charge is still recorded so callers can report the
    /// overshoot).
    pub fn alloc(&mut self, bytes: usize) -> Result<(), MemError> {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
        match self.cap {
            Some(cap) if self.current > cap => Err(MemError {
                current: self.current,
                cap,
                stage: self.stage,
            }),
            _ => Ok(()),
        }
    }

    /// Credits `bytes`.
    ///
    /// # Panics
    ///
    /// Panics on double-free (credit exceeding the balance).
    pub fn free(&mut self, bytes: usize) {
        assert!(bytes <= self.current, "freeing more than allocated");
        self.current -= bytes;
    }

    /// Current balance in bytes.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Peak balance in bytes.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_peak_across_churn() {
        let mut m = MemTracker::new(0, None);
        m.alloc(100).unwrap();
        m.alloc(50).unwrap();
        m.free(120);
        m.alloc(10).unwrap();
        assert_eq!(m.current(), 40);
        assert_eq!(m.peak(), 150);
    }

    #[test]
    fn cap_violation_is_reported_once_exceeded() {
        let mut m = MemTracker::new(3, Some(100));
        assert!(m.alloc(80).is_ok());
        let err = m.alloc(30).expect_err("over cap");
        assert_eq!(
            err,
            MemError {
                current: 110,
                cap: 100,
                stage: 3
            }
        );
        assert!(err.to_string().contains("stage 3"));
        assert_eq!(m.peak(), 110);
    }

    #[test]
    #[should_panic(expected = "freeing more than allocated")]
    #[allow(unused_must_use)]
    fn double_free_panics() {
        let mut m = MemTracker::new(0, None);
        m.alloc(10);
        m.free(20);
    }
}
