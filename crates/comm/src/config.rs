//! Builder-style tuning knobs shared by every transport backend.
//!
//! [`CommConfig`] replaces the positional constructor arguments the
//! backends used to take (connect timeouts, buffer depths, delay plans)
//! with one `#[non_exhaustive]` builder, following the `Dims` /
//! `SvppConfig` convention: construct with [`CommConfig::new`], chain
//! `with_*` methods, pass the result to a backend's `with_config`
//! constructor (or set it on `TransportConfig::comm` and let
//! `build_transport` thread it through). Being non-exhaustive, new knobs
//! can be added without breaking callers.

use std::time::Duration;

use crate::codec::CodecId;
use crate::emulated::FaultSpec;

/// Tuning knobs for a transport backend. Which fields matter depends on
/// the backend: sockets use the codec, tx depth, rx pool and connect
/// timeout; the in-process queues use the codec and send deadline; the
/// emulated link uses the codec (to size each frame's wire hold) and the
/// delay plan.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct CommConfig {
    /// Payload codec stamped on outgoing data frames.
    pub codec: CodecId,
    /// Frames a socket endpoint's async writer may hold in flight before
    /// `send` blocks (the double-buffering depth). Minimum 1.
    pub tx_depth: usize,
    /// Largest frame written synchronously on the sending thread when
    /// the async writer is idle. Small frames fit the kernel socket
    /// buffer — which already delivers them asynchronously — so handing
    /// them to the writer thread would cost a context switch for
    /// nothing; frames above this size go through the writer so
    /// encoding the next message overlaps their wire time.
    pub inline_max_bytes: usize,
    /// Receive-side frame buffers kept for recycling per endpoint.
    pub rx_pool: usize,
    /// How long a socket stage waits for its peers during rendezvous.
    pub connect_timeout: Duration,
    /// How long a send may stall on flow control before failing with
    /// `CommError::Backpressure`.
    pub send_deadline: Duration,
    /// Seeded delay jitter on emulated links (inert by default).
    pub faults: FaultSpec,
}

impl Default for CommConfig {
    fn default() -> Self {
        Self {
            codec: CodecId::F32,
            tx_depth: 2,
            inline_max_bytes: 32 * 1024,
            rx_pool: 32,
            connect_timeout: Duration::from_secs(20),
            send_deadline: Duration::from_secs(60),
            faults: FaultSpec::default(),
        }
    }
}

impl CommConfig {
    /// Default knobs: f32 codec, depth-2 double buffering, no delays.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the payload codec.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecId) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the async-send queue depth (clamped to at least 1).
    #[must_use]
    pub fn with_tx_depth(mut self, depth: usize) -> Self {
        self.tx_depth = depth.max(1);
        self
    }

    /// Sets the inline-write size cutoff (`0` forces every frame
    /// through the async writer).
    #[must_use]
    pub fn with_inline_max_bytes(mut self, n: usize) -> Self {
        self.inline_max_bytes = n;
        self
    }

    /// Sets how many receive buffers an endpoint keeps for recycling.
    #[must_use]
    pub fn with_rx_pool(mut self, n: usize) -> Self {
        self.rx_pool = n;
        self
    }

    /// Sets the socket rendezvous timeout.
    #[must_use]
    pub fn with_connect_timeout(mut self, t: Duration) -> Self {
        self.connect_timeout = t;
        self
    }

    /// Sets the flow-control stall deadline.
    #[must_use]
    pub fn with_send_deadline(mut self, t: Duration) -> Self {
        self.send_deadline = t;
        self
    }

    /// Sets the emulated links' delay plan (a plan that can fire turns
    /// emulation on in `build_transport`).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_clamps() {
        let c = CommConfig::new()
            .with_codec(CodecId::Bf16)
            .with_tx_depth(0)
            .with_inline_max_bytes(1024)
            .with_rx_pool(7)
            .with_connect_timeout(Duration::from_secs(3))
            .with_send_deadline(Duration::from_secs(9))
            .with_faults(FaultSpec {
                delay_permille: 1,
                ..FaultSpec::default()
            });
        assert_eq!(c.codec, CodecId::Bf16);
        assert_eq!(c.tx_depth, 1, "depth clamps to 1");
        assert_eq!(c.inline_max_bytes, 1024);
        assert_eq!(c.rx_pool, 7);
        assert_eq!(c.connect_timeout, Duration::from_secs(3));
        assert_eq!(c.send_deadline, Duration::from_secs(9));
        assert!(c.faults.is_active());
    }
}
