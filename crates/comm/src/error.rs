//! The typed error surface of the transport layer.
//!
//! Every failure mode a link can hit — peer gone, corrupt frame,
//! backpressure deadline, raw I/O, wire-format mismatch — maps to one
//! [`CommError`] variant. The pipeline runtime propagates
//! these out of `run_iteration` instead of panicking, which is what turns
//! a dead stage into a graceful whole-pipeline shutdown.

use std::fmt;

use mepipe_tensor::WireError;

/// A transport-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer endpoint (or the whole transport) has shut down.
    Closed {
        /// Stage whose endpoint observed the closure.
        stage: usize,
    },
    /// A received frame's payload failed its checksum.
    Corrupt {
        /// Peer stage the frame claimed to come from.
        peer: usize,
    },
    /// A send stalled on flow-control credits past the deadline.
    Backpressure {
        /// Peer stage whose inbox never freed a credit.
        peer: usize,
    },
    /// An operating-system I/O failure (socket backends).
    Io(String),
    /// A malformed frame or a protocol-state violation.
    Protocol(String),
    /// The peer speaks a different frame format: its version byte (or
    /// codec id) is not one this build understands. Distinct from
    /// [`CommError::Protocol`] so mixed-version deployments fail with an
    /// actionable error instead of a checksum or parse failure.
    Version {
        /// The version or codec byte the peer sent.
        got: u8,
        /// The frame version this build speaks.
        want: u8,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Closed { stage } => {
                write!(f, "transport closed (observed on stage {stage})")
            }
            CommError::Corrupt { peer } => {
                write!(f, "corrupt frame from stage {peer}")
            }
            CommError::Backpressure { peer } => {
                write!(
                    f,
                    "send to stage {peer} stalled past the backpressure deadline"
                )
            }
            CommError::Io(e) => write!(f, "transport i/o error: {e}"),
            CommError::Protocol(e) => write!(f, "transport protocol error: {e}"),
            CommError::Version { got, want } => {
                write!(
                    f,
                    "peer wire format {got} is not the supported version {want}"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

impl From<std::io::Error> for CommError {
    fn from(e: std::io::Error) -> Self {
        CommError::Io(e.to_string())
    }
}

impl From<WireError> for CommError {
    fn from(e: WireError) -> Self {
        CommError::Protocol(e.to_string())
    }
}
