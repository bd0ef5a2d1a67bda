//! `mepipe-comm`: pluggable stage-to-stage messaging for the pipeline
//! runtime.
//!
//! The training runtime routes boundary tensors between pipeline stages
//! through an abstract [`Endpoint`], obtained from a [`Transport`]. Three
//! backends implement the pair:
//!
//! * [`inproc::InProcTransport`] — bounded, credit-flow-controlled queues
//!   between threads of one process. Tensors move by value; this is the
//!   fast path and is bit-identical to the original channel runtime.
//! * [`socket::SocketTransport`] — length-prefixed frames over Unix-domain
//!   sockets or localhost TCP, so each stage can run as a separate OS
//!   process (see the `mepipe-worker` binary in `mepipe-train`).
//! * [`emulated::EmulatedTransport`] — wraps either of the above with
//!   alpha–beta link timing from a [`LinkSpec`] (each send holds the
//!   sender for latency + frame bytes / bandwidth) and optional seeded
//!   delay jitter ([`FaultSpec`]). It only adds time: what arrives is
//!   exactly what the inner backend delivers.
//!
//! The runtime holds each stage's endpoint in a [`StageLink`], together
//! with the stash of tensors that arrived before the op that consumes
//! them; a link can serve many iterations.
//!
//! The socket wire path is zero-copy by construction: the endpoint
//! lends a recycled buffer, encodes the frame in place
//! ([`frame::encode_data_into`] — header and codec-encoded payload in
//! one buffer, no concatenation) and recycles it after the write;
//! received frames are reassembled into pooled buffers. Payloads travel
//! in the wire codec negotiated per link ([`codec`](mod@codec) — raw f32 by
//! default, bf16 to halve the bytes), and the socket backend
//! double-buffers sends on an async writer so encoding microbatch *k+1*
//! overlaps the wire time of *k*. Backend tuning lives in the
//! builder-style [`CommConfig`].
//!
//! Every backend reports uniform per-link counters ([`CommStats`]):
//! bytes, messages, serialize/deserialize time, send stalls, queue wait,
//! emulated wire occupancy, injected delays and checksum rejections.
//!
//! Failure semantics replace the old `expect("channel closed")` panics:
//! a cleanly closed peer ends blocked receives with
//! [`CommError::Closed`] once all peers are done, and a peer that dies
//! *without* closing (process crash, dirty drop) fails every blocked
//! operation in the transport promptly instead of hanging. A frame whose
//! payload fails its checksum surfaces as [`CommError::Corrupt`]; links
//! are not retried, since the streams they run on are reliable and a
//! worker that dies is restarted from its checkpoint by `mepipe-ctl`.

pub mod codec;
pub mod config;
pub mod control;
pub mod emulated;
pub mod error;
pub mod frame;
pub mod inproc;
pub mod link;
pub mod msg;
pub mod socket;
pub mod stats;

use std::path::PathBuf;

pub use codec::{codec, Bf16Codec, CodecId, F32Codec, LossyCodec, WireCodec};
pub use config::CommConfig;
pub use emulated::{EmulatedTransport, FaultSpec};
pub use error::CommError;
pub use inproc::InProcTransport;
pub use link::StageLink;
pub use msg::{MsgKind, StageMsg};
pub use socket::{SocketMode, SocketTransport};
pub use stats::{CommStats, LinkStats};

use mepipe_hw::LinkSpec;

/// A factory of per-stage [`Endpoint`]s over one communication fabric.
///
/// A transport is created once for a `stages`-wide pipeline; each stage
/// then claims its endpoint (from its own thread or process) and all
/// further traffic goes through that endpoint.
pub trait Transport: Send + Sync {
    /// Number of stages this transport connects.
    fn stages(&self) -> usize;

    /// Claims the endpoint for `stage`.
    ///
    /// # Errors
    ///
    /// Fails if `stage` is out of range, already claimed (in-process),
    /// or the fabric cannot be established (socket rendezvous).
    fn endpoint(&self, stage: usize) -> Result<Box<dyn Endpoint>, CommError>;
}

/// One stage's handle for exchanging boundary tensors with its peers.
///
/// Endpoints are owned by their stage's thread and are deliberately
/// `&mut self`: all waiting and tensor decoding happens on the stage
/// thread, where the stage's `TensorArena` is installed.
pub trait Endpoint: Send {
    /// The stage this endpoint belongs to.
    fn stage(&self) -> usize;

    /// Total stages on the fabric.
    fn stages(&self) -> usize;

    /// Sends `msg` to stage `to`, blocking on flow control (and, for an
    /// emulated link, for the message's wire time).
    ///
    /// # Errors
    ///
    /// [`CommError::Closed`] if the fabric is shut down,
    /// [`CommError::Backpressure`] if flow control stalls past its
    /// deadline, [`CommError::Io`] on socket failures.
    fn send(&mut self, to: usize, msg: StageMsg) -> Result<(), CommError>;

    /// Receives the next message from any peer, blocking until one
    /// arrives.
    ///
    /// # Errors
    ///
    /// [`CommError::Closed`] once every peer has cleanly closed (normal
    /// end of run) or a peer died dirty; [`CommError::Corrupt`] if a
    /// received frame failed its payload checksum.
    fn recv(&mut self) -> Result<StageMsg, CommError>;

    /// Like [`Endpoint::recv`] but returns `Ok(None)` immediately when no
    /// message is waiting.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Endpoint::recv`].
    fn try_recv(&mut self) -> Result<Option<StageMsg>, CommError>;

    /// Snapshot of this endpoint's counters.
    fn stats(&self) -> CommStats;

    /// Cleanly closes this endpoint: announces completion to peers so
    /// their blocked receives can finish, then releases resources.
    /// Idempotent. Dropping an endpoint *without* closing signals a
    /// dirty death to peers instead.
    fn close(&mut self);
}

/// Which backend a [`TransportConfig`] builds.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Backend {
    /// Threads in one process, bounded queues, no serialization.
    #[default]
    InProc,
    /// Unix-domain sockets under the given directory (multi-process).
    Uds(PathBuf),
    /// Localhost TCP from the given base port (multi-process).
    Tcp(u16),
}

/// Declarative transport selection, consumed by `build_transport`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransportConfig {
    /// Which fabric to build.
    pub backend: Backend,
    /// Per-link data credits for the in-process backend (0 = a
    /// runtime-chosen default from the schedule's peak in-flight count).
    pub capacity: usize,
    /// When set, wrap the fabric in link emulation with this spec.
    pub link: Option<LinkSpec>,
    /// Backend tuning knobs (codec, buffer depths, timeouts, delay
    /// plan).
    pub comm: CommConfig,
}

impl TransportConfig {
    /// In-process transport with runtime-chosen capacity, no emulation —
    /// the drop-in equivalent of the original channel runtime.
    pub fn in_proc() -> Self {
        Self::default()
    }

    /// Emulates every link as `link` (wrapping whatever backend is set).
    #[must_use]
    pub fn with_link(mut self, link: LinkSpec) -> Self {
        self.link = Some(link);
        self
    }

    /// Sets the wire codec for every link of the transport.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecId) -> Self {
        self.comm.codec = codec;
        self
    }

    /// Replaces the backend tuning knobs wholesale.
    #[must_use]
    pub fn with_comm(mut self, comm: CommConfig) -> Self {
        self.comm = comm;
        self
    }

    /// Whether this config needs the emulated layer: a link to time, or
    /// a delay plan that can fire (emulated over a zero-cost loopback
    /// link when no link is set).
    pub fn emulated(&self) -> bool {
        self.link.is_some() || self.comm.faults.is_active()
    }
}

/// Builds the transport described by `config` for a `stages`-wide
/// pipeline. `default_capacity` is used when `config.capacity` is 0
/// (callers derive it from the schedule's peak in-flight message count).
///
/// # Errors
///
/// Currently infallible in practice (socket rendezvous errors surface at
/// [`Transport::endpoint`] time), but returns `Result` so future
/// backends can fail fast.
pub fn build_transport(
    config: &TransportConfig,
    stages: usize,
    default_capacity: usize,
) -> Result<Box<dyn Transport>, CommError> {
    let capacity = if config.capacity == 0 {
        default_capacity.max(1)
    } else {
        config.capacity
    };
    let comm = &config.comm;
    let base: Box<dyn Transport> = match &config.backend {
        Backend::InProc => Box::new(InProcTransport::with_config(stages, capacity, comm.clone())),
        Backend::Uds(dir) => Box::new(SocketTransport::with_config(
            SocketMode::Uds(dir.clone()),
            stages,
            comm.clone(),
        )),
        Backend::Tcp(port) => Box::new(SocketTransport::with_config(
            SocketMode::Tcp(*port),
            stages,
            comm.clone(),
        )),
    };
    if config.emulated() {
        let link = config.link.clone().unwrap_or_else(LinkSpec::loopback);
        Ok(Box::new(EmulatedTransport::with_config(
            base,
            link,
            comm.clone(),
        )))
    } else {
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builds_each_backend() {
        let t = build_transport(&TransportConfig::in_proc(), 3, 4).unwrap();
        assert_eq!(t.stages(), 3);
        let cfg = TransportConfig::in_proc().with_link(LinkSpec::pcie4());
        assert!(cfg.emulated());
        let t = build_transport(&cfg, 2, 4).unwrap();
        assert_eq!(t.stages(), 2);
        let cfg = TransportConfig {
            backend: Backend::Uds(std::env::temp_dir().join("mepipe-cfg-test")),
            ..TransportConfig::default()
        };
        assert!(!cfg.emulated());
        assert_eq!(build_transport(&cfg, 4, 1).unwrap().stages(), 4);
    }

    #[test]
    fn delays_imply_emulation() {
        let cfg = TransportConfig::in_proc().with_comm(CommConfig::new().with_faults(FaultSpec {
            delay_permille: 10,
            ..FaultSpec::default()
        }));
        assert!(cfg.emulated());
        assert!(cfg.link.is_none(), "emulation defaults to a loopback link");
        assert_eq!(build_transport(&cfg, 2, 4).unwrap().stages(), 2);
    }
}
