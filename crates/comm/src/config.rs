//! Builder-style settings shared by every transport backend.
//!
//! [`CommConfig`] holds what callers choose per transport: the payload
//! codec and the emulated links' delay plan. Construct with
//! [`CommConfig::new`], chain `with_*` methods, and pass the result to a
//! backend's `with_config` constructor (or set it on
//! `TransportConfig::comm` and let `build_transport` thread it through).
//! Buffer depths and deadlines are constants in the backends that read
//! them. Being `#[non_exhaustive]`, the struct can grow a setting
//! without breaking callers.

use crate::codec::CodecId;
use crate::emulated::FaultSpec;

/// Settings for a transport backend: every backend stamps the codec on
/// outgoing data frames (the emulated link also sizes each frame's wire
/// hold by it), and the emulated link applies the delay plan.
#[non_exhaustive]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommConfig {
    /// Payload codec stamped on outgoing data frames.
    pub codec: CodecId,
    /// Seeded delay jitter on emulated links (inert by default).
    pub faults: FaultSpec,
}

impl CommConfig {
    /// Default settings: f32 codec, no delays.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the payload codec.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecId) -> Self {
        self.codec = codec;
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
    fn builder_chains() {
        let c = CommConfig::new()
            .with_codec(CodecId::Bf16)
            .with_faults(FaultSpec {
                delay_permille: 1,
                ..FaultSpec::default()
            });
        assert_eq!(c.codec, CodecId::Bf16);
        assert!(c.faults.is_active());
    }
}
