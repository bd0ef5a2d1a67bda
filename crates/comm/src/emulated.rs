//! The emulated backend: alpha–beta link timing and seeded delay jitter,
//! layered over any inner transport.
//!
//! An emulated endpoint hands every message to the inner endpoint's
//! typed `send` unchanged, then holds the sending thread on the "wire"
//! for the alpha–beta transfer time of the configured [`LinkSpec`]
//! (latency + frame bytes / bandwidth, with the frame sized under the
//! link's codec). The hold is counted in `LinkStats::wire_ns`, the number
//! `mepipe_sim::fidelity::wire` compares against the cost model. Receives pass
//! straight through to the inner endpoint.
//!
//! An optional [`FaultSpec`] delays a seeded fraction of sends by a fixed
//! amount before they are handed on: timing jitter that must never change
//! results. The random stream is seeded per endpoint (seed mixed with the
//! stage index) and advances only with that stage's own sends, so a given
//! `(seed, schedule)` pair delays exactly the same messages on every run,
//! whatever the thread or process interleaving.
//!
//! The emulated links never lose or corrupt a frame, and neither do the
//! PCIe and InfiniBand links they model. A frame corrupted on a real
//! socket fails its checksum and surfaces as [`CommError::Corrupt`]; a
//! worker process that dies is restarted from its checkpoint by
//! `mepipe-ctl`.

use std::time::{Duration, Instant};

use mepipe_hw::LinkSpec;

use crate::codec::{codec, WireCodec};
use crate::config::CommConfig;
use crate::error::CommError;
use crate::frame::HEADER_BYTES;
use crate::msg::StageMsg;
use crate::stats::CommStats;
use crate::{Endpoint, Transport};

/// Deterministic delay-jitter plan (inert by default).
///
/// `delay_permille` is evaluated per send by a seeded LCG private to
/// each endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Probability, in permille, of delaying a send by `delay_us`.
    pub delay_permille: u32,
    /// Injected delay duration in microseconds.
    pub delay_us: u64,
    /// Base seed for the per-endpoint random streams.
    pub seed: u64,
}

impl FaultSpec {
    /// Whether any delay can ever fire under this spec.
    pub fn is_active(&self) -> bool {
        self.delay_permille > 0
    }
}

/// The emulated transport: wraps an inner transport with link timing
/// and delay jitter.
pub struct EmulatedTransport {
    inner: Box<dyn Transport>,
    link: LinkSpec,
    config: CommConfig,
}

impl EmulatedTransport {
    /// Wraps `inner`, emulating every stage-to-stage link as `link`,
    /// with default knobs.
    pub fn new(inner: Box<dyn Transport>, link: LinkSpec) -> Self {
        Self::with_config(inner, link, CommConfig::default())
    }

    /// Like [`EmulatedTransport::new`] with explicit tuning knobs: the
    /// wire codec that sizes each frame, and the delay plan.
    pub fn with_config(inner: Box<dyn Transport>, link: LinkSpec, config: CommConfig) -> Self {
        Self {
            inner,
            link,
            config,
        }
    }
}

impl Transport for EmulatedTransport {
    fn stages(&self) -> usize {
        self.inner.stages()
    }

    fn endpoint(&self, stage: usize) -> Result<Box<dyn Endpoint>, CommError> {
        let inner = self.inner.endpoint(stage)?;
        Ok(Box::new(EmulatedEndpoint {
            inner,
            link: self.link.clone(),
            codec: codec(self.config.codec),
            faults: self.config.faults,
            rng: seed_for_stage(self.config.faults.seed, stage),
            stats: CommStats::new(stage, self.inner.stages()),
        }))
    }
}

/// SplitMix64 of `seed ^ stage`: decorrelates per-stage streams even for
/// small seeds.
fn seed_for_stage(seed: u64, stage: usize) -> u64 {
    let mut z = (seed ^ (stage as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One stage's endpoint on the emulated link.
pub struct EmulatedEndpoint {
    inner: Box<dyn Endpoint>,
    link: LinkSpec,
    codec: &'static dyn WireCodec,
    faults: FaultSpec,
    rng: u64,
    /// Only this layer's own counters (wire time, injected delays); the
    /// inner endpoint counts the traffic itself.
    stats: CommStats,
}

impl EmulatedEndpoint {
    /// LCG step; returns ~32 high-quality bits.
    fn next_u32(&mut self) -> u32 {
        self.rng = self
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.rng >> 32) as u32
    }

    fn roll(&mut self, permille: u32) -> bool {
        permille > 0 && self.next_u32() % 1000 < permille
    }

    /// Occupies the emulated wire for `bytes` worth of transfer time.
    ///
    /// `thread::sleep` can overshoot small requests by tens of
    /// microseconds, which inflated `wire_ns` by two orders of magnitude
    /// on µs-scale links (PCIe/IB emulation) and pushed the measured/
    /// modeled wire ratio far outside the healthy band. Sleep only
    /// for the bulk of long waits and spin the remainder, so occupancy
    /// tracks the model at sub-microsecond precision.
    fn wire_hold(&mut self, to: usize, bytes: usize) {
        let secs = self.link.transfer_time(bytes as u64);
        if secs > 0.0 && secs.is_finite() {
            const SPIN_UNDER: Duration = Duration::from_micros(250);
            let dur = Duration::from_secs_f64(secs);
            let t0 = Instant::now();
            if dur > SPIN_UNDER {
                std::thread::sleep(dur - SPIN_UNDER);
            }
            while t0.elapsed() < dur {
                std::hint::spin_loop();
            }
            self.stats.links[to].wire_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}

impl Endpoint for EmulatedEndpoint {
    fn stage(&self) -> usize {
        self.inner.stage()
    }

    fn stages(&self) -> usize {
        self.inner.stages()
    }

    fn send(&mut self, to: usize, msg: StageMsg) -> Result<(), CommError> {
        let bytes = HEADER_BYTES + self.codec.encoded_len(&msg.tensor);
        if self.roll(self.faults.delay_permille) {
            self.stats.links[to].injected_delays += 1;
            std::thread::sleep(Duration::from_micros(self.faults.delay_us));
        }
        self.inner.send(to, msg)?;
        self.wire_hold(to, bytes);
        Ok(())
    }

    fn recv(&mut self) -> Result<StageMsg, CommError> {
        self.inner.recv()
    }

    fn try_recv(&mut self) -> Result<Option<StageMsg>, CommError> {
        self.inner.try_recv()
    }

    fn stats(&self) -> CommStats {
        self.stats.merged(&self.inner.stats())
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::InProcTransport;
    use crate::msg::MsgKind;
    use mepipe_tensor::Tensor;

    fn wrap(stages: usize, faults: FaultSpec) -> EmulatedTransport {
        EmulatedTransport::with_config(
            Box::new(InProcTransport::new(stages, 32)),
            LinkSpec::loopback(),
            CommConfig::new().with_faults(faults),
        )
    }

    fn msg(vals: Vec<f32>) -> StageMsg {
        StageMsg {
            kind: MsgKind::Fwd,
            mb: 1,
            slice: 2,
            g: 1,
            tensor: Tensor::from_vec(1, vals.len(), vals),
        }
    }

    #[test]
    fn clean_link_round_trips_bit_exact() {
        let t = wrap(2, FaultSpec::default());
        std::thread::scope(|s| {
            let t0 = &t;
            s.spawn(move || {
                let mut e = t0.endpoint(0).unwrap();
                e.send(1, msg(vec![1.0, f32::NAN, -0.0, f32::INFINITY]))
                    .unwrap();
                e.close();
            });
            let mut e = t.endpoint(1).unwrap();
            let m = e.recv().unwrap();
            let bits: Vec<u32> = m.tensor.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits,
                vec![
                    1.0f32.to_bits(),
                    f32::NAN.to_bits(),
                    (-0.0f32).to_bits(),
                    f32::INFINITY.to_bits()
                ]
            );
            assert_eq!((m.mb, m.slice, m.g), (1, 2, 1));
            e.close();
        });
    }

    #[test]
    fn latency_is_enforced() {
        let slow = LinkSpec {
            name: "test-slow",
            bandwidth: f64::INFINITY,
            latency: 5e-3,
        };
        let t = EmulatedTransport::new(Box::new(InProcTransport::new(2, 4)), slow);
        std::thread::scope(|s| {
            let t0 = &t;
            s.spawn(move || {
                let mut e = t0.endpoint(0).unwrap();
                e.send(1, msg(vec![1.0])).unwrap();
                let st = e.stats().total();
                assert!(
                    st.wire_ns >= 5_000_000,
                    "wire occupancy below configured latency"
                );
                assert_eq!(st.tx_messages, 1, "the inner endpoint counts traffic once");
                e.close();
            });
            let mut e = t.endpoint(1).unwrap();
            e.recv().unwrap();
            e.close();
        });
    }

    /// Sends 16 messages from stage 0 under `faults`; returns stage 0's
    /// injected-delay count.
    fn delays_over_16_sends(faults: FaultSpec) -> u64 {
        let t = wrap(2, faults);
        let mut a = t.endpoint(0).unwrap();
        let mut b = t.endpoint(1).unwrap();
        for i in 0..16 {
            a.send(1, msg(vec![i as f32])).unwrap();
            assert_eq!(b.recv().unwrap().tensor.data(), &[i as f32]);
        }
        let delays = a.stats().total().injected_delays;
        a.close();
        b.close();
        delays
    }

    #[test]
    fn delays_are_seeded_and_counted() {
        let jitter = |delay_permille, seed| FaultSpec {
            delay_permille,
            delay_us: 50,
            seed,
        };
        assert_eq!(delays_over_16_sends(FaultSpec::default()), 0);
        assert_eq!(delays_over_16_sends(jitter(1000, 3)), 16);
        let some = delays_over_16_sends(jitter(500, 3));
        assert!((1..16).contains(&some), "500 permille delayed {some} of 16");
        assert_eq!(
            delays_over_16_sends(jitter(500, 3)),
            some,
            "the same seed delays the same sends"
        );
    }

    #[test]
    fn bf16_codec_sizes_the_wire_hold() {
        // 1 MB/s, no latency: the hold is the codec's frame bytes alone,
        // and the inner in-process endpoint applies the same codec.
        let link = LinkSpec {
            name: "test-narrow",
            bandwidth: 1e6,
            latency: 0.0,
        };
        let t = EmulatedTransport::with_config(
            Box::new(InProcTransport::with_config(
                2,
                4,
                CommConfig::new().with_codec(crate::CodecId::Bf16),
            )),
            link.clone(),
            CommConfig::new().with_codec(crate::CodecId::Bf16),
        );
        let mut a = t.endpoint(0).unwrap();
        let mut b = t.endpoint(1).unwrap();
        a.send(1, msg(vec![1.0; 256])).unwrap();
        let m = b.recv().unwrap();
        assert_eq!(m.tensor.data(), &[1.0; 256][..]);
        let st = a.stats().total();
        assert_eq!(st.tx_bytes, (HEADER_BYTES + 8 + 2 * 256) as u64);
        let modeled_ns = link.transfer_time(st.tx_bytes) * 1e9;
        assert!(st.wire_ns as f64 >= modeled_ns, "hold below the bf16 frame");
        a.close();
        b.close();
    }

    #[test]
    fn concurrent_bidirectional_sends_do_not_deadlock() {
        let t = wrap(2, FaultSpec::default());
        std::thread::scope(|s| {
            let t0 = &t;
            s.spawn(move || {
                let mut e = t0.endpoint(0).unwrap();
                for i in 0..20 {
                    e.send(1, msg(vec![i as f32])).unwrap();
                    assert_eq!(e.recv().unwrap().tensor.data(), &[i as f32 + 0.5]);
                }
                e.close();
            });
            let mut e = t.endpoint(1).unwrap();
            for i in 0..20 {
                // Send before receiving so both sides have a message in
                // flight at once.
                e.send(0, msg(vec![i as f32 + 0.5])).unwrap();
                assert_eq!(e.recv().unwrap().tensor.data(), &[i as f32]);
            }
            e.close();
        });
    }
}
