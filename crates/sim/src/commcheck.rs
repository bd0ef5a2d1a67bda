//! Measured-vs-modeled communication validation.
//!
//! The simulator predicts transfer times from a [`LinkSpec`]'s alpha-beta
//! model (`latency + bytes / bandwidth`); the emulated transport in
//! `mepipe-comm` *enforces* the same spec with real sleeps and reports
//! what it did through [`CommStats`]. This module closes the loop: given
//! the counters from an emulated run and the spec it ran under, it
//! reconstructs what the cost model would have predicted for the same
//! traffic and reports measured/modeled per directed link.
//!
//! The measured side can only exceed the model, but not by much: the
//! emulator holds each send for at least the modeled wire time, and
//! `wire_ns` counts exactly those holds (plus OS timer overshoot).
//! Ratios should therefore sit near 1.0; [`CommCheckReport::warnings`]
//! names every link whose ratio falls outside
//! [[`RATIO_WARN_LO`], [`RATIO_WARN_HI`]], which indicates either a
//! cost-model bug or heavy timer interference — exactly the signal the
//! paper's profile-predict-execute loop needs.

use mepipe_comm::CommStats;
use mepipe_hw::LinkSpec;

use crate::{RATIO_WARN_HI, RATIO_WARN_LO};

/// Measured vs modeled times for one directed link (stage → peer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCheck {
    /// Sending stage.
    pub stage: usize,
    /// Receiving peer.
    pub peer: usize,
    /// Messages transmitted.
    pub tx_messages: u64,
    /// Bytes transmitted (frame headers included).
    pub tx_bytes: u64,
    /// Tensor payload bytes before wire-codec encoding.
    pub payload_bytes_precodec: u64,
    /// Tensor payload bytes after wire-codec encoding (what the wire
    /// actually carried).
    pub payload_bytes_postcodec: u64,
    /// What the emulator actually held the wire for, seconds.
    pub measured_s: f64,
    /// What the alpha-beta model predicts for the same traffic, seconds.
    pub modeled_s: f64,
}

impl LinkCheck {
    /// measured / modeled; `NaN` when the model predicts zero time.
    pub fn ratio(&self) -> f64 {
        self.measured_s / self.modeled_s
    }

    /// postcodec / precodec payload bytes: 1.0 for the f32 codec, ~0.5
    /// for bf16. `None` when the link carried no payload.
    pub fn compression(&self) -> Option<f64> {
        (self.payload_bytes_precodec > 0)
            .then(|| self.payload_bytes_postcodec as f64 / self.payload_bytes_precodec as f64)
    }
}

/// Whole-run comparison: every directed link that carried traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct CommCheckReport {
    /// The spec the emulated run enforced (and the model predicts from).
    pub link: LinkSpec,
    /// One row per directed link with nonzero traffic.
    pub links: Vec<LinkCheck>,
}

impl CommCheckReport {
    /// Builds the report from an emulated run's per-stage counters.
    ///
    /// `stats` is `RunStats::comm` (one [`CommStats`] per stage); `link`
    /// must be the spec the run was emulated under for the comparison to
    /// be meaningful.
    pub fn from_run(stats: &[CommStats], link: &LinkSpec) -> Self {
        let mut links = Vec::new();
        for cs in stats {
            for (peer, ls) in cs.links.iter().enumerate() {
                if ls.tx_messages == 0 {
                    continue;
                }
                // Alpha-beta over the aggregate: each message pays the
                // latency once, the bytes share the bandwidth term.
                // (`transfer_time(0)` is pinned to zero, so the latency
                // term must come straight from the spec — pricing it via
                // `transfer_time` once charged the latency per *run*.)
                let bandwidth_s = if link.bandwidth.is_finite() {
                    ls.tx_bytes as f64 / link.bandwidth
                } else {
                    0.0
                };
                let modeled_s = ls.tx_messages as f64 * link.latency + bandwidth_s;
                links.push(LinkCheck {
                    stage: cs.stage,
                    peer,
                    tx_messages: ls.tx_messages,
                    tx_bytes: ls.tx_bytes,
                    payload_bytes_precodec: ls.payload_bytes_precodec,
                    payload_bytes_postcodec: ls.payload_bytes_postcodec,
                    measured_s: ls.wire_ns as f64 * 1e-9,
                    modeled_s,
                });
            }
        }
        CommCheckReport {
            link: link.clone(),
            links,
        }
    }

    /// Total measured wire seconds across all links.
    pub fn measured_total(&self) -> f64 {
        self.links.iter().map(|l| l.measured_s).sum()
    }

    /// Total modeled wire seconds across all links.
    pub fn modeled_total(&self) -> f64 {
        self.links.iter().map(|l| l.modeled_s).sum()
    }

    /// Aggregate measured/modeled ratio.
    pub fn ratio(&self) -> f64 {
        self.measured_total() / self.modeled_total()
    }

    /// Every link's emulation held at least the modeled wire time
    /// (minus `tolerance_s` of accounting slack per link). The emulator
    /// guarantees this by construction; a violation means its sleeps or
    /// counters disagree with the cost model.
    pub fn measured_covers_model(&self, tolerance_s: f64) -> bool {
        self.links
            .iter()
            .all(|l| l.measured_s + tolerance_s >= l.modeled_s)
    }

    /// Named `WIRE_MODEL_MISMATCH` warnings for every link whose
    /// measured/modeled ratio falls outside
    /// [[`RATIO_WARN_LO`], [`RATIO_WARN_HI`]]. Links the model prices at
    /// zero (e.g. loopback) are exempt — their ratio is undefined.
    pub fn warnings(&self) -> Vec<String> {
        self.links
            .iter()
            .filter(|l| l.modeled_s > 0.0)
            .filter(|l| {
                let r = l.ratio();
                !(RATIO_WARN_LO..=RATIO_WARN_HI).contains(&r)
            })
            .map(|l| {
                format!(
                    "WIRE_MODEL_MISMATCH: link {} -> {} measured/modeled = {:.2} \
                     (outside [{RATIO_WARN_LO}, {RATIO_WARN_HI}]; measured {:.3} ms, modeled {:.3} ms)",
                    l.stage,
                    l.peer,
                    l.ratio(),
                    l.measured_s * 1e3,
                    l.modeled_s * 1e3,
                )
            })
            .collect()
    }

    /// Plain-text table for logs and EXPERIMENTS.md-style reports, with
    /// [`CommCheckReport::warnings`] appended so out-of-band ratios are
    /// flagged by name rather than silently printed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "link {} (bw {:.3e} B/s, lat {:.1} us): measured/modeled = {:.2}\n",
            self.link.name,
            self.link.bandwidth,
            self.link.latency * 1e6,
            self.ratio()
        );
        for l in &self.links {
            let codec_txt = l
                .compression()
                .map(|c| format!(", codec {c:.2}x"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {} -> {}: {} msgs, {} bytes{codec_txt}, measured {:.3} ms, modeled {:.3} ms ({:.2}x)\n",
                l.stage,
                l.peer,
                l.tx_messages,
                l.tx_bytes,
                l.measured_s * 1e3,
                l.modeled_s * 1e3,
                l.ratio()
            ));
        }
        for w in self.warnings() {
            out.push_str(&w);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_comm::{EmulatedTransport, InProcTransport, MsgKind, StageMsg, Transport};
    use mepipe_tensor::Tensor;

    fn emulated_ping(link: LinkSpec, payload: usize) -> Vec<CommStats> {
        let t = EmulatedTransport::new(Box::new(InProcTransport::new(2, 8)), link);
        let mut stats = vec![CommStats::new(0, 2), CommStats::new(1, 2)];
        std::thread::scope(|s| {
            let tref = &t;
            let sender = s.spawn(move || {
                let mut e = tref.endpoint(0).unwrap();
                e.send(
                    1,
                    StageMsg {
                        kind: MsgKind::Fwd,
                        mb: 0,
                        slice: 0,
                        g: 0,
                        tensor: Tensor::from_vec(1, payload, vec![1.0; payload]),
                    },
                )
                .unwrap();
                e.close();
                e.stats()
            });
            let mut e = t.endpoint(1).unwrap();
            e.recv().unwrap();
            e.close();
            stats[1] = e.stats();
            stats[0] = sender.join().unwrap();
        });
        stats
    }

    #[test]
    fn emulated_wire_time_covers_the_model() {
        // 1 MB/s + 1 ms latency: a 4 KiB tensor models to >= 5 ms, slow
        // enough that timer noise cannot hide the signal.
        let link = LinkSpec {
            name: "test-slow",
            bandwidth: 1e6,
            latency: 1e-3,
        };
        let stats = emulated_ping(link.clone(), 1024);
        let report = CommCheckReport::from_run(&stats, &link);
        assert_eq!(report.links.len(), 1, "one directed link carried data");
        let l = &report.links[0];
        assert_eq!((l.stage, l.peer), (0, 1));
        assert!(l.modeled_s > 4e-3, "modeled {:.6}s", l.modeled_s);
        assert!(
            report.measured_covers_model(0.0),
            "measured {:.6}s < modeled {:.6}s",
            l.measured_s,
            l.modeled_s
        );
        // Sanity on the render path.
        assert!(report.render().contains("test-slow"));
        assert!(report.ratio() >= 1.0);
        // The default f32 codec is 1:1 on the wire.
        assert_eq!(l.compression(), Some(1.0));
        assert!(report.render().contains("codec 1.00x"));
    }

    #[test]
    fn infinite_bandwidth_models_latency_only() {
        let link = LinkSpec::loopback();
        let stats = emulated_ping(link.clone(), 64);
        let report = CommCheckReport::from_run(&stats, &link);
        assert_eq!(report.modeled_total(), 0.0);
        assert!(report.measured_covers_model(0.0));
        // Zero-priced links never warn even though their ratio is NaN.
        assert!(report.warnings().is_empty());
    }

    #[test]
    fn wire_ratio_lands_near_one_with_no_warnings() {
        // wire_ns is the wire holds alone, so even a slow link that
        // keeps the receiver waiting lands inside the healthy band.
        let link = LinkSpec {
            name: "test-slow",
            bandwidth: 1e6,
            latency: 1e-3,
        };
        let stats = emulated_ping(link.clone(), 1024);
        let report = CommCheckReport::from_run(&stats, &link);
        let r = report.ratio();
        assert!(
            (RATIO_WARN_LO..=RATIO_WARN_HI).contains(&r),
            "wire_measured_over_modeled {r:.3} outside the healthy band"
        );
        assert!(report.warnings().is_empty(), "{:?}", report.warnings());
    }

    #[test]
    fn out_of_band_ratios_are_flagged_by_name() {
        let link = LinkSpec {
            name: "test",
            bandwidth: 1e6,
            latency: 1e-3,
        };
        let mut stats = CommStats::new(0, 2);
        stats.links[1].tx_messages = 1;
        stats.links[1].tx_bytes = 1000;
        stats.links[1].wire_ns = 600_000_000; // 0.6 s vs ~2 ms modeled
        let report = CommCheckReport::from_run(&[stats], &link);
        let warnings = report.warnings();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].starts_with("WIRE_MODEL_MISMATCH"));
        assert!(report.render().contains("WIRE_MODEL_MISMATCH"));
    }
}
