//! Measured-vs-modeled reconciliation: one row type, one report type.
//!
//! The simulator models three things a real run also measures, and each
//! comparison is the same idea — a measured/modeled [`Ratio`] per row and
//! one warning band around 1. [`Report`] holds the rows of one
//! comparison; its statistics, band check and rendering are written once
//! and apply to every kind. Three constructors build it:
//!
//! * [`time`] — compute seconds per `(stage, op kind)` from a measured
//!   [`IterationTrace`] against the [`SimResult`] of the same schedule,
//!   with the makespan and the mean idle share beside the rows. A row far
//!   from 1 localises cost-model error to one op class on one stage; good
//!   rows with a bad makespan point at scheduling or communication
//!   instead — the split the paper's profile-predict-execute loop needs.
//! * [`wire`] — wire seconds per directed link from an emulated run's
//!   [`CommStats`] against the alpha–beta model of the [`LinkSpec`] the
//!   emulator enforced. The emulator holds each send for at least the
//!   modeled time and `wire_ns` counts exactly those holds, so the ratio
//!   sits at or just above 1.
//! * [`memory`] — peak live activation bytes per stage (`MemTracker`)
//!   against the schedule's in-flight model, `peak_in_flight × unit
//!   price` — the paper's claim that peak memory scales with the
//!   *scheduled* in-flight count — with the process `VmHWM` as the
//!   outermost sanity bound.
//!
//! [`Report::warnings`] names every row whose ratio leaves
//! [[`RATIO_WARN_LO`], [`RATIO_WARN_HI`]]. Rows the model prices at zero
//! (loopback links, stages with no scheduled units) are exempt: their
//! ratio is undefined.

use std::collections::BTreeMap;

use mepipe_comm::CommStats;
use mepipe_hw::LinkSpec;
use mepipe_schedule::exec::SimResult;
use mepipe_schedule::ir::Schedule;
use mepipe_schedule::validate::peak_in_flight;
use mepipe_trace::{bubble, IterationTrace};

use crate::{RATIO_WARN_HI, RATIO_WARN_LO};

/// One measured/modeled pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Ratio {
    /// What the row compares, e.g. `stage 0 F` or `link 0 -> 1`.
    pub what: String,
    /// The measured value (seconds or bytes, per the report's [`Kind`]).
    pub measured: f64,
    /// The model's prediction of the same value.
    pub modeled: f64,
}

impl Ratio {
    /// measured / modeled; `NaN` or infinite when the model predicts zero.
    pub fn ratio(&self) -> f64 {
        self.measured / self.modeled
    }
}

/// What a report's rows measure, with the whole-run context that sits
/// beside them.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Compute seconds per `(stage, op kind)`.
    Time {
        /// Measured analysis window (first to last compute) against the
        /// simulated makespan, seconds.
        makespan: Ratio,
        /// Mean idle fraction per stage, measured against simulated.
        idle_share: Ratio,
    },
    /// Wire seconds per directed link.
    Wire {
        /// The spec the emulated run enforced and the model priced.
        link: LinkSpec,
    },
    /// Peak live activation bytes per stage.
    Memory {
        /// Process peak resident set (`VmHWM`), bytes, when readable —
        /// the outer bound no sum of tracked bytes may exceed.
        process_hwm_bytes: Option<u64>,
    },
}

impl Kind {
    fn name(&self) -> &'static str {
        match self {
            Kind::Time { .. } => "time",
            Kind::Wire { .. } => "wire",
            Kind::Memory { .. } => "memory",
        }
    }

    fn warning(&self) -> &'static str {
        match self {
            Kind::Time { .. } => "TIME_MODEL_MISMATCH",
            Kind::Wire { .. } => "WIRE_MODEL_MISMATCH",
            Kind::Memory { .. } => "MEM_MODEL_MISMATCH",
        }
    }

    fn format(&self, value: f64) -> String {
        match self {
            Kind::Time { .. } | Kind::Wire { .. } => format!("{:.3} ms", value * 1e3),
            Kind::Memory { .. } => format!("{:.1} KiB", value / 1024.0),
        }
    }
}

/// One measured-vs-modeled comparison: its rows and what they measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The quantity compared and the context beside the rows.
    pub kind: Kind,
    /// One row per compared item, in a stable order.
    pub rows: Vec<Ratio>,
}

impl Report {
    /// Aggregate measured/modeled ratio over every row.
    pub fn ratio(&self) -> f64 {
        let measured: f64 = self.rows.iter().map(|r| r.measured).sum();
        let modeled: f64 = self.rows.iter().map(|r| r.modeled).sum();
        measured / modeled
    }

    /// Mean over rows of `|measured − modeled| / measured`, skipping rows
    /// with nothing measured. For [`time`] reports this is the
    /// calibration loop's convergence metric: fitting the cost model from
    /// the measured spans drives it toward zero. `NaN` when no row has a
    /// measurement.
    pub fn mean_relative_error(&self) -> f64 {
        let (sum, n) = self
            .rows
            .iter()
            .filter(|r| r.measured > 0.0)
            .fold((0.0, 0usize), |(sum, n), r| {
                (sum + (r.measured - r.modeled).abs() / r.measured, n + 1)
            });
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// Worst per-row `|ln ratio|` over rows with a value on both sides;
    /// 0 means every row matched exactly.
    pub fn max_misfit(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.measured > 0.0 && r.modeled > 0.0)
            .map(|r| r.ratio().ln().abs())
            .fold(0.0, f64::max)
    }

    /// Named warnings (`TIME_MODEL_MISMATCH`, `WIRE_MODEL_MISMATCH`,
    /// `MEM_MODEL_MISMATCH`) for every row the model prices above zero
    /// whose ratio falls outside [[`RATIO_WARN_LO`], [`RATIO_WARN_HI`]].
    ///
    /// Below the band the model over-prices what was measured; above it
    /// the run spent far more than the model knows about — for memory,
    /// buffers the runtime retains and the model does not price (leaked
    /// saves, deferred-W operands past their drain point). A memory
    /// report also gets `MEM_HWM_MISMATCH` when the tracked peaks sum
    /// past the process high-water mark: live bytes the process never
    /// held mean the accounting is broken.
    pub fn warnings(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .rows
            .iter()
            .filter(|r| r.modeled > 0.0 && !(RATIO_WARN_LO..=RATIO_WARN_HI).contains(&r.ratio()))
            .map(|r| {
                format!(
                    "{}: {} measured/modeled = {:.2} (outside [{RATIO_WARN_LO}, {RATIO_WARN_HI}]; \
                     measured {}, modeled {})",
                    self.kind.warning(),
                    r.what,
                    r.ratio(),
                    self.kind.format(r.measured),
                    self.kind.format(r.modeled),
                )
            })
            .collect();
        if let Kind::Memory {
            process_hwm_bytes: Some(hwm),
        } = self.kind
        {
            let tracked: f64 = self.rows.iter().map(|r| r.measured).sum();
            if tracked > hwm as f64 {
                out.push(format!(
                    "MEM_HWM_MISMATCH: trackers measured {:.1} KiB live but the process \
                     high-water mark is {:.1} KiB — accounting exceeds reality",
                    tracked / 1024.0,
                    hwm as f64 / 1024.0,
                ));
            }
        }
        out
    }

    /// Plain-text table for logs and EXPERIMENTS.md-style reports, with
    /// [`Report::warnings`] appended so out-of-band rows are flagged by
    /// name rather than silently printed.
    pub fn render(&self) -> String {
        let context = match &self.kind {
            Kind::Time {
                makespan,
                idle_share,
            } => format!(
                "; {} measured {} vs modeled {}; {} measured {:.1}% vs modeled {:.1}%",
                makespan.what,
                self.kind.format(makespan.measured),
                self.kind.format(makespan.modeled),
                idle_share.what,
                idle_share.measured * 100.0,
                idle_share.modeled * 100.0,
            ),
            Kind::Wire { link } => format!(
                " over {} (bw {:.3e} B/s, lat {:.1} us)",
                link.name,
                link.bandwidth,
                link.latency * 1e6
            ),
            Kind::Memory { process_hwm_bytes } => process_hwm_bytes
                .map(|h| format!("; VmHWM {:.1} MiB", h as f64 / (1024.0 * 1024.0)))
                .unwrap_or_default(),
        };
        let mut out = format!(
            "{} fidelity: measured/modeled = {:.2}{context}\n",
            self.kind.name(),
            self.ratio()
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {}: measured {}, modeled {} ({:.2}x)\n",
                r.what,
                self.kind.format(r.measured),
                self.kind.format(r.modeled),
                r.ratio()
            ));
        }
        for w in self.warnings() {
            out.push_str(&w);
            out.push('\n');
        }
        out
    }
}

/// Lines up a measured trace with the simulation of the same schedule:
/// one row per `(stage, op kind)` with compute time on either side.
///
/// Only replica 0 is compared, on every line — data-parallel replicas
/// run the same schedule and the simulator models one.
pub fn time(trace: &IterationTrace, sim: &SimResult) -> Report {
    let replica0 = IterationTrace {
        stages: trace
            .stages
            .iter()
            .filter(|s| s.replica == 0)
            .cloned()
            .collect(),
    };
    // (stage, letter) -> [measured, modeled] seconds; the map's order is
    // the rows' order.
    let mut acc: BTreeMap<(usize, char), [f64; 2]> = BTreeMap::new();
    for st in &replica0.stages {
        for s in st.spans.iter().filter(|s| s.kind.is_compute()) {
            acc.entry((st.stage, s.kind.letter())).or_default()[0] += s.duration_ns() as f64 * 1e-9;
        }
    }
    for (stage, segs) in sim.segments.iter().enumerate() {
        for s in segs {
            acc.entry((stage, s.kind.letter())).or_default()[1] += s.duration();
        }
    }
    let rows = acc
        .into_iter()
        .map(|((stage, letter), [measured, modeled])| Ratio {
            what: format!("stage {stage} {letter}"),
            measured,
            modeled,
        })
        .collect();
    let measured = bubble::attribute(&replica0);
    Report {
        kind: Kind::Time {
            makespan: Ratio {
                what: "makespan".into(),
                measured: measured.makespan_s,
                modeled: sim.makespan,
            },
            idle_share: Ratio {
                what: "idle share".into(),
                measured: measured.bubble_ratio(),
                modeled: sim.bubble_ratio(),
            },
        },
        rows,
    }
}

/// Compares an emulated run's wire time with the alpha–beta model of
/// `link`: one row per directed link that carried traffic.
///
/// `stats` is `RunStats::comm` (one [`CommStats`] per stage); `link` must
/// be the spec the run was emulated under for the comparison to mean
/// anything.
pub fn wire(stats: &[CommStats], link: &LinkSpec) -> Report {
    let mut rows = Vec::new();
    for cs in stats {
        for (peer, ls) in cs.links.iter().enumerate() {
            if ls.tx_messages == 0 {
                continue;
            }
            // Each message pays the latency once; the bytes share the
            // bandwidth term. (`transfer_time(0)` is pinned to zero, so
            // the latency must come straight from the spec — pricing it
            // via `transfer_time` once charged it per *run*.)
            let bandwidth_s = if link.bandwidth.is_finite() {
                ls.tx_bytes as f64 / link.bandwidth
            } else {
                0.0
            };
            rows.push(Ratio {
                what: format!("link {} -> {peer}", cs.stage),
                measured: ls.wire_ns as f64 * 1e-9,
                modeled: ls.tx_messages as f64 * link.latency + bandwidth_s,
            });
        }
    }
    Report {
        kind: Kind::Wire { link: link.clone() },
        rows,
    }
}

/// Compares each stage's measured peak live bytes (`RunStats::peak_bytes`)
/// with the schedule's model of it: [`peak_in_flight`]`(schedule)[stage] ×
/// unit_prices[stage]`.
///
/// A unit price can come from the analytic `mepipe_model::memory`
/// pricing or, sharper, from a probe run whose schedule holds one unit
/// in flight: its measured peak per scheduled unit is the stage's price,
/// and the comparison then tests exactly the in-flight scaling.
///
/// # Panics
///
/// Panics if `peak_bytes` or `unit_prices` disagrees with the schedule's
/// worker count — the comparison would be meaningless.
pub fn memory(schedule: &Schedule, peak_bytes: &[usize], unit_prices: &[f64]) -> Report {
    let units = peak_in_flight(schedule);
    assert_eq!(
        units.len(),
        peak_bytes.len(),
        "schedule workers vs measured stages"
    );
    assert_eq!(
        units.len(),
        unit_prices.len(),
        "schedule workers vs unit prices"
    );
    let rows = units
        .iter()
        .zip(peak_bytes)
        .zip(unit_prices)
        .enumerate()
        .map(|(stage, ((&units, &bytes), &price))| Ratio {
            what: format!("stage {stage} ({units} units in flight)"),
            measured: bytes as f64,
            modeled: units as f64 * price,
        })
        .collect();
    Report {
        kind: Kind::Memory {
            process_hwm_bytes: vm_hwm_bytes(),
        },
        rows,
    }
}

/// The process peak resident set (`VmHWM`) from `/proc/self/status`, in
/// bytes. `None` off Linux or if the field is missing or unparseable.
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// A measured trace fabricated from the simulator's own segments (one
/// replica-0 stage trace per worker): a comparison against it fits
/// exactly, and a fit against it recovers the simulated costs.
#[cfg(test)]
pub(crate) fn trace_from_sim(sim: &SimResult) -> IterationTrace {
    use mepipe_trace::{Span, SpanKind, StageTrace, NO_TAG};
    IterationTrace {
        stages: sim
            .segments
            .iter()
            .enumerate()
            .map(|(stage, segs)| StageTrace {
                stage,
                replica: 0,
                epoch_ns: 0,
                spans: segs
                    .iter()
                    .map(|s| Span {
                        kind: SpanKind::from_letter(s.kind.letter()).expect("compute letter"),
                        mb: s.op.map_or(NO_TAG, |o| o.micro_batch as u32),
                        slice: s.op.map_or(NO_TAG, |o| o.slice as u32),
                        chunk: s.op.map_or(NO_TAG, |o| o.chunk as u32),
                        peer: NO_TAG,
                        start_ns: (s.start * 1e9).round() as u64,
                        end_ns: (s.end * 1e9).round() as u64,
                    })
                    .collect(),
                dropped: 0,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_comm::{EmulatedTransport, InProcTransport, MsgKind, StageMsg, Transport};
    use mepipe_core::svpp::Mepipe;
    use mepipe_schedule::exec::{simulate, SimConfig, UnitCost};
    use mepipe_schedule::generator::{Dapple, Dims, ScheduleGenerator};
    use mepipe_tensor::Tensor;

    fn unit_sim(stages: usize, micro_batches: usize) -> SimResult {
        let sch = Mepipe::new()
            .generate(&Dims::new(stages, micro_batches).slices(2))
            .unwrap();
        simulate(&sch, &UnitCost::default(), &SimConfig::default()).unwrap()
    }

    fn svpp_schedule(stages: usize, mbs: usize, slices: usize) -> Schedule {
        Mepipe::new()
            .generate(&Dims::new(stages, mbs).slices(slices))
            .expect("valid dims")
    }

    fn makespan_and_idle(r: &Report) -> (Ratio, Ratio) {
        match &r.kind {
            Kind::Time {
                makespan,
                idle_share,
            } => (makespan.clone(), idle_share.clone()),
            k => panic!("not a time report: {k:?}"),
        }
    }

    #[test]
    fn sim_derived_trace_fits_perfectly() {
        let sim = unit_sim(2, 4);
        let r = time(&trace_from_sim(&sim), &sim);
        assert!(!r.rows.is_empty());
        assert!(r.rows.iter().any(|o| o.what.starts_with("stage 0 ")));
        assert!(r.rows.iter().any(|o| o.what.starts_with("stage 1 ")));
        // Rounding seconds -> ns keeps every ratio within a hair of 1.
        assert!(r.max_misfit() < 1e-6, "misfit {}", r.max_misfit());
        assert!((r.ratio() - 1.0).abs() < 1e-6);
        assert!(r.mean_relative_error() < 1e-6);
        assert!(r.warnings().is_empty(), "{:?}", r.warnings());
        let (makespan, idle) = makespan_and_idle(&r);
        assert!((makespan.measured - makespan.modeled).abs() < 1e-6);
        assert!((idle.measured - idle.modeled).abs() < 1e-6);
    }

    #[test]
    fn inflated_measurements_show_up_in_the_ratio() {
        let sim = unit_sim(2, 2);
        let mut trace = trace_from_sim(&sim);
        // Double every measured duration in place.
        for st in &mut trace.stages {
            for s in &mut st.spans {
                s.end_ns = s.start_ns + 2 * (s.end_ns - s.start_ns);
            }
        }
        let r = time(&trace, &sim);
        assert!((r.ratio() - 2.0).abs() < 1e-6, "ratio {}", r.ratio());
        assert!(r.max_misfit() > 0.5);
        // Every row doubled: |m − m/2| / m = 0.5 on each row.
        assert!((r.mean_relative_error() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn time_compares_replica_zero_on_every_line() {
        // A second data-parallel replica twice as slow must change
        // nothing: not the rows, not the makespan, not the idle share.
        let sim = unit_sim(2, 4);
        let single = trace_from_sim(&sim);
        let mut two = single.clone();
        two.stages.extend(single.stages.iter().map(|st| {
            let mut st = st.clone();
            st.replica = 1;
            for s in &mut st.spans {
                s.start_ns *= 2;
                s.end_ns *= 2;
            }
            st
        }));
        let (one_r, two_r) = (time(&single, &sim), time(&two, &sim));
        assert_eq!(two_r, one_r);
        let (makespan, idle) = makespan_and_idle(&two_r);
        assert!((makespan.measured - sim.makespan).abs() < 1e-6);
        assert!((idle.measured - sim.bubble_ratio()).abs() < 1e-6);
    }

    #[test]
    fn render_names_every_stage_and_kind() {
        let sim = unit_sim(2, 2);
        let text = time(&trace_from_sim(&sim), &sim).render();
        assert!(text.starts_with("time fidelity"), "{text}");
        assert!(text.contains("makespan measured"));
        assert!(text.contains("stage 0 F"));
        assert!(text.contains("stage 1"));
    }

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

    /// 1 MB/s + 1 ms latency: a 4 KiB tensor models to >= 5 ms, slow
    /// enough that timer noise cannot hide the signal.
    fn slow_link() -> LinkSpec {
        LinkSpec {
            name: "test-slow",
            bandwidth: 1e6,
            latency: 1e-3,
        }
    }

    #[test]
    fn emulated_wire_time_covers_the_model() {
        let link = slow_link();
        let report = wire(&emulated_ping(link.clone(), 1024), &link);
        assert_eq!(report.rows.len(), 1, "one directed link carried data");
        let l = &report.rows[0];
        assert_eq!(l.what, "link 0 -> 1");
        assert!(l.modeled > 4e-3, "modeled {:.6}s", l.modeled);
        // The emulator holds every send for at least its modeled time.
        assert!(
            l.measured >= l.modeled,
            "measured {:.6}s < modeled {:.6}s",
            l.measured,
            l.modeled
        );
        assert!(report.render().contains("test-slow"));
        assert!(report.ratio() >= 1.0);
    }

    #[test]
    fn infinite_bandwidth_models_latency_only() {
        let link = LinkSpec::loopback();
        let report = wire(&emulated_ping(link.clone(), 64), &link);
        assert!(report.rows.iter().all(|l| l.modeled == 0.0));
        assert!(report.rows.iter().all(|l| l.measured >= l.modeled));
        // Zero-priced links never warn even though their ratio is NaN.
        assert!(report.warnings().is_empty());
    }

    #[test]
    fn wire_ratio_lands_near_one_with_no_warnings() {
        // wire_ns is the wire holds alone, so even a slow link that
        // keeps the receiver waiting lands inside the healthy band.
        let link = slow_link();
        let report = wire(&emulated_ping(link.clone(), 1024), &link);
        let r = report.ratio();
        assert!(
            (RATIO_WARN_LO..=RATIO_WARN_HI).contains(&r),
            "wire_measured_over_modeled {r:.3} outside the healthy band"
        );
        assert!(report.warnings().is_empty(), "{:?}", report.warnings());
    }

    #[test]
    fn out_of_band_wire_ratios_are_flagged_by_name() {
        let link = LinkSpec {
            name: "test",
            bandwidth: 1e6,
            latency: 1e-3,
        };
        let mut stats = CommStats::new(0, 2);
        stats.links[1].tx_messages = 1;
        stats.links[1].tx_bytes = 1000;
        stats.links[1].wire_ns = 600_000_000; // 0.6 s vs ~2 ms modeled
        let report = wire(&[stats], &link);
        let warnings = report.warnings();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].starts_with("WIRE_MODEL_MISMATCH"));
        assert!(report.render().contains("WIRE_MODEL_MISMATCH"));
    }

    #[test]
    fn exact_linear_scaling_is_in_band() {
        let sch = svpp_schedule(4, 8, 2);
        let measured: Vec<usize> = peak_in_flight(&sch).iter().map(|u| u * 1000).collect();
        let report = memory(&sch, &measured, &[1000.0; 4]);
        assert!(report.warnings().is_empty(), "{:?}", report.warnings());
        assert!((report.ratio() - 1.0).abs() < 1e-9);
        assert!(report.render().contains("measured/modeled = 1.00"));
    }

    #[test]
    fn retained_buffers_past_the_band_are_flagged_by_name() {
        let sch = svpp_schedule(2, 4, 2);
        let units = peak_in_flight(&sch);
        let mut measured: Vec<usize> = units.iter().map(|u| u * 1000).collect();
        measured[1] = units[1] * 5000; // 5x the model on stage 1
        let report = memory(&sch, &measured, &[1000.0; 2]);
        let warnings = report.warnings();
        assert!(
            warnings
                .iter()
                .any(|w| w.starts_with("MEM_MODEL_MISMATCH") && w.contains("stage 1")),
            "{warnings:?}"
        );
        assert!(report.render().contains("MEM_MODEL_MISMATCH"));
    }

    #[test]
    fn zero_priced_stages_never_warn() {
        let sch = svpp_schedule(2, 4, 2);
        // A real schedule puts units on every stage, so exercise the
        // exemption through a zero unit price instead.
        let report = memory(&sch, &[5000; 2], &[0.0; 2]);
        assert!(report.warnings().is_empty(), "{:?}", report.warnings());
    }

    #[test]
    fn tracked_bytes_past_the_high_water_mark_are_flagged() {
        let sch = svpp_schedule(2, 4, 2);
        let units = peak_in_flight(&sch);
        let measured: Vec<usize> = units.iter().map(|u| u * 1000).collect();
        let mut report = memory(&sch, &measured, &[1000.0; 2]);
        report.kind = Kind::Memory {
            process_hwm_bytes: Some(1000),
        };
        let warnings = report.warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].starts_with("MEM_HWM_MISMATCH"));
    }

    #[test]
    fn vm_hwm_reads_on_linux() {
        // The build/test environment is Linux; a live process must have
        // a nonzero high-water mark well above a megabyte.
        let hwm = vm_hwm_bytes().expect("VmHWM readable");
        assert!(hwm > 1 << 20, "VmHWM = {hwm}");
    }

    #[test]
    fn svpp_models_below_dapple_in_bytes() {
        // The claim the memory report quantifies: SVPP holds more *units*
        // in flight (slice units, 5 vs 4 here) but each is `slices`×
        // smaller, so its modeled bytes undercut the 1F1B family's —
        // 5·A/8 vs 4·A/4 for p=4, s=2.
        let slices = 2.0;
        let sample_bytes = 8192.0;
        let svpp = svpp_schedule(4, 8, 2);
        let dapple = Dapple.generate(&Dims::new(4, 8)).expect("dapple");
        let dapple_unit = sample_bytes / 4.0;
        let svpp_unit = dapple_unit / slices;
        let b_svpp = peak_in_flight(&svpp)[0] as f64 * svpp_unit;
        let b_dapple = peak_in_flight(&dapple)[0] as f64 * dapple_unit;
        assert!(
            b_svpp < b_dapple,
            "svpp {b_svpp} bytes vs dapple {b_dapple}"
        );
    }
}
