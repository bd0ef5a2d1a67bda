//! The strategy search space, per scheduling method.

use std::fmt;

use mepipe_core::{reschedule::reschedule_backwards, svpp, Synth};
use mepipe_hw::topology::ClusterSpec;
use mepipe_model::{
    config::TransformerConfig,
    partition::{PartitionSpec, SequenceSplit},
};
use mepipe_schedule::{
    generator::{self, Dims, ScheduleError, ScheduleGenerator},
    ir::Schedule,
    Blocks, DualPipe,
};

/// The five systems compared in Section 7, plus the three synthesized
/// schedule tiers that share the same IR, validator and simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// DAPPLE / 1F1B (optionally with CP and recomputation).
    Dapple,
    /// Megatron interleaved virtual pipeline parallelism.
    Vpp,
    /// Zero bubble ZB-1P.
    Zb,
    /// Zero bubble ZBV (V-shaped, v = 2).
    Zbv,
    /// MEPipe: SVPP + fine-grained weight gradients.
    Mepipe,
    /// DualPipe bidirectional scheduling (two streams entering from
    /// opposite ends; duplicates parameters per worker).
    DualPipe,
    /// Controllable-memory building-block schedules (lifespan knob).
    Blocks,
    /// Solver-synthesized per-worker op orders (bound-pruned beam search
    /// over the SVPP-shaped IR).
    Synth,
}

impl Method {
    /// All methods: the hand-written zoo in the paper's plotting order,
    /// then the synthesized tiers.
    pub fn all() -> [Method; 8] {
        [
            Method::Dapple,
            Method::Vpp,
            Method::Zb,
            Method::Zbv,
            Method::Mepipe,
            Method::DualPipe,
            Method::Blocks,
            Method::Synth,
        ]
    }

    /// The hand-written templates of Section 7 (the Figure 8 baselines
    /// plus MEPipe itself).
    pub fn templates() -> [Method; 5] {
        [
            Method::Dapple,
            Method::Vpp,
            Method::Zb,
            Method::Zbv,
            Method::Mepipe,
        ]
    }

    /// The synthesized tiers: generated families and solver output, never
    /// counted as "baselines" in the paper's figures.
    pub fn synthesized() -> [Method; 3] {
        [Method::DualPipe, Method::Blocks, Method::Synth]
    }

    /// Whether this method is a synthesized tier (see
    /// [`Method::synthesized`]).
    pub fn is_synthesized(self) -> bool {
        matches!(self, Method::DualPipe | Method::Blocks | Method::Synth)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Method::Dapple => "DAPPLE",
            Method::Vpp => "VPP",
            Method::Zb => "ZB",
            Method::Zbv => "ZBV",
            Method::Mepipe => "MEPipe",
            Method::DualPipe => "DualPipe",
            Method::Blocks => "Blocks",
            Method::Synth => "Synth",
        }
    }

    /// The method whose lower-cased [`Method::name`] is `name` (the
    /// `--schedule` spelling), ignoring ASCII case.
    pub fn from_name(name: &str) -> Option<Method> {
        Method::all()
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// Whether the method can use activation recomputation (the paper
    /// notes it is incompatible with zero-bubble W deferral, and MEPipe
    /// never needs it).
    pub fn supports_recompute(self) -> bool {
        matches!(self, Method::Dapple | Method::Vpp)
    }

    /// Whether the method is a slice-level family of the MEPipe runtime:
    /// it pipelines sequence slices (SPP, consuming no workers), drains
    /// weight gradients per GEMM, and has a memory knob
    /// ([`ScheduleSpec::warmup`]).
    pub fn is_slice_level(self) -> bool {
        matches!(
            self,
            Method::Mepipe | Method::DualPipe | Method::Blocks | Method::Synth
        )
    }

    /// Builds this method's schedule for `dims` with the generator's
    /// default knob — [`ScheduleSpec::generate`] with no knob and no
    /// rescheduling.
    pub fn generate(&self, dims: &Dims) -> Result<Schedule, ScheduleError> {
        ScheduleSpec::new(*self, *dims).generate()
    }
}

/// A schedule by name: the method, its dimensions, its memory knob and
/// the backward-rescheduling polish — everything generation depends on.
///
/// [`ScheduleSpec::generate`] is the one recipe from a name to a
/// schedule, and [`ScheduleSpec::to_args`] / [`ScheduleSpec::from_args`]
/// the one flag codec, so the planner's choice, every `mepipe-worker`
/// process and the control plane's replay build the same schedule bit
/// for bit. It is also the key of the search's schedule cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleSpec {
    /// Scheduling method.
    pub method: Method,
    /// Pipeline dimensions (`v = 2` for DualPipe and ZBV).
    pub dims: Dims,
    /// The memory knob (`None` = the generator's default): SVPP warmup
    /// cap `f` (MEPipe), per-direction admissions (DualPipe), lifespan
    /// (Blocks) or the solver's unit cap (Synth). Only the slice-level
    /// families ([`Method::is_slice_level`]) have one; the others
    /// ignore it.
    pub warmup: Option<usize>,
    /// Polish the generated order with backward rescheduling (Section
    /// 4.3); not defined for the bidirectional DualPipe.
    pub reschedule: bool,
}

impl ScheduleSpec {
    /// `method` at `dims` with the default knob and no rescheduling.
    /// DualPipe's two directions and ZBV's V are two chunks per stage by
    /// definition, so their `v` is pinned to 2.
    pub fn new(method: Method, dims: Dims) -> Self {
        ScheduleSpec {
            method,
            dims: pin_chunks(method, dims),
            warmup: None,
            reschedule: false,
        }
    }

    /// Rejects rescheduling a bidirectional schedule, which the
    /// rescheduler does not define.
    fn check(&self) -> Result<(), ScheduleError> {
        if self.reschedule && self.method == Method::DualPipe {
            return Err(ScheduleError::Unsupported {
                method: self.method.name(),
                reason: "backward rescheduling is not defined for bidirectional schedules".into(),
            });
        }
        Ok(())
    }

    /// Builds the schedule this spec names.
    ///
    /// # Errors
    ///
    /// The generator's rejection of the dims or knob, or
    /// [`ScheduleError::Unsupported`] for rescheduling DualPipe.
    pub fn generate(&self) -> Result<Schedule, ScheduleError> {
        self.check()?;
        let dims = pin_chunks(self.method, self.dims);
        let schedule = match (self.method, self.warmup) {
            (Method::Dapple, _) => generator::Dapple.generate(&dims),
            (Method::Vpp, _) => generator::Vpp.generate(&dims),
            (Method::Zb, _) => generator::Zb.generate(&dims),
            (Method::Zbv, _) => generator::Zbv.generate(&dims),
            (Method::Mepipe, None) => svpp::Mepipe::new().generate(&dims),
            (Method::Mepipe, Some(f)) => svpp::Mepipe::new().warmup_cap(f).generate(&dims),
            (Method::DualPipe, None) => DualPipe::new().generate(&dims),
            (Method::DualPipe, Some(f)) => DualPipe::new().warmup_cap(f).generate(&dims),
            (Method::Blocks, None) => Blocks::uniform().generate(&dims),
            (Method::Blocks, Some(k)) => Blocks::uniform().lifespan(k).generate(&dims),
            // The solver prices with fixed deterministic unit costs, so
            // every process derives the same order from the spec alone.
            (Method::Synth, None) => Synth::new().generate(&dims),
            (Method::Synth, Some(c)) => Synth::new().cap(c).generate(&dims),
        }?;
        if self.reschedule {
            Ok(reschedule_backwards(&schedule)?)
        } else {
            Ok(schedule)
        }
    }

    /// The spec as `mepipe-worker` flags: `--schedule NAME --stages P
    /// --micro-batches N --slices S [--warmup K] [--reschedule]`, `NAME`
    /// being the lower-cased [`Method::name`]. The flags carry no `v`:
    /// [`ScheduleSpec::new`] pins it.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--schedule".to_string(),
            self.method.name().to_lowercase(),
            "--stages".to_string(),
            self.dims.p.to_string(),
            "--micro-batches".to_string(),
            self.dims.n.to_string(),
            "--slices".to_string(),
            self.dims.s.to_string(),
        ];
        if let Some(k) = self.warmup {
            args.extend(["--warmup".to_string(), k.to_string()]);
        }
        if self.reschedule {
            args.push("--reschedule".to_string());
        }
        args
    }

    /// Decodes [`ScheduleSpec::to_args`] flags; a repeated flag's last
    /// value wins, so a caller can prepend defaults.
    ///
    /// # Errors
    ///
    /// A typed [`ScheduleArgError`] for a flag that is not a schedule
    /// flag, a missing flag or value, an unknown method, a non-numeric
    /// value, or a spec [`ScheduleSpec::generate`] would reject up front.
    pub fn from_args(args: &[String]) -> Result<Self, ScheduleArgError> {
        fn number(flag: &'static str, value: Option<&String>) -> Result<usize, ScheduleArgError> {
            let value = value.ok_or(ScheduleArgError::Missing(flag))?;
            value.parse().map_err(|_| ScheduleArgError::NotANumber {
                flag,
                value: value.clone(),
            })
        }
        let (mut method, mut p, mut n, mut s) = (None, None, None, None);
        let (mut warmup, mut reschedule) = (None, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--schedule" => {
                    let name = it.next().ok_or(ScheduleArgError::Missing("--schedule"))?;
                    method = Some(
                        Method::from_name(name)
                            .ok_or_else(|| ScheduleArgError::UnknownSchedule(name.clone()))?,
                    );
                }
                "--stages" => p = Some(number("--stages", it.next())?),
                "--micro-batches" => n = Some(number("--micro-batches", it.next())?),
                "--slices" => s = Some(number("--slices", it.next())?),
                "--warmup" => warmup = Some(number("--warmup", it.next())?),
                "--reschedule" => reschedule = true,
                other => return Err(ScheduleArgError::UnknownFlag(other.to_string())),
            }
        }
        let dims = Dims::new(
            p.ok_or(ScheduleArgError::Missing("--stages"))?,
            n.ok_or(ScheduleArgError::Missing("--micro-batches"))?,
        )
        .slices(s.ok_or(ScheduleArgError::Missing("--slices"))?);
        let method = method.ok_or(ScheduleArgError::Missing("--schedule"))?;
        let spec = ScheduleSpec {
            warmup,
            reschedule,
            ..ScheduleSpec::new(method, dims)
        };
        spec.check().map_err(ScheduleArgError::Unsupported)?;
        Ok(spec)
    }
}

/// `v = 2` for the two-chunk-by-definition methods, `dims` otherwise.
fn pin_chunks(method: Method, dims: Dims) -> Dims {
    match method {
        Method::DualPipe | Method::Zbv => dims.virtual_chunks(2),
        _ => dims,
    }
}

/// Why [`ScheduleSpec::from_args`] rejected its flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleArgError {
    /// A token that is not a schedule flag.
    UnknownFlag(String),
    /// A required flag, or a flag's value, is absent.
    Missing(&'static str),
    /// `--schedule` names no [`Method`].
    UnknownSchedule(String),
    /// A numeric flag's value does not parse as a non-negative integer.
    NotANumber {
        /// The flag.
        flag: &'static str,
        /// Its value as given.
        value: String,
    },
    /// The flags name a spec no generator defines (`--reschedule` with
    /// `dualpipe`).
    Unsupported(ScheduleError),
}

impl fmt::Display for ScheduleArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleArgError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            ScheduleArgError::Missing(flag) => write!(f, "missing {flag} or its value"),
            ScheduleArgError::UnknownSchedule(name) => write!(
                f,
                "unknown --schedule {name} (expected one of: {})",
                Method::all().map(|m| m.name().to_lowercase()).join(", ")
            ),
            ScheduleArgError::NotANumber { flag, value } => {
                write!(f, "{flag} expects a non-negative integer, got {value:?}")
            }
            ScheduleArgError::Unsupported(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScheduleArgError {}

/// One point of the search space.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Scheduling method.
    pub method: Method,
    /// The partition (PP, VP, DP, CP/SPP, recompute, batching).
    pub spec: PartitionSpec,
}

impl Candidate {
    /// The schedule dimensions of this candidate. Context parallelism
    /// affects only the cost model, not the schedule shape, so `s` comes
    /// from slice pipelining alone.
    ///
    /// DualPipe's two chunks are the two directions' *replicas* of the
    /// same `p`-way layer split, not an interleaved refinement, so its
    /// partition keeps `vp = 1` (each op prices `L/p` layers) while the
    /// schedule dims carry `v = 2`.
    pub fn dims(&self) -> Dims {
        let dims = Dims::new(self.spec.pp, self.spec.micro_batches())
            .virtual_chunks(self.spec.vp)
            .slices(self.spec.seq.spp_slices());
        ScheduleSpec::new(self.method, dims).dims
    }

    /// Compact label like `(8, 4, 1, ✗)` — (PP, CP/SPP, VP, recompute), the
    /// notation of Tables 5 and 8.
    pub fn label(&self) -> String {
        let seq = match self.spec.seq {
            SequenceSplit::None => 1,
            SequenceSplit::Context { size } => size,
            SequenceSplit::SlicePipeline { slices } => slices,
        };
        format!(
            "({}, {}, {}, {})",
            self.spec.pp,
            seq,
            self.spec.vp,
            if self.spec.recompute { "✓" } else { "✗" }
        )
    }
}

/// Enumerates every shape-valid candidate for `method` on `cluster`.
///
/// Constraints follow Section 7.1: the model must split evenly into
/// `pp × vp` chunks, the data-parallel size is at least 2, CP occupies
/// workers while SPP does not, and the global batch must divide evenly.
pub fn enumerate_candidates(
    method: Method,
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    global_batch: usize,
) -> Vec<Candidate> {
    let devices = cluster.num_devices();
    let mut out = Vec::new();
    let pps = [2usize, 4, 8, 16, 32];
    let vps: &[usize] = match method {
        Method::Vpp => &[2, 4],
        Method::Zbv => &[2],
        // DualPipe's v = 2 is a replica count, not a partition refinement
        // (see `Candidate::dims`); the synthesized tiers search slices.
        _ => &[1],
    };
    let seqs: &[usize] = match method {
        Method::Mepipe | Method::Synth => &[1, 2, 4, 8, 16],
        _ => &[1, 2, 4, 8],
    };
    let recomputes: &[bool] = if method.supports_recompute() {
        &[false, true]
    } else {
        &[false]
    };

    for &pp in &pps {
        for &vp in vps {
            if !model.pipeline_slots().is_multiple_of(pp * vp) {
                continue;
            }
            for &seq in seqs {
                // Slice-level schedules: SPP shares the sequence across
                // pipeline time, consuming no workers.
                let seq_split = if method.is_slice_level() {
                    SequenceSplit::SlicePipeline { slices: seq }
                } else if seq == 1 {
                    SequenceSplit::None
                } else {
                    SequenceSplit::Context { size: seq }
                };
                let cp_workers = seq_split.cp_size();
                if pp * cp_workers > devices {
                    continue;
                }
                if !devices.is_multiple_of(pp * cp_workers) {
                    continue;
                }
                let dp = devices / (pp * cp_workers);
                if dp < 2 {
                    continue;
                }
                if !global_batch.is_multiple_of(dp) {
                    continue;
                }
                for &recompute in recomputes {
                    let spec = PartitionSpec {
                        pp,
                        vp,
                        dp,
                        seq: seq_split,
                        recompute,
                        micro_batch_size: 1,
                        global_batch,
                    };
                    if spec.validate(model, devices).is_err() {
                        continue;
                    }
                    // Megatron's interleaved scheduler needs n % p == 0.
                    if method == Method::Vpp && !spec.micro_batches().is_multiple_of(pp) {
                        continue;
                    }
                    // DualPipe pairs micro-batches into two streams.
                    if method == Method::DualPipe
                        && (spec.micro_batches() < 2 || !spec.micro_batches().is_multiple_of(2))
                    {
                        continue;
                    }
                    out.push(Candidate { method, spec });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_is_nonempty_for_every_method() {
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        for m in Method::all() {
            let c = enumerate_candidates(m, &model, &cluster, 128);
            assert!(!c.is_empty(), "{} has an empty space", m.name());
        }
    }

    #[test]
    fn templates_and_synthesized_partition_all() {
        let mut combined: Vec<Method> = Method::templates().to_vec();
        combined.extend(Method::synthesized());
        assert_eq!(combined, Method::all().to_vec());
        for m in Method::templates() {
            assert!(!m.is_synthesized());
        }
        for m in Method::synthesized() {
            assert!(m.is_synthesized());
        }
    }

    #[test]
    fn dualpipe_dims_carry_two_replica_chunks() {
        let spec = PartitionSpec {
            pp: 8,
            vp: 1,
            dp: 8,
            seq: SequenceSplit::SlicePipeline { slices: 2 },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 128,
        };
        let c = Candidate {
            method: Method::DualPipe,
            spec,
        };
        assert_eq!(c.dims().v, 2);
        assert_eq!(c.spec.vp, 1, "pricing partition stays vp = 1");
        let every = enumerate_candidates(
            Method::DualPipe,
            &TransformerConfig::llama2_13b(),
            &ClusterSpec::rtx4090_cluster(),
            128,
        );
        assert!(!every.is_empty());
        for c in every {
            assert!(c.spec.micro_batches().is_multiple_of(2), "{:?}", c);
            assert_eq!(c.dims().v, 2);
        }
    }

    #[test]
    fn mepipe_space_contains_the_paper_optimum() {
        // Table 5: MEPipe's 13B optimum is (8, 4, 1, ✗).
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let c = enumerate_candidates(Method::Mepipe, &model, &cluster, 128);
        assert!(
            c.iter().any(|x| x.label() == "(8, 4, 1, ✗)"),
            "labels: {:?}",
            c.iter().map(Candidate::label).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cp_consumes_workers_spp_does_not() {
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let dapple = enumerate_candidates(Method::Dapple, &model, &cluster, 128);
        // DAPPLE with cp=8 and pp=8 would need dp=1 — excluded.
        assert!(!dapple
            .iter()
            .any(|c| c.spec.pp == 8 && c.spec.seq.cp_size() == 8));
        let mepipe = enumerate_candidates(Method::Mepipe, &model, &cluster, 128);
        // MEPipe at spp=8, pp=8 keeps dp=8 — allowed.
        assert!(mepipe
            .iter()
            .any(|c| c.spec.pp == 8 && c.spec.seq.spp_slices() == 8));
    }

    #[test]
    fn every_candidate_validates() {
        let model = TransformerConfig::llama2_7b();
        let cluster = ClusterSpec::rtx4090_cluster();
        for m in Method::all() {
            for c in enumerate_candidates(m, &model, &cluster, 128) {
                assert!(c.spec.validate(&model, 64).is_ok(), "{:?}", c);
            }
        }
    }

    fn from_args(flags: &str) -> Result<ScheduleSpec, ScheduleArgError> {
        let args: Vec<String> = flags.split_whitespace().map(String::from).collect();
        ScheduleSpec::from_args(&args)
    }

    #[test]
    fn unknown_schedule_flag_is_a_typed_error() {
        assert_eq!(
            from_args("--schedule gpipe --stages 4 --micro-batches 4 --slices 1"),
            Err(ScheduleArgError::UnknownSchedule("gpipe".into()))
        );
    }

    #[test]
    fn non_numeric_schedule_flag_is_a_typed_error() {
        assert_eq!(
            from_args("--schedule mepipe --stages four --micro-batches 4 --slices 1"),
            Err(ScheduleArgError::NotANumber {
                flag: "--stages",
                value: "four".into()
            })
        );
    }

    #[test]
    fn rescheduling_dualpipe_is_a_typed_error() {
        let spec = ScheduleSpec {
            reschedule: true,
            ..ScheduleSpec::new(Method::DualPipe, Dims::new(4, 4))
        };
        let refused = spec.generate().unwrap_err();
        assert_eq!(
            ScheduleSpec::from_args(&spec.to_args()),
            Err(ScheduleArgError::Unsupported(refused))
        );
    }

    #[test]
    fn labels_match_paper_notation() {
        let c = Candidate {
            method: Method::Mepipe,
            spec: PartitionSpec {
                pp: 8,
                vp: 1,
                dp: 8,
                seq: SequenceSplit::SlicePipeline { slices: 4 },
                recompute: false,
                micro_batch_size: 1,
                global_batch: 128,
            },
        };
        assert_eq!(c.label(), "(8, 4, 1, ✗)");
    }
}
