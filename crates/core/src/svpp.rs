//! SVPP — Sequence Virtual Pipeline Parallelism (Section 4).
//!
//! SVPP schedules forward and backward passes at the granularity of
//! *sequence slices* flowing through *virtual model chunks*, interleaving
//! them 1F1B-style so that the activations a worker retains stay close to
//! the theoretical floor of `v·s` slice units instead of whole
//! micro-batches. Generation is the capacity-bounded greedy construction
//! shared with the baselines; what makes it SVPP is the parameterisation:
//!
//! * slices `s > 1` (sequence pipelining à la TeraPipe), *and*
//! * chunks `v ≥ 1` (virtual pipelining à la Megatron), *and*
//! * the warmup budget `f` (forwards admitted before the first backward),
//!   `v·s ≤ f ≤ v·max(p,s) + min(p,s) − 1`, stage `w` receiving
//!   `max(f − w, v·s)` — the memory knob of Section 4.2.

use mepipe_schedule::{
    generate::{default_caps, greedy_generate},
    generator::{Dims, ScheduleError, ScheduleGenerator},
    ir::{ChunkPlacement, Schedule, ScheduleMeta},
};

/// Parameters of one SVPP schedule.
///
/// Construct with [`SvppConfig::new`] and the builder methods; the
/// struct is `#[non_exhaustive]` so future knobs (e.g. non-uniform
/// slicing) can land without breaking callers.
///
/// ```
/// use mepipe_core::svpp::SvppConfig;
/// let cfg = SvppConfig::new(4, 2, 8).virtual_chunks(2).warmup_cap(6);
/// assert_eq!(cfg.effective_warmup(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct SvppConfig {
    /// Pipeline stages `p`.
    pub stages: usize,
    /// Virtual chunks per stage `v`.
    pub virtual_chunks: usize,
    /// Sequence slices per sample `s`.
    pub slices: usize,
    /// Micro-batches per iteration `n`.
    pub micro_batches: usize,
    /// Warmup budget `f` (forwards before the first backward on stage 0);
    /// `None` selects the lowest-bubble variant `f_max`.
    pub warmup_cap: Option<usize>,
}

impl SvppConfig {
    /// A config for `p` stages, `s` slices, `n` micro-batches, with no
    /// virtual chunking and the lowest-bubble warmup budget.
    pub fn new(stages: usize, slices: usize, micro_batches: usize) -> Self {
        SvppConfig {
            stages,
            virtual_chunks: 1,
            slices,
            micro_batches,
            warmup_cap: None,
        }
    }

    /// Sets the virtual-chunk count `v`.
    pub fn virtual_chunks(mut self, v: usize) -> Self {
        self.virtual_chunks = v;
        self
    }

    /// Caps the warmup budget `f` (the Section 4.2 memory knob).
    pub fn warmup_cap(mut self, f: usize) -> Self {
        self.warmup_cap = Some(f);
        self
    }

    /// The config for unified-API [`Dims`].
    pub fn from_dims(dims: &Dims) -> Self {
        SvppConfig::new(dims.p, dims.s, dims.n).virtual_chunks(dims.v)
    }

    /// The feasibility floor for the warmup budget: the first backward
    /// needs the whole first micro-batch in flight (Section 4.2).
    pub fn min_warmup(&self) -> usize {
        self.virtual_chunks * self.slices
    }

    /// The lowest-bubble (maximum-memory) warmup budget — the peak
    /// in-flight unit count of Table 3:
    /// `v·max(p,s) + min(p,s) − 1`.
    pub fn max_warmup(&self) -> usize {
        let p = self.stages;
        let s = self.slices;
        self.virtual_chunks * p.max(s) + p.min(s) - 1
    }

    /// The effective warmup budget after clamping.
    pub fn effective_warmup(&self) -> usize {
        self.warmup_cap
            .unwrap_or(self.max_warmup())
            .clamp(self.min_warmup(), self.max_warmup())
    }

    fn meta(&self, split_backward: bool) -> ScheduleMeta {
        ScheduleMeta {
            name: if split_backward {
                "MEPipe".into()
            } else {
                "SVPP".into()
            },
            stages: self.stages,
            virtual_chunks: self.virtual_chunks,
            slices: self.slices,
            micro_batches: self.micro_batches,
            split_backward,
            placement: ChunkPlacement::Interleaved,
        }
    }

    /// Validates the configuration.
    pub fn check(&self) -> Result<(), String> {
        self.meta(false).check_shape()?;
        if let Some(f) = self.warmup_cap {
            if f < self.min_warmup() {
                return Err(format!(
                    "warmup cap {f} below the v*s = {} floor",
                    self.min_warmup()
                ));
            }
        }
        Ok(())
    }
}

/// Fused-backward SVPP generation (the Section 4 analysis setting).
pub(crate) fn fused(cfg: &SvppConfig) -> Result<Schedule, String> {
    cfg.check()?;
    let meta = cfg.meta(false);
    greedy_generate(&meta, &default_caps(&meta, cfg.effective_warmup()))
}

/// Split-backward SVPP generation — the full MEPipe schedule, whose
/// weight-gradient GEMMs the simulator/runtime drains into bubbles
/// (Section 5).
pub(crate) fn split(cfg: &SvppConfig) -> Result<Schedule, String> {
    cfg.check()?;
    let meta = cfg.meta(true);
    greedy_generate(&meta, &default_caps(&meta, cfg.effective_warmup()))
}

/// SVPP with fused backward passes as a [`ScheduleGenerator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Svpp {
    /// Warmup budget `f`; `None` selects the lowest-bubble `f_max`.
    pub warmup: Option<usize>,
}

impl Svpp {
    /// Generator with the lowest-bubble warmup budget.
    pub fn new() -> Self {
        Svpp { warmup: None }
    }

    /// Caps the warmup budget `f` (the Section 4.2 memory knob).
    pub fn warmup_cap(mut self, f: usize) -> Self {
        self.warmup = Some(f);
        self
    }
}

impl ScheduleGenerator for Svpp {
    fn name(&self) -> &'static str {
        "SVPP"
    }

    fn generate(&self, dims: &Dims) -> Result<Schedule, ScheduleError> {
        let mut cfg = SvppConfig::from_dims(dims);
        cfg.warmup_cap = self.warmup;
        Ok(fused(&cfg)?)
    }
}

/// The full MEPipe schedule (SVPP with split backward passes) as a
/// [`ScheduleGenerator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mepipe {
    /// Warmup budget `f`; `None` selects the lowest-bubble `f_max`.
    pub warmup: Option<usize>,
}

impl Mepipe {
    /// Generator with the lowest-bubble warmup budget.
    pub fn new() -> Self {
        Mepipe { warmup: None }
    }

    /// Caps the warmup budget `f` (the Section 4.2 memory knob).
    pub fn warmup_cap(mut self, f: usize) -> Self {
        self.warmup = Some(f);
        self
    }
}

impl ScheduleGenerator for Mepipe {
    fn name(&self) -> &'static str {
        "MEPipe"
    }

    fn generate(&self, dims: &Dims) -> Result<Schedule, ScheduleError> {
        let mut cfg = SvppConfig::from_dims(dims);
        cfg.warmup_cap = self.warmup;
        Ok(split(&cfg)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_schedule::exec::{simulate, SimConfig, UnitCost};
    use mepipe_schedule::generator::{Dapple, Dims, TeraPipe};
    use mepipe_schedule::validate::{peak_in_flight, validate};

    fn cfg(p: usize, v: usize, s: usize, n: usize) -> SvppConfig {
        SvppConfig {
            stages: p,
            virtual_chunks: v,
            slices: s,
            micro_batches: n,
            warmup_cap: None,
        }
    }

    #[test]
    fn figure4a_peak_is_five_eighths_of_a() {
        // p=4, s=2, v=1: each unit is A/8 and the peak is 5 units.
        let s = fused(&cfg(4, 1, 2, 4)).unwrap();
        validate(&s).unwrap();
        assert_eq!(peak_in_flight(&s)[0], 5);
    }

    #[test]
    fn warmup_bounds_match_paper() {
        let c = cfg(4, 2, 2, 4);
        assert_eq!(c.min_warmup(), 4);
        assert_eq!(c.max_warmup(), 9); // (v-1)p + s + p - 1 for s < p.
        let c2 = cfg(4, 2, 8, 4); // s > p.
        assert_eq!(c2.max_warmup(), 2 * 8 + 4 - 1); // v*s + p - 1.
    }

    #[test]
    fn all_variants_are_valid() {
        let base = cfg(4, 2, 2, 4);
        for f in base.min_warmup()..=base.max_warmup() {
            let c = SvppConfig {
                warmup_cap: Some(f),
                ..base
            };
            let s = fused(&c).unwrap();
            validate(&s).unwrap_or_else(|_| panic!("f={f}"));
            let peak = peak_in_flight(&s)[0];
            assert!(peak <= f, "f={f}: peak {peak}");
        }
    }

    #[test]
    fn memory_bubble_tradeoff_is_monotone() {
        // Section 4.2: delaying forwards (smaller f) trades bubbles for
        // memory.
        let base = cfg(4, 2, 2, 8);
        let mut last_bubble = -1.0f64;
        for f in [base.max_warmup(), 6, base.min_warmup()] {
            let c = SvppConfig {
                warmup_cap: Some(f),
                ..base
            };
            let s = fused(&c).unwrap();
            let t = simulate(&s, &UnitCost::ones(), &SimConfig::default()).unwrap();
            assert!(
                t.bubble_ratio() >= last_bubble - 1e-9,
                "f={f}: bubble {} < previous {last_bubble}",
                t.bubble_ratio()
            );
            last_bubble = t.bubble_ratio();
        }
    }

    #[test]
    fn svpp_beats_dapple_bubbles_at_equal_work() {
        // p=4, n=8 micro-batches; SVPP with s=4 slices, same total work.
        let sv = fused(&cfg(4, 1, 4, 8)).unwrap();
        let da = Dapple.generate(&Dims::new(4, 8)).unwrap();
        let ts = simulate(&sv, &UnitCost::one_two(), &SimConfig::default()).unwrap();
        let td = simulate(
            &da,
            &UnitCost {
                fwd: 4.0,
                bwd: 8.0,
                wgrad: 0.0,
                ..UnitCost::ones()
            },
            &SimConfig::default(),
        )
        .unwrap();
        assert!(
            ts.bubble_ratio() < td.bubble_ratio(),
            "svpp {} vs dapple {}",
            ts.bubble_ratio(),
            td.bubble_ratio()
        );
        assert!(ts.makespan < td.makespan);
    }

    #[test]
    fn svpp_peak_memory_beats_dapple_and_terapipe() {
        // The Figure 1 story, in units of A: DAPPLE holds p·(A/p) = A,
        // TeraPipe n·s·(A/(ps)), SVPP ~(s+p-1)·(A/(ps)).
        let (p, n, s) = (4usize, 8usize, 4usize);
        let sv = fused(&cfg(p, 1, s, n)).unwrap();
        let da = Dapple.generate(&Dims::new(p, n)).unwrap();
        let tp = TeraPipe.generate(&Dims::new(p, n).slices(s)).unwrap();
        // Normalise to fractions of A.
        let frac_sv = peak_in_flight(&sv)[0] as f64 / (p * s) as f64;
        let frac_da = peak_in_flight(&da)[0] as f64 / p as f64;
        let frac_tp = peak_in_flight(&tp)[0] as f64 / (p * s) as f64;
        assert!(frac_sv < frac_da);
        assert!(frac_sv < frac_tp);
        assert!(frac_sv <= (s + p) as f64 / (p * s) as f64);
    }

    #[test]
    fn split_variant_carries_weight_ops() {
        let s = split(&cfg(4, 1, 2, 4)).unwrap();
        validate(&s).unwrap();
        assert_eq!(s.workers[0].len(), 3 * 2 * 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(fused(&cfg(0, 1, 2, 4)).is_err());
        let bad = SvppConfig {
            warmup_cap: Some(1),
            ..cfg(4, 2, 2, 4)
        };
        assert!(fused(&bad).is_err());
    }

    #[test]
    fn svpp_with_s1_v1_is_dapple_shaped() {
        let s = fused(&cfg(4, 1, 1, 8)).unwrap();
        let da = Dapple.generate(&Dims::new(4, 8)).unwrap();
        assert_eq!(peak_in_flight(&s), peak_in_flight(&da));
        let ts = simulate(&s, &UnitCost::ones(), &SimConfig::default()).unwrap();
        let td = simulate(&da, &UnitCost::ones(), &SimConfig::default()).unwrap();
        assert_eq!(ts.makespan, td.makespan);
    }
}
