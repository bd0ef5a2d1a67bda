//! Job specifications: what a user submits to the control plane.
//!
//! A spec is a flat document in JSON or a small TOML subset (`key =
//! value` lines — exactly what a human writes for a training job).
//! Everything except `name` and `iters` has a default, and the
//! checkpoint interval may be omitted entirely: the daemon then derives
//! it from the job's MTBF hint and the *measured* checkpoint cost via
//! Young's formula ([`derive_checkpoint_interval`]), closing the loop
//! on the previously dormant `checkpoint::optimal_interval`.

use std::collections::BTreeMap;
use std::time::Instant;

use mepipe_comm::CodecId;
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::generator::Dims;
use mepipe_strategy::{Method, ScheduleSpec};
use mepipe_train::checkpoint;
use mepipe_train::params::ModelParams;

/// A parsed, validated training-job specification.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name, unique within the daemon.
    pub name: String,
    /// Target iteration count.
    pub iters: usize,
    /// Admission priority — higher admits first within the queue.
    pub priority: i64,
    /// Requested pipeline stages (= fleet slots for the gang).
    pub stages: usize,
    /// Micro-batches per iteration.
    pub micro_batches: usize,
    /// Sequence slices per micro-batch.
    pub slices: usize,
    /// Scheduling method, from the `schedule` key: a lower-case method
    /// name, `mepipe` by default.
    pub method: Method,
    /// The schedule's memory knob (`None` = the generator's default).
    pub warmup: Option<usize>,
    /// Polish the schedule with backward rescheduling.
    pub reschedule: bool,
    /// Wire codec on every link of the gang and in the verify replay.
    pub codec: CodecId,
    /// Sequence length.
    pub seq_len: usize,
    /// Decoder layers (must divide evenly over the schedule's model
    /// blocks).
    pub layers: usize,
    /// Model-init and batch-derivation seed.
    pub seed: u64,
    /// SGD learning rate.
    pub lr: f64,
    /// Checkpoint every this many iterations; `None` = derive via
    /// Young's formula from `mtbf_seconds` and measured costs.
    pub checkpoint_interval: Option<usize>,
    /// Mean time between failures the operator expects, seconds.
    pub mtbf_seconds: f64,
    /// Replay the whole job in-process at completion and require the
    /// final loss to match the gang's bit for bit.
    pub verify: bool,
    /// Chaos: kill this stage's process (with `kill_at_iter`).
    pub kill_stage: Option<usize>,
    /// Chaos: at the start of this iteration.
    pub kill_at_iter: Option<usize>,
}

/// One scalar value from either input syntax.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
}

/// Parses the TOML subset: `key = value` lines, `#` comments, blank
/// lines; values are quoted strings, booleans, or numbers.
fn parse_toml_subset(text: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let mut map = BTreeMap::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`: {raw}", ln + 1))?;
        let key = key.trim().to_string();
        let mut value = value.trim();
        // A trailing comment — only valid outside a quoted string.
        if !value.starts_with('"') {
            if let Some(hash) = value.find('#') {
                value = value[..hash].trim_end();
            }
        }
        let scalar = if let Some(q) = value.strip_prefix('"') {
            let inner = q
                .strip_suffix('"')
                .ok_or_else(|| format!("line {}: unterminated string: {raw}", ln + 1))?;
            Scalar::Str(inner.to_string())
        } else if value == "true" {
            Scalar::Bool(true)
        } else if value == "false" {
            Scalar::Bool(false)
        } else {
            Scalar::Num(
                value
                    .parse::<f64>()
                    .map_err(|_| format!("line {}: bad value: {raw}", ln + 1))?,
            )
        };
        map.insert(key, scalar);
    }
    Ok(map)
}

/// Parses a flat JSON object into the same scalar map.
fn parse_json(text: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let v: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("job spec is not valid JSON: {e}"))?;
    let obj = v.as_object().ok_or("job spec JSON must be a flat object")?;
    let mut map = BTreeMap::new();
    for (k, val) in obj {
        let scalar = if let Some(s) = val.as_str() {
            Scalar::Str(s.to_string())
        } else if let Some(b) = val.as_bool() {
            Scalar::Bool(b)
        } else if let Some(n) = val.as_f64() {
            Scalar::Num(n)
        } else {
            return Err(format!("field {k:?} must be a string, number or bool"));
        };
        map.insert(k.clone(), scalar);
    }
    Ok(map)
}

impl JobSpec {
    /// Parses a job document. Leading `{` selects JSON, anything else
    /// the TOML subset.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or out-of-range field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let map = if text.trim_start().starts_with('{') {
            parse_json(text)?
        } else {
            parse_toml_subset(text)?
        };
        let known = [
            "name",
            "iters",
            "priority",
            "stages",
            "micro_batches",
            "slices",
            "schedule",
            "warmup",
            "reschedule",
            "codec",
            "seq_len",
            "layers",
            "seed",
            "lr",
            "checkpoint_interval",
            "mtbf_seconds",
            "verify",
            "kill_stage",
            "kill_at_iter",
        ];
        for key in map.keys() {
            if !known.contains(&key.as_str()) {
                return Err(format!("unknown job spec field {key:?}"));
            }
        }
        let str_field = |k: &str| match map.get(k) {
            Some(Scalar::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(format!("field {k:?} must be a string")),
            None => Ok(None),
        };
        let num_field = |k: &str| match map.get(k) {
            Some(Scalar::Num(n)) => Ok(Some(*n)),
            Some(_) => Err(format!("field {k:?} must be a number")),
            None => Ok(None),
        };
        let usize_field = |k: &str| -> Result<Option<usize>, String> {
            match num_field(k)? {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(Some(n as usize)),
                Some(_) => Err(format!("field {k:?} must be a non-negative integer")),
                None => Ok(None),
            }
        };
        let bool_field = |k: &str| match map.get(k) {
            Some(Scalar::Bool(b)) => Ok(Some(*b)),
            Some(_) => Err(format!("field {k:?} must be a boolean")),
            None => Ok(None),
        };

        let stages = usize_field("stages")?.unwrap_or(2);
        let method = match str_field("schedule")? {
            Some(name) => Method::from_name(&name).ok_or_else(|| {
                let names: Vec<String> = Method::all()
                    .iter()
                    .map(|m| m.name().to_lowercase())
                    .collect();
                format!("`schedule` {name:?} is not one of {}", names.join(", "))
            })?,
            None => Method::Mepipe,
        };
        let codec = match str_field("codec")? {
            Some(name) => CodecId::parse(&name)
                .ok_or_else(|| format!("`codec` {name:?} is not f32, bf16 or lossy"))?,
            None => CodecId::F32,
        };
        let spec = JobSpec {
            name: str_field("name")?.ok_or("job spec needs a `name`")?,
            iters: usize_field("iters")?.ok_or("job spec needs `iters`")?,
            priority: num_field("priority")?.unwrap_or(0.0) as i64,
            stages,
            micro_batches: usize_field("micro_batches")?.unwrap_or(stages.max(2)),
            slices: usize_field("slices")?.unwrap_or(2),
            method,
            warmup: usize_field("warmup")?,
            reschedule: bool_field("reschedule")?.unwrap_or(false),
            codec,
            seq_len: usize_field("seq_len")?.unwrap_or(16),
            layers: usize_field("layers")?.unwrap_or(stages.max(2)),
            seed: usize_field("seed")?.unwrap_or(7) as u64,
            lr: num_field("lr")?.unwrap_or(0.1),
            checkpoint_interval: usize_field("checkpoint_interval")?,
            mtbf_seconds: num_field("mtbf_seconds")?.unwrap_or(600.0),
            verify: bool_field("verify")?.unwrap_or(false),
            kill_stage: usize_field("kill_stage")?,
            kill_at_iter: usize_field("kill_at_iter")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || !self.name.chars().all(|c| c.is_alphanumeric() || c == '-') {
            return Err(format!(
                "job name {:?} must be non-empty alphanumeric-or-dash",
                self.name
            ));
        }
        if self.iters == 0 {
            return Err("`iters` must be positive".into());
        }
        if self.stages == 0 {
            return Err("`stages` must be positive".into());
        }
        if self.micro_batches < self.stages {
            return Err(format!(
                "`micro_batches` ({}) must be >= `stages` ({})",
                self.micro_batches, self.stages
            ));
        }
        if self.seq_len == 0 {
            return Err("`seq_len` must be positive".into());
        }
        if self.slices == 0 || !self.seq_len.is_multiple_of(self.slices) {
            return Err(format!(
                "`slices` ({}) must divide `seq_len` ({})",
                self.slices, self.seq_len
            ));
        }
        if self.checkpoint_interval == Some(0) {
            return Err("`checkpoint_interval` must be positive when given".into());
        }
        // NaN must fail too, hence the negated comparison shape.
        if self.mtbf_seconds <= 0.0 || self.mtbf_seconds.is_nan() {
            return Err("`mtbf_seconds` must be positive".into());
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(format!("`lr` ({}) must be finite and positive", self.lr));
        }
        if self.kill_stage.is_some() != self.kill_at_iter.is_some() {
            return Err("`kill_stage` and `kill_at_iter` must be given together".into());
        }
        if let Some(s) = self.kill_stage {
            if s >= self.stages {
                return Err(format!("`kill_stage` ({s}) out of range"));
            }
        }
        if self.reschedule && self.method == Method::DualPipe {
            return Err("`reschedule` is not defined for `schedule = \"dualpipe\"`".into());
        }
        let blocks = self
            .schedule()
            .generate()
            .map_err(|e| {
                let name = self.method.name().to_lowercase();
                format!("`schedule` {name:?} does not generate at this shape: {e}")
            })?
            .meta
            .model_blocks();
        if self.layers < 2 || !self.layers.is_multiple_of(blocks) {
            return Err(format!(
                "`layers` ({}) must be >= 2 and divisible by the schedule's {blocks} model blocks",
                self.layers
            ));
        }
        Ok(())
    }

    /// The model config the gang and the verifier instantiate.
    pub fn config(&self) -> TransformerConfig {
        TransformerConfig {
            seq_len: self.seq_len,
            ..TransformerConfig::tiny(self.layers)
        }
    }

    /// The schedule the job asks for: its method at the requested
    /// stages, micro-batches and slices, with its knob and rescheduling.
    pub fn schedule(&self) -> ScheduleSpec {
        ScheduleSpec {
            warmup: self.warmup,
            reschedule: self.reschedule,
            ..ScheduleSpec::new(
                self.method,
                Dims::new(self.stages, self.micro_batches).slices(self.slices),
            )
        }
    }
}

/// How a derived checkpoint interval came about, for the daemon's log.
#[derive(Debug, Clone)]
pub struct DerivedInterval {
    /// The chosen interval, iterations.
    pub iters: usize,
    /// Measured cost of one checkpoint save, seconds.
    pub checkpoint_cost_s: f64,
    /// Measured cost of one training iteration, seconds.
    pub iteration_s: f64,
    /// Young's optimal interval in seconds before discretisation.
    pub optimal_s: f64,
}

impl DerivedInterval {
    /// One log line explaining the choice.
    pub fn describe(&self, spec: &JobSpec) -> String {
        format!(
            "job {}: derived checkpoint_interval={} (Young: sqrt(2*{:.3e}s*{:.0}s MTBF)={:.2}s, ~{:.3e}s/iter)",
            spec.name, self.iters, self.checkpoint_cost_s, spec.mtbf_seconds, self.optimal_s,
            self.iteration_s
        )
    }
}

/// Derives the checkpoint interval for a spec that omitted it: measure
/// the cost of serialising the job's model, estimate an iteration's
/// duration with `measure_iteration`, and discretise Young's optimal
/// interval `sqrt(2 · cost · MTBF)` into iterations, clamped to
/// `[1, iters]`.
///
/// `measure_iteration` is injected so the daemon can measure a real
/// in-process iteration while tests supply a constant.
pub fn derive_checkpoint_interval(
    spec: &JobSpec,
    measure_iteration: impl FnOnce(&JobSpec) -> f64,
) -> DerivedInterval {
    let model = ModelParams::init(spec.config(), spec.seed);
    let t0 = Instant::now();
    let bytes = checkpoint::save(&model);
    // Include one in-memory serialisation plus the bytes hitting disk
    // on a tmpfs-ish medium; floor at 1µs so Young's formula stays
    // finite on a fast machine with a tiny model.
    let checkpoint_cost_s = (t0.elapsed().as_secs_f64() + bytes.len() as f64 * 1e-10).max(1e-6);
    let iteration_s = measure_iteration(spec).max(1e-6);
    let optimal_s = checkpoint::optimal_interval(spec.mtbf_seconds, checkpoint_cost_s);
    let iters = ((optimal_s / iteration_s).round() as usize).clamp(1, spec.iters.max(1));
    DerivedInterval {
        iters,
        checkpoint_cost_s,
        iteration_s,
        optimal_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_and_json_specs_parse_identically() {
        let toml = r#"
# a training job
name = "job-a"
iters = 8
stages = 2
micro_batches = 2
slices = 2
seq_len = 16
layers = 2
seed = 5
lr = 0.1
checkpoint_interval = 2  # trailing comment
verify = true
"#;
        let json = r#"{"name":"job-a","iters":8,"stages":2,"micro_batches":2,
            "slices":2,"seq_len":16,"layers":2,"seed":5,"lr":0.1,
            "checkpoint_interval":2,"verify":true}"#;
        let a = JobSpec::parse(toml).unwrap();
        let b = JobSpec::parse(json).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.name, "job-a");
        assert_eq!(a.checkpoint_interval, Some(2));
        assert!(a.verify);
        assert_eq!(a.priority, 0);
        assert_eq!(a.mtbf_seconds, 600.0);
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let spec = JobSpec::parse("name = \"j\"\niters = 4\n").unwrap();
        assert_eq!(spec.stages, 2);
        assert_eq!(spec.micro_batches, 2);
        assert_eq!(spec.layers, 2);
        assert_eq!(spec.checkpoint_interval, None);
        assert_eq!(spec.kill_stage, None);
    }

    #[test]
    fn schedule_and_codec_keys_parse_identically_in_toml_and_json() {
        let toml = "name = \"s\"\niters = 3\nstages = 4\nlayers = 4\nmicro_batches = 4\n\
                    slices = 2\nseq_len = 32\nschedule = \"synth\"\nwarmup = 6\n\
                    reschedule = true\ncodec = \"bf16\"\n";
        let json = r#"{"name":"s","iters":3,"stages":4,"layers":4,"micro_batches":4,
            "slices":2,"seq_len":32,"schedule":"synth","warmup":6,"reschedule":true,
            "codec":"bf16"}"#;
        let a = JobSpec::parse(toml).unwrap();
        assert_eq!(a, JobSpec::parse(json).unwrap());
        assert_eq!(a.method, Method::Synth);
        assert_eq!(a.codec, CodecId::Bf16);
        let schedule = a.schedule();
        assert_eq!(schedule.method, Method::Synth);
        assert_eq!(schedule.warmup, Some(6));
        assert!(schedule.reschedule);
        assert_eq!(
            (schedule.dims.p, schedule.dims.n, schedule.dims.s),
            (4, 4, 2)
        );
    }

    #[test]
    fn omitted_schedule_keys_request_default_mepipe_over_f32() {
        let spec = JobSpec::parse(
            "name = \"j\"\niters = 4\nstages = 4\nlayers = 4\nmicro_batches = 8\nslices = 4\n",
        )
        .unwrap();
        assert_eq!(
            spec.schedule(),
            ScheduleSpec::new(Method::Mepipe, Dims::new(4, 8).slices(4))
        );
        assert_eq!(spec.codec, CodecId::F32);
    }

    #[test]
    fn invalid_specs_are_rejected_with_context() {
        for (doc, needle) in [
            ("iters = 4", "name"),
            ("name = \"j\"", "iters"),
            ("name = \"j\"\niters = 0", "iters"),
            ("name = \"j!\"\niters = 4", "name"),
            (
                "name = \"j\"\niters = 4\nstages = 3\nlayers = 4",
                "divisible",
            ),
            (
                "name = \"j\"\niters = 4\nslices = 3\nseq_len = 16",
                "slices",
            ),
            ("name = \"j\"\niters = 4\nkill_stage = 0", "together"),
            ("name = \"j\"\niters = 4\nwarp = 9", "unknown"),
            (
                "name = \"j\"\niters = 4\nmicro_batches = 1\nstages = 2",
                "micro_batches",
            ),
            ("name = \"j\"\niters = 4\nlr = nan", "`lr`"),
            ("name = \"j\"\niters = 4\nlr = inf", "`lr`"),
            ("name = \"j\"\niters = 4\nlr = -1", "`lr`"),
            ("name = \"j\"\niters = 4\nlr = 0", "`lr`"),
            ("name = \"j\"\niters = 4\nseq_len = 0", "`seq_len`"),
            (
                "name = \"j\"\niters = 4\nschedule = \"gpipe\"",
                "`schedule`",
            ),
            ("name = \"j\"\niters = 4\ncodec = \"fp8\"", "`codec`"),
            (
                "name = \"j\"\niters = 4\nschedule = \"dualpipe\"\nreschedule = true",
                "`reschedule`",
            ),
            (
                "name = \"j\"\niters = 4\nschedule = \"dualpipe\"\nmicro_batches = 3\nstages = 2",
                "`schedule`",
            ),
            (
                "name = \"j\"\niters = 4\nschedule = \"zbv\"\nstages = 2\nslices = 1\nlayers = 2",
                "`layers`",
            ),
        ] {
            let err = JobSpec::parse(doc).unwrap_err();
            assert!(err.contains(needle), "{doc:?} -> {err}");
        }
    }

    #[test]
    fn tiny_mtbf_derives_an_aggressive_interval() {
        let spec = JobSpec::parse("name = \"j\"\niters = 8\nmtbf_seconds = 0.000001\n").unwrap();
        // With a vanishing MTBF, Young's interval collapses below one
        // iteration and the clamp floors it at checkpoint-every-iter.
        let derived = derive_checkpoint_interval(&spec, |_| 0.5);
        assert_eq!(derived.iters, 1, "{derived:?}");

        // A huge MTBF caps at the job length.
        let spec = JobSpec::parse("name = \"j\"\niters = 8\nmtbf_seconds = 1e12\n").unwrap();
        let derived = derive_checkpoint_interval(&spec, |_| 1e-6);
        assert_eq!(derived.iters, 8, "{derived:?}");
        assert!(derived.describe(&spec).contains("checkpoint_interval=8"));
    }
}
