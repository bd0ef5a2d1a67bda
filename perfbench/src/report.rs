//! What one run found: operation counts, correctness-gate failures and
//! the metrics, printed as a readable table followed by the one-line
//! JSON result.

use crate::host::Host;

/// One measured figure.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` or the doc.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single reading).
    pub samples: usize,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: steps, jobs or queries.
    pub attempted: u64,
    /// Operations whose correctness gate failed.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// The workload's own end-to-end figures under their descriptive
    /// names (printed, not part of the JSON result).
    pub named: Vec<Metric>,
    /// End-to-end metrics of the JSON result (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of the JSON result (`--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Free-form lines: reconciliations, tail percentiles, shapes.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation; `failure` is `Some(reason)` when one of its
    /// correctness gates failed.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Adds a descriptive end-to-end figure.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.named.push(metric(name, value, unit, samples));
    }

    /// Adds an end-to-end metric of the JSON result.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(metric(name, value, unit, samples));
    }

    /// Adds a per-layer metric of the JSON result.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(metric(name, value, unit, samples));
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints the readable table, then the JSON result as the last line.
    pub fn print(&self, header: &str, host: &Host, traced: bool) {
        println!("{header}");
        println!("{}", host.line());
        let table = |title: &str, ms: &[Metric]| {
            if ms.is_empty() {
                return;
            }
            println!("{title}");
            for m in ms {
                println!(
                    "  {:<28} {:>16} {:<8} n={}",
                    m.name,
                    format!("{:.4}", m.value),
                    m.unit,
                    m.samples
                );
            }
        };
        table("end-to-end (workload names):", &self.named);
        if traced {
            table("per-layer:", &self.per_layer);
        } else {
            table("end-to-end (result):", &self.end_to_end);
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        println!(
            "operations: attempted {} failed {}",
            self.attempted, self.failed
        );
        let chosen = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = chosen
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (which JSON cannot hold) print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
