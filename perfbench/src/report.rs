//! What one run found, and how it is printed.

use crate::layers::Layers;

/// An infinite latency percentile (more attempts failed than the percentile
/// allows) prints as this value, since JSON has no infinity.
const MISSED: f64 = 1e300;

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable result lines, printed before the JSON line.
    pub lines: Vec<String>,
    /// Correctness-gate failures; any entry fails the run.
    pub errors: Vec<String>,
    /// Operations (training iterations or jobs) attempted in the timed part.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// End-to-end metrics `(name, value, unit)` of an untraced run.
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics of a traced run.
    pub layers: Layers,
}

impl Outcome {
    /// Adds a human-readable `name = value unit` line.
    pub fn line(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        let note = if note.is_empty() {
            String::new()
        } else {
            format!("  ({note})")
        };
        self.lines.push(format!("{name} = {value} {unit}{note}"));
    }

    /// The work-identity check: counts that must repeat exactly across the
    /// reps (or bursts) of one seed. Differing counts are reported with
    /// their range, never averaged.
    pub fn work_identity(&mut self, runs: &[Vec<(&'static str, u64)>]) {
        let Some(first) = runs.first() else {
            return;
        };
        let mut same = Vec::new();
        let mut differ = Vec::new();
        for (index, (name, value)) in first.iter().enumerate() {
            let values = runs.iter().map(|run| run[index].1);
            let (low, high) = values.fold((*value, *value), |(lo, hi), v| (lo.min(v), hi.max(v)));
            if low == high {
                same.push(format!("{name}={value}"));
            } else {
                differ.push(format!("{name}={low}..{high}"));
            }
        }
        let verdict = if differ.is_empty() {
            "identical".to_string()
        } else {
            format!("DIFFERS in {}", differ.join(" "))
        };
        self.lines.push(format!(
            "work_identity = {verdict} across {} runs of this seed; identical: {}",
            runs.len(),
            same.join(" ")
        ));
    }

    /// Sets the end-to-end metrics every workload reports (README.md maps
    /// each to the workload's own name for it).
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        p50_ms: f64,
        p90_ms: f64,
        throughput_per_s: f64,
        peak_rss_mb: f64,
    ) {
        self.end_to_end = vec![
            ("setup_s", setup_s, "s"),
            ("latency_ms_p50", p50_ms, "ms"),
            ("latency_ms_p90", p90_ms, "ms"),
            ("throughput_per_s", throughput_per_s, "1/s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ];
    }

    /// Records a correctness-gate failure.
    pub fn fail(&mut self, message: String) {
        self.errors.push(message);
    }

    /// Prints the human-readable lines, then the result as the last stdout
    /// line. Returns an error when a correctness gate failed or no operation
    /// was attempted.
    pub fn print(&self, trace: bool) -> Result<(), String> {
        for line in &self.lines {
            println!("{line}");
        }
        for error in &self.errors {
            println!("GATE FAILED: {error}");
        }
        let metrics = if trace {
            self.layers.all()
        } else {
            self.end_to_end.clone()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_nan() {
                    return Err(format!("metric {name} is NaN"));
                } else if value.is_infinite() {
                    MISSED
                } else {
                    *value
                };
                // `{:?}` keeps every digit of the shortest round-trip form
                // and prints finite values as valid JSON numbers (`1e300`,
                // `2.0`).
                Ok(format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect::<Result<_, String>>()?;
        let correct = self.errors.is_empty() && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
        if correct {
            Ok(())
        } else if self.attempted == 0 {
            Err("no operation was attempted".to_string())
        } else {
            Err(format!("{} correctness gate(s) failed", self.errors.len()))
        }
    }
}
