//! Metric records, the correctness tally and the result line.

use std::fmt::Write as _;

use crate::stats::quartiles;

/// Unit of host wall time.
pub const S: &str = "s";
/// Unit of times on the simulator's modeled clock: milliseconds of modeled
/// GPU time, deterministic for a given input, not a host measurement.
pub const MODEL_MS: &str = "model-ms";

/// One named number with its unit and, for repeated measurements, its
/// sample count and quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// The reported value (the median for repeated measurements).
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// First quartile and third quartile of the samples.
    pub spread: Option<(f64, f64)>,
}

impl Metric {
    /// A single value.
    pub fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: 1,
            spread: None,
        }
    }

    /// The median of repeated samples, with their quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let (q1, q2, q3) = quartiles(samples);
        Metric {
            name: name.into(),
            unit,
            value: q2,
            samples: samples.len(),
            spread: (samples.len() > 1).then_some((q1, q3)),
        }
    }

    /// The human-readable line printed before the result.
    pub fn line(&self) -> String {
        let mut s = format!(
            "metric {:<28} {:>16} {:<8} n={}",
            self.name,
            format!("{:.6}", self.value),
            self.unit,
            self.samples
        );
        if let Some((q1, q3)) = self.spread {
            let _ = write!(s, " q1={q1:.6} q3={q3:.6}");
        }
        s
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed verification.
    pub failed: u64,
    /// What failed, for stderr.
    pub notes: Vec<String>,
}

impl Gate {
    /// Tallies one operation; `ok == false` records `what()` as a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// A number as JSON: finite values with every digit Rust's shortest
/// round-trip formatting gives; non-finite values become 0 (never expected
/// from a passing run).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(gate: &Gate, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        gate.correct(),
        gate.attempted,
        gate.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut g = Gate::default();
        g.op(true, String::new);
        let m = [
            Metric::one("wall_s", S, 1.25),
            Metric::one("x", "count", 3.0),
        ];
        assert_eq!(
            result_json(&g, &m),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"x\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        g.op(false, || "bad".into());
        assert!(!g.correct());
        assert_eq!(g.notes, vec!["bad".to_string()]);
    }

    #[test]
    fn median_metric_keeps_quartiles() {
        let m = Metric::median_of("wall_s", S, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(m.value, 3.0);
        assert_eq!(m.samples, 5);
        assert_eq!(m.spread, Some((1.5, 4.5)));
    }
}
