//! The result line: attempts, failures and named metrics with units.

use std::fmt::Write as _;

/// Failure messages printed before the rest are only counted.
const MAX_PRINTED_FAILURES: u64 = 20;

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Count one operation whose output checks gave `result`.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= MAX_PRINTED_FAILURES {
                eprintln!("check failed: {e}");
            }
        }
    }

    /// Count `n` operations that all failed for one reason.
    pub fn fail_many(&mut self, n: u64, why: &str) {
        self.attempted += n;
        self.failed += n;
        eprintln!("check failed ({n} operations): {why}");
    }

    /// Record metric `name`. A non-finite value is a failed check, not a
    /// number in the result.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.op(Err(format!("metric {name} is {value}")));
        }
    }

    /// Failed operations so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Whether every attempted operation passed its checks.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Human-readable metric table, one `name value unit` line each.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<40} {value:>16.6} {unit}");
        }
        let _ = writeln!(
            out,
            "{:<40} {:>16} of {} failed",
            "operations", self.failed, self.attempted
        );
        out
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_counts_and_full_precision_values() {
        let mut r = Report::default();
        r.op(Ok(()));
        r.op(Ok(()));
        r.metric("latency_ms", 1.2034567891, "ms");
        r.metric("setup_s", 2.0, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        r.metric("broken", f64::NAN, "ms");
        assert!(!r.correct());
        assert!(!r.to_json().contains("broken"));
    }
}
