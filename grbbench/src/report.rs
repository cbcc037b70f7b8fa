//! The result: a text table, then one JSON object as the last line.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything a run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Whether every check passed (outputs, probes, span file).
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Context lines printed before the result (environment, sample
    /// counts, bases of ratios, failures).
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The last line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a non-finite value is a bug
                // upstream and is reported as 0 with `correct` false.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let correct = self.correct && self.metrics.iter().all(|m| m.value.is_finite());
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Notes, then one `name = value unit` line per metric, then the JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!("{:<32} = {:>16.6e} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            correct: true,
            ..Default::default()
        };
        r.push("run_s_p50", "s", 0.25);
        r.push("setup_s", "s", 1.0);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s_p50\": {\"value\": 0.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}}}"
        );
        r.push("bad", "s", f64::NAN);
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
