//! What one workload run produced, and how it is printed: human-readable
//! lines first, then `metric <name> <value> <unit>` lines (read back by the
//! repeat mode), then one JSON object as the last line of standard output.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Attempted and failed operations of one kind.
#[derive(Clone, Debug)]
pub struct OpCount {
    pub kind: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    /// Every checked answer matched the independent model.
    pub correct: bool,
    /// First few wrong answers, for the error report.
    pub wrong: Vec<String>,
    pub ops: Vec<OpCount>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            correct: true,
            ..Default::default()
        }
    }

    /// Records a wrong answer (keeps the first few messages).
    pub fn wrong(&mut self, msg: String) {
        self.correct = false;
        if self.wrong.len() < 8 {
            self.wrong.push(msg);
        }
    }

    /// Adds to the attempted/failed tally of `kind`.
    pub fn tally(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        match self.ops.iter_mut().find(|o| o.kind == kind) {
            Some(o) => {
                o.attempted += attempted;
                o.failed += failed;
            }
            None => self.ops.push(OpCount {
                kind,
                attempted,
                failed,
            }),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ops.iter().map(|o| o.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().map(|o| o.failed).sum()
    }

    /// Prints the per-kind tallies and the metric lines.
    pub fn print_lines(&self) {
        for o in &self.ops {
            println!(
                "ops {}: {} attempted, {} failed",
                o.kind, o.attempted, o.failed
            );
        }
        for w in &self.wrong {
            println!("WRONG: {w}");
        }
        for m in &self.metrics {
            println!("metric {} {} {}", m.name, m.value, m.unit);
        }
    }

    /// The result object (the last line of standard output).
    pub fn json(&self) -> String {
        json_line(self.correct, self.attempted(), self.failed(), &self.metrics)
    }
}

/// Formats the result object; `f64`'s `Display` keeps every digit needed
/// to read the value back exactly.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            s,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_four_keys_and_full_precision() {
        let mut o = Outcome::new("w");
        o.tally("read", 128, 0);
        o.tally("append", 2, 1);
        for (name, value, unit) in [("latency_ms", 1.2034567891, "ms"), ("ops", 10.0, "1/s")] {
            o.metrics.push(Metric {
                name: name.into(),
                value,
                unit,
            });
        }
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 130, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}, \
             \"ops\": {\"value\": 10, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn wrong_answers_clear_correct() {
        let mut o = Outcome::new("w");
        assert!(o.correct);
        o.wrong("count mismatch".into());
        assert!(!o.correct);
    }
}
