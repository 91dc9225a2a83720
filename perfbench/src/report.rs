//! The run's result: the metrics by name, the correctness verdict, and the record
//! printed before the final line (environment stamp and sample counts).

use std::fmt::Write;

use crate::oracle::Verdict;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 11] = [
    "setup_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "throughput_eps",
    "qerror_p50",
    "qerror_p99",
    "qerror_max",
    "train_tuples_per_s",
    "refresh_s",
    "model_bytes",
    "peak_rss_mb",
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 33] = [
    "protocol.encode_request_us",
    "protocol.decode_request_us",
    "protocol.encode_result_us",
    "registry.acquire_us",
    "registry.handle_us_p50",
    "registry.handle_us_p99",
    "reactor.rtt_overhead_us",
    "reactor.queue_depth_max",
    "reactor.overloaded",
    "reactor.served",
    "registry.swap_us",
    "registry.drain_ms",
    "journal.append_ms",
    "infer.estimate_us_p50",
    "infer.estimate_us_p99",
    "infer.constrained_subcolumns",
    "artifact.encode_ms",
    "artifact.decode_ms",
    "artifact.bytes",
    "train.stall_share",
    "nn.forward_us_rows1",
    "nn.forward_us_rowsN",
    "nn.train_step_ms",
    "sampler.join_counts_ms",
    "sampler.tuples_per_s",
    "pipeline.ingest_ms",
    "pipeline.detect_ms",
    "pipeline.retrain_s",
    "pipeline.shadow_ms",
    "pipeline.promote_ms",
    "datagen.build_ms",
    "loadgen.lag_p99_us",
    "trace.overhead_pct",
];

#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
    /// Sample counts and other context for the record line.
    pub notes: Vec<(String, f64)>,
    /// Reasons the measurement itself is unusable (too few samples, a refresh never
    /// seen answering reads).
    pub invalid: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    pub fn invalid(&mut self, why: String) {
        self.invalid.push(why);
    }

    /// Folds in the reply checks: a wrong estimate is a failed operation and makes the
    /// whole run incorrect.
    pub fn finish(&mut self, verdict: &Verdict) {
        self.failed += verdict.wrong;
        self.correct = verdict.wrong == 0 && verdict.estimates > 0;
        self.note("estimates_checked", verdict.estimates as f64);
        self.note("estimates_wrong", verdict.wrong as f64);
    }

    /// Problems that make the result unusable: an invalid measurement, or a missing,
    /// extra or non-finite metric.
    pub fn problems(&self, expected: &[&str]) -> Vec<String> {
        let mut out = self.invalid.clone();
        for name in expected {
            match self.metrics.iter().filter(|(n, _, _)| n == name).count() {
                1 => {}
                0 => out.push(format!("metric {name} missing")),
                _ => out.push(format!("metric {name} reported twice")),
            }
        }
        for (name, value, _) in &self.metrics {
            if !expected.contains(&name.as_str()) {
                out.push(format!("unexpected metric {name}"));
            }
            if !value.is_finite() {
                out.push(format!("metric {name} is {value}"));
            }
        }
        out
    }

    /// The final line: exactly `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, order: &[&str]) -> String {
        let mut metrics = String::new();
        for name in order {
            if let Some((_, value, unit)) = self.metrics.iter().find(|(n, _, _)| n == name) {
                if !metrics.is_empty() {
                    metrics.push_str(", ");
                }
                write!(
                    metrics,
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
                .expect("writing to a String");
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A finite number in JSON with all its digits (Rust's shortest round-trip form).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        s.strip_suffix(".0").map_or(s.clone(), str::to_string)
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names here and in `BENCHMARK.json` must agree, or runs would be compared on
    /// different metrics than the benchmark prints.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names_in = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
                .collect()
        };
        assert_eq!(names_in("end_to_end"), END_TO_END);
        assert_eq!(names_in("per_layer"), PER_LAYER);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.metric("setup_s", 1.25, "s");
        o.metric("model_bytes", 848194.0, "B");
        assert!(o.problems(&["setup_s", "model_bytes"]).is_empty());
        assert_eq!(
            o.problems(&["setup_s"]),
            vec!["unexpected metric model_bytes"]
        );
        assert_eq!(
            o.result_line(&["setup_s", "model_bytes"]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"model_bytes\": {\"value\": 848194, \"unit\": \"B\"}}}"
        );
        o.metric("bad", f64::INFINITY, "s");
        assert!(o.problems(&["setup_s", "model_bytes", "bad"]).len() == 1);
    }
}
