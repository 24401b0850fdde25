//! Metric records, the declared metric sets and the result line.

use crate::stats::{self, valid_metric_name};
use std::fmt::Write as _;

/// One measured value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// Everything one run measured, plus its pass/fail accounting.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations the workload asked for: batches (train) or requests
    /// (serve).
    pub attempted: u64,
    /// Of those, the ones not delivered, refused or delivered wrong.
    pub failed: u64,
    /// Correctness-gate failures, one line each.
    pub mismatches: Vec<String>,
    /// Stall artifacts written during the run.
    pub artifacts: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: u64) {
        let name = name.into();
        assert!(valid_metric_name(&name), "bad metric name {name:?}");
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Median and tail of `samples` (in the metric's unit). The tail is
    /// reported only when the tail rule allows `q` for this many samples;
    /// otherwise it is flagged rather than silently emitted.
    pub fn put_dist(&mut self, prefix: &str, unit: &'static str, samples: &[f64], q: f64) {
        let n = samples.len() as u64;
        self.put(format!("{prefix}_p50"), unit, stats::median(samples), n);
        let tail = format!("{prefix}_p{}", (q * 100.0).round() as u32);
        if !stats::tail_allowed(q, samples.len()) {
            self.note(format!(
                "{tail}: {n} samples leave fewer than 10 beyond p{}",
                (q * 100.0).round()
            ));
        }
        self.put(tail, unit, stats::percentile(samples, q), n);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }

    /// A remark printed with the metrics (not a failure).
    pub fn note(&mut self, what: impl Into<String>) {
        println!("note: {}", what.into());
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Every metric, one per line, with unit and sample count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {:<44} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The result line: the declared metrics of `set`, in declaration
    /// order. A declared metric the run did not produce is a harness bug.
    pub fn result_line(&self, set: &[Declared]) -> String {
        let mut metrics = String::new();
        for (i, d) in set.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == d.name)
                .unwrap_or_else(|| panic!("declared metric {} was not measured", d.name));
            assert_eq!(m.unit, d.unit, "unit of {}", d.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Declared {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn d(name: &'static str, unit: &'static str) -> Declared {
    Declared { name, unit }
}

/// Printed by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Declared] = &[
    d("img_per_s", "img/s"),
    d("cpu_ms_per_img", "ms"),
    d("wait_ms_p50", "ms"),
    d("peak_rss_mib", "MiB"),
    d("setup_s", "s"),
];

/// Printed by every traced run (`--trace 1`), on every workload.
pub const PER_LAYER: &[Declared] = &[
    d("codec.decode_img_per_s_1t", "img/s"),
    d("codec.huffman_us_per_img", "us"),
    d("codec.idct_us_per_img", "us"),
    d("codec.color_us_per_img", "us"),
    d("codec.resize_us_per_img", "us"),
    d("storage.read_us_per_img", "us"),
    d("net.deliver_us_per_req", "us"),
    d("membridge.restore_us_per_batch", "us"),
    d("consumer.recycle_us_p50", "us"),
    d("backend.busy_cores", "cores"),
    d("trace.attr.queue.deliver_ms_per_batch", "ms"),
    d("trace.window_ms_per_batch", "ms"),
    d("trace.unattributed_frac", "frac"),
    d("trace.dropped", "count"),
    d("trace.overhead_frac", "frac"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {}",
                m.unit
            );
        }
    }

    /// The declared sets here and in `BENCHMARK.json` must agree, name for
    /// name and unit for unit.
    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let per_layer_at = text.find("\"per_layer\"").expect("per_layer section");
        for (set, after) in [(END_TO_END, false), (PER_LAYER, true)] {
            for m in set {
                let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                let at = text
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{entry} missing"));
                assert_eq!(at > per_layer_at, after, "{} in the wrong section", m.name);
            }
        }
        assert_eq!(
            text.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics the harness does not"
        );
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut r = Report::default();
        r.put("a", "ms", 1.25, 3);
        r.put("b", "s", 0.1 + 0.2, 1);
        r.put("extra", "count", 7.0, 1);
        r.attempted = 4;
        let line = r.result_line(&[d("b", "s"), d("a", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"a\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.mismatch("pixel 3 differs");
        assert!(r.result_line(&[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn dist_reports_tail_with_sample_count() {
        let mut r = Report::default();
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        r.put_dist("wait_ms", "ms", &v, 0.95);
        assert_eq!(r.get("wait_ms_p50"), Some(150.5));
        assert_eq!(r.get("wait_ms_p95"), Some(285.0));
        assert!(r.metrics.iter().all(|m| m.samples == 300));
    }
}
