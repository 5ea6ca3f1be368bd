//! The result line: metrics by name and unit, plus output-check counts.

use std::collections::BTreeMap;

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("cpu_ms", "ms"),
    ("oracle_share", "ratio"),
];

/// Per-layer metrics every traced run prints, with their units. A metric
/// of a layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("net.self_us", "us"),
    ("server.sys_share", "ratio"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.bytes_per_req", "bytes"),
    ("engine.queue_us", "us"),
    ("engine.batch_rows", "rows"),
    ("engine.batch_requests", "count"),
    ("engine.rejected", "count"),
    ("scorer.us_per_row", "us"),
    ("registry.load_ms", "ms"),
    ("calibration.observe_us", "us"),
    ("calibration.swaps", "count"),
    ("registry.versions", "count"),
    ("obs.overhead_pct", "%"),
    ("client.late_ms", "ms"),
    ("datasets.read_ms", "ms"),
    ("nn.train_ms", "ms"),
    ("nn.mc_ms", "ms"),
    ("nn.predict_us_per_row", "us"),
    ("rdrp.calibrate_ms", "ms"),
    ("rdrp.form_select_ms", "ms"),
    ("artifact.save_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("allocator.greedy_ms", "ms"),
    ("karm.score_matrix_ms", "ms"),
    ("mckp.allocate_ms", "ms"),
    ("pass.cpu_per_wall", "ratio"),
    ("trace.unattributed_pct", "%"),
];

/// Metric values by name, filled in by a workload.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// One metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run measured and whether its outputs were right.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Units of work attempted (requests, lines or passes).
    pub attempted: u64,
    /// Units that failed or were answered wrongly.
    pub failed: u64,
    /// Measured values.
    pub values: Values,
}

impl Outcome {
    /// The result JSON: `traced` selects the per-layer set, otherwise the
    /// end-to-end set. Every metric of the set must be present, except
    /// that an unset per-layer metric reads 0.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for (name, unit) in set {
            let value = match self.values.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Collects output-check failures without stopping the run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure when `ok` is false.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            if self.failures.len() < 20 {
                println!("check failed: {msg}");
            }
            self.failures.push(msg);
        }
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_of_its_set() {
        let mut values = Values::default();
        for (name, _) in END_TO_END {
            values.set(name, 1.25);
        }
        values.set("nn.train_ms", 700.5);
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values,
        };
        let e2e = out.to_json(false).unwrap();
        let v = tinyjson::parse(&e2e).unwrap();
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("p50_ms")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str()
                .unwrap(),
            "ms"
        );
        let traced = tinyjson::parse(&out.to_json(true).unwrap()).unwrap();
        let layer = traced.get("metrics").unwrap();
        assert_eq!(layer.as_obj().unwrap().len(), PER_LAYER.len());
        assert_eq!(
            layer
                .get("nn.train_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap(),
            700.5
        );
        assert_eq!(
            layer
                .get("mckp.allocate_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn a_missing_end_to_end_metric_is_an_error() {
        let out = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            values: Values::default(),
        };
        assert!(out.to_json(false).is_err());
    }
}
