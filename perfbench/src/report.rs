//! The one-line JSON result a workload process prints.

use crate::stats::fail_frac;
use somrm_obs::json;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Answer checks run (each solve, request or point is one).
    pub attempted: u64,
    /// Checks failed: error responses, missing responses and answers
    /// outside their bound all count.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Context printed with the result (fingerprint, sample counts,
    /// first failures); not a metric.
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Counts one checked operation; a failure keeps its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                let key = format!("failure.{}", self.failed);
                self.info.push((key, what()));
            }
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"correct\":");
        out.push_str(if self.failed == 0 && self.attempted > 0 {
            "true"
        } else {
            "false"
        });
        out.push_str(&format!(
            ",\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        ));
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            out.push_str(":{\"value\":");
            json::write_f64(&mut out, *value);
            out.push_str(",\"unit\":");
            json::write_string(&mut out, unit);
            out.push('}');
        }
        out.push_str("},\"info\":{\"fail_frac\":");
        json::write_f64(&mut out, fail_frac(self.failed, self.attempted));
        for (k, v) in &self.info {
            out.push(',');
            json::write_string(&mut out, k);
            out.push(':');
            json::write_string(&mut out, v);
        }
        out.push_str("}}");
        out
    }
}
