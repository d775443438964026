//! One module per workload. Each runs one iteration in the current
//! (fresh) process and returns its measurements as a JSON object the
//! parent process aggregates.

pub mod fleet;
pub mod repro;
pub mod serve;

use nvp_serve::json::Json;
use std::time::Instant;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one iteration measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Workload set-up time, excluding process start.
    pub setup_s: f64,
    /// Workload wall time after set-up.
    pub wall_s: f64,
    /// Operations attempted (requests, or whole runs).
    pub attempted: u64,
    /// Operations that failed or produced output differing from golden.
    pub failed: u64,
    /// Human-readable gate failures.
    pub errors: Vec<String>,
    /// Digest of the iteration's whole output (for cross-run agreement).
    pub digest: String,
    /// Workload-specific samples (e.g. per-request latencies, ms).
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Workload-specific scalars (e.g. per-phase request rates).
    pub scalars: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced iterations only).
    pub layers: Vec<(String, f64)>,
}

impl Iteration {
    /// Records a gate failure.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.push((name.into(), value));
    }

    /// The JSON line a child process prints.
    pub fn to_json(&self) -> Json {
        let num = Json::Num;
        let mut fields = vec![
            ("setup_s", num(self.setup_s)),
            ("wall_s", num(self.wall_s)),
            ("peak_rss_mb", num(peak_rss_mb())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::str(e.as_str())).collect()),
            ),
            ("digest", Json::str(self.digest.as_str())),
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.to_string(),
                                Json::Arr(v.iter().map(|&x| num(x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
        ];
        fields.extend(self.scalars.iter().map(|&(k, v)| (k, num(v))));
        Json::obj(fields)
    }
}
