//! The repository benchmark's measuring program.
//!
//! ```text
//! perfbench --mode e2e    --workload <name> --seed <n> --seconds <s> [--setup-reps <k>]
//! perfbench --mode layers --workload <name> --seed <n> --seconds <s>   (obsv build)
//! ```
//!
//! Prints one JSON object as its last line: `correct`, `attempted`,
//! `failed`, `metrics` (name -> value and unit) and `detail` (run facts
//! that are not metrics). `run.py` builds this program, runs it and adds
//! the host record; see README.md for the workloads and metrics.

mod check;
mod e2e;
mod layers;
mod loadgen;
mod stats;
mod workload;

use serde::Serialize;
use serde_json::Value;
use workload::Workload;

/// One run's result.
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    detail: Vec<(String, Value)>,
}

impl Report {
    /// A report over `attempted` operations of which `failed` failed.
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// Count more operations.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Whether a metric has been recorded.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    /// Sort metrics into the order of `names`.
    pub fn order_by(&mut self, names: &[(&str, &str)]) {
        let pos = |n: &str| {
            names
                .iter()
                .position(|(k, _)| *k == n)
                .unwrap_or(usize::MAX)
        };
        self.metrics.sort_by_key(|(n, _, _)| pos(n));
    }

    /// Record a fact about the run that is not a metric.
    pub fn note<T: Serialize>(&mut self, key: &str, value: T) {
        let value = serde::ser::to_value(&value).expect("detail value serializes");
        self.detail.push((key.to_string(), value));
    }

    fn to_json(&self) -> String {
        let num = |v: f64| Value::Number(serde::Number::Float(v));
        let int = |v: u64| Value::Number(serde::Number::PosInt(v));
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = vec![
                    ("value".to_string(), num(*value)),
                    ("unit".to_string(), Value::String(unit.clone())),
                ];
                (name.clone(), Value::Object(entry))
            })
            .collect();
        let all_finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let root = Value::Object(vec![
            (
                "correct".to_string(),
                Value::Bool(self.failed == 0 && self.attempted > 0 && all_finite),
            ),
            ("attempted".to_string(), int(self.attempted)),
            ("failed".to_string(), int(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
            ("detail".to_string(), Value::Object(self.detail.clone())),
        ]);
        serde_json::to_string(&root).expect("report serializes")
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --mode e2e|layers --workload metr_http|city_http|metr_train \
         --seed <n> --seconds <s> [--setup-reps <k>]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let mode = value("--mode").unwrap_or_else(|| usage());
    let workload = value("--workload")
        .and_then(|w| Workload::parse(&w))
        .unwrap_or_else(|| usage());
    let seed: u64 = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let setup_reps: usize = value("--setup-reps")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(3);

    let mut report = match mode.as_str() {
        "e2e" => e2e::run(workload, seed, seconds, setup_reps),
        "layers" => layers::run(workload, seed, seconds),
        _ => usage(),
    };
    report.note("workload", workload.name());
    report.note("config", workload.config());
    println!("{}", report.to_json());
}
