//! What one run hands back: metrics, the correctness tally and, for a
//! traced run, its spans.

use crate::trace::Span;

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the record file.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` declares: end-to-end for an
    /// untraced run, per-layer for a traced one.
    pub metrics: Vec<Metric>,
    /// Workload-specific numbers and exact counters that are printed
    /// and recorded but are not part of the declared metric set.
    pub extras: Vec<Metric>,
    /// Fingerprint of the workload's last document, for comparing
    /// workloads that must end in the same document.
    pub final_fingerprint: Option<u64>,
    pub spans: Vec<Span>,
}

/// Counts checked operations; a failed check counts as a failed op.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checker {
    /// Record one operation: its error or failed check, if any.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn into_report(self) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            ..Report::default()
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
