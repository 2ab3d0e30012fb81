//! `imprecise-benchmark compare BASE HEAD`: pair the runs of two record
//! files and give each (workload, metric) a verdict.
//!
//! Runs pair up in file order. "better" needs the head to win at least
//! nine tenths of the pairs (ties count for neither) and its median to
//! beat the base median by more than the base's interquartile range.
//! "worse" means the head median is worse than the base median by more
//! than the metric's bound (for per-layer metrics, which have no bound:
//! the mirror of "better"). Where the base's own spread exceeds the
//! bound, a result that is not "better" is "unresolved" unless every
//! head run beats every base run. Fewer than ten pairs are always
//! "unresolved".

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;

/// The pairs a verdict needs.
const MIN_PAIRS: usize = 10;

struct Declared {
    higher_is_better: bool,
    /// Relative regression bound; `None` for per-layer metrics.
    bound: Option<f64>,
}

fn declared(benchmark: &Json) -> BTreeMap<String, Declared> {
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in benchmark.get(section).map_or(&[][..], Json::as_array) {
            if let Some(name) = m.get("name").and_then(Json::as_str) {
                out.insert(
                    name.to_string(),
                    Declared {
                        higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                        bound: m.get("bound").and_then(Json::as_f64),
                    },
                );
            }
        }
    }
    out
}

/// (workload, metric) → values in file order.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn load_records(path: &str) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut series = Series::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: record has no workload", n + 1))?;
        for (name, m) in record
            .get("metrics")
            .and_then(Json::as_object)
            .into_iter()
            .flatten()
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                series
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(series)
}

/// The verdict on paired runs (`base[i]` with `head[i]`), and how many
/// pairs the head won.
pub fn verdict(
    base: &[f64],
    head: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
) -> (usize, &'static str) {
    let n = base.len().min(head.len());
    let (base, head) = (&base[..n], &head[..n]);
    // Positive when the head is better.
    let gain = |b: f64, h: f64| if higher_is_better { h - b } else { b - h };
    let wins = (0..n).filter(|&i| gain(base[i], head[i]) > 0.0).count();
    let losses = (0..n).filter(|&i| gain(base[i], head[i]) < 0.0).count();
    if n < MIN_PAIRS {
        return (wins, "unresolved");
    }
    let (bm, hm) = (median(base), median(head));
    let (q1, q3) = quartiles(base);
    let iqr = q3 - q1;
    let better_all = base.iter().all(|&b| head.iter().all(|&h| gain(b, h) > 0.0));
    let verdict = if 10 * wins >= 9 * n && gain(bm, hm) > iqr {
        "better"
    } else if let Some(bound) = bound {
        let limit = bound * bm.abs();
        if iqr > limit && !better_all {
            "unresolved"
        } else if -gain(bm, hm) > limit {
            "worse"
        } else if better_all {
            "better"
        } else {
            "unchanged"
        }
    } else if 10 * losses >= 9 * n && -gain(bm, hm) > iqr {
        "worse"
    } else {
        "unchanged"
    };
    (wins, verdict)
}

pub fn run(base_path: &str, head_path: &str) -> Result<(), String> {
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|t| json::parse(&t))?;
    let declared = declared(&benchmark);
    let base = load_records(base_path)?;
    let head = load_records(head_path)?;
    let mut table = format!(
        "{:<16} {:<32} {:>4} {:>36} {:>36} {:>6}  verdict\n",
        "workload", "metric", "n", "base median [q1, q3]", "head median [q1, q3]", "wins"
    );
    for ((workload, metric), b) in &base {
        let (Some(d), Some(h)) = (
            declared.get(metric),
            head.get(&(workload.clone(), metric.clone())),
        ) else {
            continue;
        };
        let n = b.len().min(h.len());
        let (wins, verdict) = verdict(b, h, d.higher_is_better, d.bound);
        let cell = |v: &[f64]| {
            let (q1, q3) = quartiles(&v[..n]);
            format!("{:.6e} [{:.4e}, {:.4e}]", median(&v[..n]), q1, q3)
        };
        let _ = writeln!(
            table,
            "{:<16} {:<32} {:>4} {:>36} {:>36} {:>6}  {verdict}",
            workload,
            metric,
            n,
            cell(b),
            cell(h),
            format!("{wins}/{n}"),
        );
    }
    // A closed pipe (`compare … | head`) is not an error worth a panic.
    let _ = std::io::stdout().write_all(table.as_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_pairs_rule_and_the_bound() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(verdict(&base, &faster, false, Some(0.1)), (10, "better"));
        assert_eq!(verdict(&base, &slower, false, Some(0.1)), (0, "worse"));
        assert_eq!(verdict(&base, &same, false, Some(0.1)).1, "unchanged");
        assert_eq!(verdict(&base, &faster, true, Some(0.1)), (0, "worse"));
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(verdict(&noisy, &noisy, false, Some(0.1)).1, "unresolved");
        assert_eq!(verdict(&base, &slower, false, None).1, "worse");
        assert_eq!(
            verdict(&base[..9], &faster[..9], false, Some(0.1)),
            (9, "unresolved")
        );
    }
}
