//! `imprecise-benchmark`: end-to-end and per-layer benchmark of the
//! imprecise engine, driven only through the `imprecise` facade.
//!
//! ```text
//! imprecise-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! imprecise-benchmark compare BASE.jsonl HEAD.jsonl
//! ```
//!
//! A run prints every metric as `workload metric value unit`, then one
//! JSON line `{"correct", "attempted", "failed", "metrics"}` as its last
//! line of output. `--out` appends a full record (environment, extras,
//! spans) to a JSON-lines file that `compare` reads. Without
//! `--workload`, every workload runs in its own child process, so peak
//! memory and allocator state never carry over. See README.md.

mod compare;
mod json;
mod report;
mod stats;
mod trace;
mod workload;

use report::{Metric, Report};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Scale, Workload, FULL};

const USAGE: &str = "usage: imprecise-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE]\n       imprecise-benchmark compare BASE HEAD";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// A scratch directory inside the working directory (the benchmark
/// reads and writes nowhere else), removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(w: Workload) -> Result<WorkDir, String> {
        let path = Path::new(".bench_work").join(format!("{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The commit the working directory is checked out at, read from
/// `.git` directly; "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn environment(args: &Args, w: Workload, work: &Path) -> Vec<(&'static str, String)> {
    let durability = match (w.durable(), args.trace) {
        (true, false) => "always",
        (true, true) => "on-close + explicit sync per publish",
        (false, _) => "none (store-less engine)",
    };
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "sim_kernel",
            imprecise::sim::simd::active_name().to_string(),
        ),
        ("durability", durability.to_string()),
        ("store_dir", work.display().to_string()),
        ("seed", args.seed.to_string()),
        ("git_revision", git_revision()),
    ]
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::num(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn record(args: &Args, w: Workload, env: &[(&str, String)], report: &Report) -> String {
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json::string(k), json::string(v)))
        .collect();
    let failures: Vec<String> = report.failures.iter().map(|f| json::string(f)).collect();
    let spans: Vec<String> = report
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"workload\": {}, \
                 \"iteration\": {}, \"probe\": {}}}",
                json::string(&s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json::string(w.name()),
                s.iteration,
                s.probe
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"final_fingerprint\": {}, \
         \"env\": {{{}}}, \"metrics\": {}, \"extras\": {}, \"spans\": [{}]}}",
        json::string(w.name()),
        args.seed,
        json::num(args.seconds),
        args.trace,
        report.failed == 0,
        report.attempted,
        report.failed,
        failures.join(", "),
        report
            .final_fingerprint
            .map_or("null".to_string(), |f| json::string(&format!("{f:#018x}"))),
        env.join(", "),
        metrics_object(&report.metrics),
        metrics_object(&report.extras),
        spans.join(", ")
    )
}

/// Set up and run one workload in this process.
fn run_workload(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    work: &Path,
) -> Result<Report, String> {
    let setup = workload::setup(w, seed, scale)?;
    Ok(if trace {
        trace::run(&setup, work, seconds)
    } else {
        workload::run(&setup, work, seconds)
    })
}

fn run_one(args: &Args, w: Workload) -> Result<(), String> {
    let work = WorkDir::create(w)?;
    let report = run_workload(w, args.seed, args.seconds, args.trace, FULL, &work.0)?;
    let env = environment(args, w, &work.0);
    for m in report.metrics.iter().chain(&report.extras) {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    for why in &report.failures {
        eprintln!("{}: FAILED: {why}", w.name());
    }
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", record(args, w, &env, &report))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_object(&report.metrics)
    );
    Ok(())
}

/// Every workload, each in its own child process.
fn run_all(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", w.name()])
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("{} exited with {status}", w.name()));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [base, head] => compare::run(base, head),
            _ => Err(USAGE.to_string()),
        },
        _ => parse_args(&args).and_then(|parsed| match parsed.workload {
            Some(w) => run_one(&parsed, w),
            None => run_all(&args),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("imprecise-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::TINY;

    fn declared(section: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let benchmark = json::parse(&text).expect("BENCHMARK.json parses");
        benchmark
            .get(section)
            .map_or(&[][..], json::Json::as_array)
            .iter()
            .filter_map(|m| {
                m.get("name")
                    .and_then(json::Json::as_str)
                    .map(str::to_string)
            })
            .collect()
    }

    fn tiny(w: Workload, trace: bool) -> Report {
        // Tests run in parallel threads of one process: number the dirs.
        static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = Path::new(".bench_work").join(format!("test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let report = run_workload(w, 7, 0.0, trace, TINY, &dir).expect("workload runs");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(".bench_work");
        assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.failures);
        assert!(report.attempted > 0);
        report
    }

    fn value(metrics: &[Metric], name: &str) -> Option<f64> {
        metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    #[test]
    fn every_workload_runs_correctly_and_emits_every_declared_metric() {
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        assert!(!end_to_end.is_empty() && !per_layer.is_empty());
        for w in Workload::ALL {
            let plain = tiny(w, false);
            for name in &end_to_end {
                let v = value(&plain.metrics, name);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{}: {name} = {v:?}",
                    w.name()
                );
            }
            let traced = tiny(w, true);
            for name in &per_layer {
                let v = value(&traced.metrics, name);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{}: {name} = {v:?}",
                    w.name()
                );
            }
            let own = trace::self_seconds(&traced.spans);
            for (i, span) in traced.spans.iter().enumerate() {
                assert!(span.end_ns >= span.start_ns, "{span:?}");
                assert!(
                    own[i] >= 0.0,
                    "{}: {span:?} has negative self time",
                    w.name()
                );
                if let Some(p) = span.parent {
                    let parent = &traced.spans[p];
                    assert!(
                        p < i && parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns
                    );
                    assert!(!parent.probe || span.probe, "a probe's children are probes");
                }
            }
        }
    }

    /// Counters that must repeat exactly: between runs, and between
    /// the untraced and the traced form of a workload.
    const EXACT: [&str; 14] = [
        "oracle.pairs_judged",
        "integrate.pairs_pruned",
        "integrate.matchings_enumerated",
        "integrate.emitted_nodes",
        "integrate.search_popped",
        "integrate.search_expanded",
        "integrate.search_cutoffs",
        "integrate.search_rounds",
        "integrate.max_discarded_mass",
        "store.bytes_per_input_byte",
        "query.answers.genre",
        "query.answers.director",
        "query.answers.year",
        "query.answers.title",
    ];

    #[test]
    fn exact_figures_repeat_across_runs_and_between_traced_and_untraced() {
        for w in Workload::ALL {
            let (first, second, traced) = (tiny(w, false), tiny(w, false), tiny(w, true));
            let mut compared = 0;
            for name in EXACT {
                let Some(v) = value(&first.extras, name) else {
                    continue;
                };
                compared += 1;
                let bits = |x: Option<f64>| x.map(f64::to_bits);
                assert_eq!(
                    bits(Some(v)),
                    bits(value(&second.extras, name)),
                    "{}: {name}",
                    w.name()
                );
                assert_eq!(
                    bits(Some(v)),
                    bits(value(&traced.metrics, name)),
                    "{}: {name} traced",
                    w.name()
                );
            }
            assert!(compared >= 4, "{}: only {compared} exact figures", w.name());
            assert!(first.final_fingerprint.is_some());
            assert_eq!(first.final_fingerprint, second.final_fingerprint);
        }
    }
}
