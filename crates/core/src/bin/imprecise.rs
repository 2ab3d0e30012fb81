//! `imprecise` — command-line front end to the probabilistic XML
//! integration engine.
//!
//! ```text
//! imprecise integrate --out merged.xml [--rules FILE|movie|addressbook]
//!                     [--dtd FILE] [--weights A,B] [--budget K]
//!                     [--budget-total K] [--min-mass P] [--strict]
//!                     [--threads N] [--store FILE]
//!                     [--blocking off|safe|window:N]
//!                     a.xml b.xml [c.xml ...]
//! imprecise refine --out refined.xml [--rules ...] [--dtd FILE]
//!                  [--initial-budget K] [--budget K] [--top C]
//!                  [--steps N] [--store FILE] [a.xml b.xml [c.xml ...]]
//! imprecise query db.xml QUERY [--threshold P] [--min-probability P]
//!                 [--store FILE]
//! imprecise explain QUERY [--threshold P]
//! imprecise stats db.xml
//! imprecise worlds db.xml [--limit N]
//! imprecise prune db.xml --epsilon E --out pruned.xml
//! imprecise feedback db.xml --query Q --value V --verdict correct|incorrect
//!                    --out conditioned.xml
//! ```
//!
//! Probabilistic documents are read and written as *annotated XML*
//! (`px:prob` / `px:poss` elements), so integration outputs can be fed
//! back in as inputs (incremental integration) or post-processed by any
//! XML tooling.
//!
//! With `--store FILE`, every publish is also durably appended to the
//! segment file at FILE: a later `refine --store FILE` with *no* source
//! files reopens the store and resumes refinement of the stored
//! `result` document exactly where the previous process stopped, and
//! `query NAME QUERY --store FILE` queries a stored document by name
//! instead of reading an XML file.

use imprecise::integrate::{BlockingMode, Parallelism, RefineOptions};
use imprecise::oracle::dsl::{ADDRESSBOOK_RULES, MOVIE_RULES};
use imprecise::query::QueryPlan;
use imprecise::{DocHandle, Engine, EngineBuilder};
use std::fmt;
use std::io::Write;
use std::process::ExitCode;

/// The integration knobs shared by `integrate` and `refine`.
#[derive(Debug, Clone, PartialEq)]
struct EngineFlags {
    rules: Option<String>,
    dtd: Option<String>,
    weights: (f64, f64),
    /// Matching budget per candidate-graph component.
    budget: Option<usize>,
    /// Total matching budget per tag group, split across its components
    /// proportionally to live pairs (overrides --budget).
    budget_total: Option<usize>,
    /// Early stop once this fraction of each component's mass is kept.
    min_mass: Option<f64>,
    /// Fail (classic behaviour) instead of truncating over budget.
    strict: bool,
    /// Worker threads for matching enumeration (0 = all cores).
    threads: Option<usize>,
    /// Candidate blocking: off, recall-safe prefilters, or
    /// sorted-neighbourhood windowing.
    blocking: BlockingMode,
    /// Durable store segment file: publishes are appended to it and a
    /// later run can recover/resume from it.
    store: Option<String>,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Integrate {
        /// Two or more source files, integrated by left-fold.
        sources: Vec<String>,
        out: String,
        engine: EngineFlags,
    },
    Refine {
        /// Two or more source files: integrated under the initial
        /// budget, then refined in place step by step.
        sources: Vec<String>,
        out: String,
        engine: EngineFlags,
        /// Extra matchings per refined component per step.
        extra: usize,
        /// Components refined per step (largest discarded mass first).
        top: usize,
        /// Refinement steps (default: until exhausted).
        steps: Option<usize>,
        /// Print per-step emission and arena-occupancy figures.
        stats: bool,
    },
    Query {
        /// XML file to query — or, with `store` set, the *name* of a
        /// document inside the store.
        db: String,
        query: String,
        /// Pushed down into plan execution (prunes before probability
        /// computation); `None` evaluates everything.
        threshold: Option<f64>,
        /// Post-filter applied to the printed answers.
        min_probability: f64,
        /// Query a document recovered from this durable store.
        store: Option<String>,
    },
    Explain {
        query: String,
        threshold: Option<f64>,
    },
    Stats {
        db: String,
    },
    Worlds {
        db: String,
        limit: usize,
    },
    Prune {
        db: String,
        epsilon: f64,
        out: String,
    },
    Feedback {
        db: String,
        query: String,
        value: String,
        correct: bool,
        out: String,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

const USAGE: &str = "\
imprecise — probabilistic XML data integration (IMPrECISE reproduction)

USAGE:
  imprecise integrate --out FILE [--rules FILE|movie|addressbook]
                      [--dtd FILE] [--weights A,B]
                      [--budget K] [--budget-total K] [--min-mass P]
                      [--strict] [--threads N] [--store FILE]
                      [--blocking off|safe|window:N]
                      A.xml B.xml [C.xml ...]
  imprecise refine --out FILE [--rules FILE|movie|addressbook] [--dtd FILE]
                   [--weights A,B] [--initial-budget K] [--budget K]
                   [--top C] [--steps N] [--threads N] [--stats]
                   [--store FILE] [--blocking off|safe|window:N]
                   [A.xml B.xml [C.xml ...]]
  imprecise query DB.xml QUERY [--threshold P] [--min-probability P]
                  [--store FILE]
  imprecise explain QUERY [--threshold P]
  imprecise stats DB.xml
  imprecise worlds DB.xml [--limit N]
  imprecise prune DB.xml --epsilon E --out FILE
  imprecise feedback DB.xml --query Q --value V
                     --verdict correct|incorrect --out FILE

Probabilistic documents use px:prob/px:poss annotated XML; plain XML is
accepted anywhere and treated as certain.

--store FILE attaches a durable versioned store (an append-only segment
file, created on first use): every publish is crash-safely persisted.
`refine --store FILE` with no source files resumes the stored `result`
document where the previous process stopped; `query NAME Q --store FILE`
queries a stored document by name.";

fn parse_args(args: &[String]) -> Result<Command, UsageError> {
    let mut positional: Vec<&str> = Vec::new();
    let mut flags: Vec<(&str, Option<&str>)> = Vec::new();
    let mut it = args.iter().map(String::as_str).peekable();
    let sub = it.next().ok_or_else(|| UsageError(USAGE.into()))?;
    while let Some(tok) = it.next() {
        if let Some(name) = tok.strip_prefix("--") {
            let value = match name {
                // flags with a value
                "out" | "rules" | "dtd" | "weights" | "min-probability" | "threshold" | "limit"
                | "epsilon" | "query" | "value" | "verdict" | "budget" | "budget-total"
                | "initial-budget" | "min-mass" | "threads" | "top" | "steps" | "store"
                | "blocking" => Some(
                    it.next()
                        .ok_or_else(|| UsageError(format!("--{name} needs a value")))?,
                ),
                // boolean flags
                "strict" | "stats" => None,
                other => return Err(UsageError(format!("unknown flag --{other}"))),
            };
            flags.push((name, value));
        } else {
            positional.push(tok);
        }
    }
    let flag = |name: &str| -> Option<&str> {
        flags.iter().find(|(n, _)| *n == name).and_then(|(_, v)| *v)
    };
    let has_flag = |name: &str| -> bool { flags.iter().any(|(n, _)| *n == name) };
    let required = |name: &str| -> Result<String, UsageError> {
        flag(name)
            .map(str::to_string)
            .ok_or_else(|| UsageError(format!("missing required flag --{name}")))
    };
    let pos = |i: usize, what: &str| -> Result<String, UsageError> {
        positional
            .get(i)
            .map(|s| s.to_string())
            .ok_or_else(|| UsageError(format!("missing {what}")))
    };
    let parse_weights = |w: Option<&str>| -> Result<(f64, f64), UsageError> {
        match w {
            None => Ok((0.5, 0.5)),
            Some(w) => {
                let (a, b) = w
                    .split_once(',')
                    .ok_or_else(|| UsageError(format!("--weights wants A,B, got {w:?}")))?;
                let pa: f64 = a
                    .trim()
                    .parse()
                    .map_err(|_| UsageError(format!("bad weight {a:?}")))?;
                let pb: f64 = b
                    .trim()
                    .parse()
                    .map_err(|_| UsageError(format!("bad weight {b:?}")))?;
                if !(pa > 0.0 && pb > 0.0 && (pa + pb).is_finite()) {
                    return Err(UsageError("weights must be finite and positive".into()));
                }
                Ok((pa, pb))
            }
        }
    };
    // The shared integrate/refine knobs; `budget_flag` names the flag
    // holding the per-component cap (`refine` repurposes --budget for
    // the per-step extra, so its initial cap is --initial-budget).
    let engine_flags = |budget_flag: &str| -> Result<EngineFlags, UsageError> {
        let min_mass = parse_opt_f64_flag(flag("min-mass"), "min-mass")?;
        if let Some(m) = min_mass {
            if !(m > 0.0 && m <= 1.0) {
                return Err(UsageError(format!("--min-mass must be in (0, 1], got {m}")));
            }
        }
        let budget = parse_opt_usize_flag(flag(budget_flag), budget_flag)?;
        if budget == Some(0) {
            return Err(UsageError(format!("--{budget_flag} must be at least 1")));
        }
        let budget_total = parse_opt_usize_flag(flag("budget-total"), "budget-total")?;
        if budget_total == Some(0) {
            return Err(UsageError("--budget-total must be at least 1".into()));
        }
        Ok(EngineFlags {
            rules: flag("rules").map(str::to_string),
            dtd: flag("dtd").map(str::to_string),
            weights: parse_weights(flag("weights"))?,
            budget,
            budget_total,
            min_mass,
            strict: has_flag("strict"),
            threads: parse_opt_usize_flag(flag("threads"), "threads")?,
            store: flag("store").map(str::to_string),
            blocking: parse_blocking_flag(flag("blocking"))?,
        })
    };
    // `allow_empty`: `refine --store` may run with no sources at all,
    // resuming the stored result instead of integrating afresh.
    let source_files = |cmd: &str, allow_empty: bool| -> Result<Vec<String>, UsageError> {
        let sources: Vec<String> = positional.iter().map(|s| s.to_string()).collect();
        if sources.len() < 2 && !(allow_empty && sources.is_empty()) {
            return Err(UsageError(format!("{cmd} needs at least two source files")));
        }
        Ok(sources)
    };
    match sub {
        "integrate" => Ok(Command::Integrate {
            sources: source_files("integrate", false)?,
            out: required("out")?,
            engine: engine_flags("budget")?,
        }),
        "refine" => {
            let extra = parse_usize_flag(flag("budget"), 1024, "budget")?;
            if extra == 0 {
                return Err(UsageError("--budget must be at least 1".into()));
            }
            let top = parse_usize_flag(flag("top"), usize::MAX, "top")?;
            if top == 0 {
                return Err(UsageError("--top must be at least 1".into()));
            }
            let mut engine = engine_flags("initial-budget")?;
            if engine.strict {
                return Err(UsageError(
                    "--strict never truncates, so there is nothing to refine".into(),
                ));
            }
            // A refinement demo wants a visible initial truncation;
            // default the initial cap to a small budget.
            engine.budget = engine.budget.or(Some(64));
            Ok(Command::Refine {
                sources: source_files("refine", engine.store.is_some())?,
                out: required("out")?,
                engine,
                extra,
                top,
                steps: parse_opt_usize_flag(flag("steps"), "steps")?,
                stats: has_flag("stats"),
            })
        }
        "query" => Ok(Command::Query {
            db: pos(0, "database file")?,
            query: pos(1, "query")?,
            threshold: parse_opt_f64_flag(flag("threshold"), "threshold")?,
            min_probability: parse_f64_flag(flag("min-probability"), 0.0, "min-probability")?,
            store: flag("store").map(str::to_string),
        }),
        "explain" => Ok(Command::Explain {
            query: pos(0, "query")?,
            threshold: parse_opt_f64_flag(flag("threshold"), "threshold")?,
        }),
        "stats" => Ok(Command::Stats {
            db: pos(0, "database file")?,
        }),
        "worlds" => Ok(Command::Worlds {
            db: pos(0, "database file")?,
            limit: parse_usize_flag(flag("limit"), 10, "limit")?,
        }),
        "prune" => Ok(Command::Prune {
            db: pos(0, "database file")?,
            epsilon: parse_f64_flag(flag("epsilon"), f64::NAN, "epsilon").and_then(|e| {
                if e.is_nan() {
                    Err(UsageError("missing required flag --epsilon".into()))
                } else {
                    Ok(e)
                }
            })?,
            out: required("out")?,
        }),
        "feedback" => {
            let correct = match flag("verdict") {
                Some("correct") => true,
                Some("incorrect") => false,
                Some(other) => {
                    return Err(UsageError(format!(
                        "--verdict must be correct|incorrect, got {other:?}"
                    )))
                }
                None => return Err(UsageError("missing required flag --verdict".into())),
            };
            Ok(Command::Feedback {
                db: pos(0, "database file")?,
                query: required("query")?,
                value: required("value")?,
                correct,
                out: required("out")?,
            })
        }
        "help" | "--help" | "-h" => Err(UsageError(USAGE.into())),
        other => Err(UsageError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

fn parse_f64_flag(v: Option<&str>, default: f64, name: &str) -> Result<f64, UsageError> {
    match v {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| UsageError(format!("--{name} is not a number: {s:?}"))),
    }
}

fn parse_opt_f64_flag(v: Option<&str>, name: &str) -> Result<Option<f64>, UsageError> {
    v.map(|s| {
        s.parse()
            .map_err(|_| UsageError(format!("--{name} is not a number: {s:?}")))
    })
    .transpose()
}

fn parse_usize_flag(v: Option<&str>, default: usize, name: &str) -> Result<usize, UsageError> {
    match v {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| UsageError(format!("--{name} is not an integer: {s:?}"))),
    }
}

fn parse_opt_usize_flag(v: Option<&str>, name: &str) -> Result<Option<usize>, UsageError> {
    v.map(|s| {
        s.parse()
            .map_err(|_| UsageError(format!("--{name} is not an integer: {s:?}")))
    })
    .transpose()
}

/// Parse `--blocking off|safe|window:N` (default off).
fn parse_blocking_flag(v: Option<&str>) -> Result<BlockingMode, UsageError> {
    match v {
        None | Some("off") => Ok(BlockingMode::Off),
        Some("safe") => Ok(BlockingMode::RecallSafe),
        Some(s) => {
            let window = s
                .strip_prefix("window:")
                .and_then(|w| w.parse::<usize>().ok())
                .filter(|&w| w >= 1)
                .ok_or_else(|| {
                    UsageError(format!("--blocking wants off, safe or window:N, got {s:?}"))
                })?;
            Ok(BlockingMode::Heuristic { window })
        }
    }
}

/// Resolve a `--rules` argument: a named preset or a file path.
fn rules_text(arg: &str) -> Result<String, String> {
    match arg {
        "movie" => Ok(MOVIE_RULES.to_string()),
        "addressbook" => Ok(ADDRESSBOOK_RULES.to_string()),
        path => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read rule file {path}: {e}"))
        }
    }
}

/// Load an XML file into the engine under `name`.
fn load(engine: &Engine, name: &str, path: &str) -> Result<DocHandle, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    engine
        .load_xml(name, &text)
        .map_err(|e| format!("{path}: {e}"))
}

/// Build an engine from the shared integrate/refine flags.
fn build_engine(flags: &EngineFlags) -> Result<Engine, String> {
    let mut builder = EngineBuilder::new();
    if let Some(r) = &flags.rules {
        let text = rules_text(r)?;
        builder = builder.rules(&text).map_err(|e| e.to_string())?;
    }
    if let Some(d) = &flags.dtd {
        let text = std::fs::read_to_string(d).map_err(|e| format!("cannot read {d}: {e}"))?;
        builder = builder.schema_text(&text).map_err(|e| e.to_string())?;
    }
    let defaults = imprecise::integrate::IntegrationOptions::default();
    builder = builder.options(imprecise::integrate::IntegrationOptions {
        source_weights: flags.weights,
        max_matchings_per_component: flags.budget.unwrap_or(defaults.max_matchings_per_component),
        budget_plan: match flags.budget_total {
            Some(total) => imprecise::integrate::BudgetPlan::Total(total),
            None => imprecise::integrate::BudgetPlan::PerComponent,
        },
        min_retained_mass: flags.min_mass,
        strict_matchings: flags.strict,
        parallelism: flags
            .threads
            .map(Parallelism::new)
            .unwrap_or(defaults.parallelism),
        blocking: flags.blocking,
        ..defaults
    });
    match &flags.store {
        Some(path) => builder.with_store(path).open().map_err(|e| e.to_string()),
        None => Ok(builder.build()),
    }
}

/// Load the source files and fold them into a document named `result`.
fn integrate_sources(
    engine: &Engine,
    sources: &[String],
) -> Result<(DocHandle, Vec<imprecise::integrate::IntegrationStats>), String> {
    let handles = sources
        .iter()
        .enumerate()
        .map(|(i, path)| load(engine, &format!("source-{i}"), path))
        .collect::<Result<Vec<_>, _>>()?;
    engine
        .integrate_many(&handles, "result")
        .map_err(|e| e.to_string())
}

/// Print the budget-truncation summary of a fold, flagging which
/// truncated components are resumable (frontier persisted with the
/// published document — `imprecise refine` picks them up).
fn report_truncations(steps: &[imprecise::integrate::IntegrationStats], budget_note: &str) {
    let truncated: usize = steps.iter().map(|s| s.components_truncated()).sum();
    if truncated == 0 {
        return;
    }
    let max_discarded = steps
        .iter()
        .map(|s| s.max_discarded_mass)
        .fold(0.0f64, f64::max);
    eprintln!(
        "budget: {truncated} component(s) truncated, max discarded mass {max_discarded:.4}{budget_note}",
    );
    for step in steps {
        for t in &step.truncated_components {
            let resumable = if t.resumable {
                format!(", resumable ({} open frontier nodes)", t.frontier_nodes)
            } else {
                format!(
                    ", not resumable (intermediate fold step; {} frontier nodes dropped)",
                    t.frontier_nodes
                )
            };
            eprintln!(
                "  {} — {} live pairs, kept {} matchings, discarded mass {:.4}{resumable}",
                t.path, t.live_pairs, t.kept, t.discarded_mass
            );
        }
    }
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Integrate {
            sources,
            out,
            engine: flags,
        } => {
            let engine = build_engine(&flags)?;
            let (result, steps) = integrate_sources(&engine, &sources)?;
            let snapshot = engine.snapshot(&result).map_err(|e| e.to_string())?;
            std::fs::write(&out, snapshot.export())
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            let doc_stats = snapshot.stats();
            // Aggregate the per-step statistics of the fold.
            let sum = |f: fn(&imprecise::integrate::IntegrationStats) -> usize| -> usize {
                steps.iter().map(f).sum()
            };
            eprintln!(
                "integrated: {} pairs judged ({} match / {} non-match / {} undecided), \
                 {} possible worlds, {} nodes -> {out}",
                sum(|s| s.pairs_judged),
                sum(|s| s.judged_match),
                sum(|s| s.judged_nonmatch),
                sum(|s| s.judged_possible),
                doc_stats.worlds,
                doc_stats.breakdown.total(),
            );
            report_truncations(
                &steps,
                &format!(
                    "; matchings kept per component <= {}",
                    engine.options().max_matchings_per_component
                ),
            );
            Ok(())
        }
        Command::Refine {
            sources,
            out,
            engine: flags,
            extra,
            top,
            steps: max_steps,
            stats,
        } => {
            let engine = build_engine(&flags)?;
            let result = if sources.is_empty() {
                // --store resume mode: pick up the stored result where
                // the previous process stopped.
                engine.handle("result").ok_or_else(|| {
                    format!(
                        "store {:?} holds no `result` document to resume; \
                         pass source files to integrate first",
                        flags.store.as_deref().unwrap_or("<none>")
                    )
                })?
            } else {
                let (result, steps) = integrate_sources(&engine, &sources)?;
                report_truncations(&steps, "");
                result
            };
            if stats {
                match engine.refine_state(&result).map_err(|e| e.to_string())? {
                    None => eprintln!("refine state: none (document is exact)"),
                    Some(info) => {
                        let provenance = match info.recovered_at {
                            Some(v) => format!("recovered from store at version {v}"),
                            None => "in-memory".to_string(),
                        };
                        eprintln!(
                            "refine state: {provenance}, {} open component(s), \
                             max discarded mass {:.4}",
                            info.open_components, info.max_discarded_mass,
                        );
                    }
                }
            }
            let options = RefineOptions {
                extra_matchings: extra,
                min_retained_mass: None,
                max_components: top,
                threads: flags.threads.map(Parallelism::new),
            };
            let mut step_no = 0usize;
            loop {
                if max_steps.is_some_and(|limit| step_no >= limit) {
                    break;
                }
                let step = engine
                    .refine(&result, &options)
                    .map_err(|e| e.to_string())?;
                if step.refined.is_empty() {
                    break;
                }
                step_no += 1;
                for r in &step.refined {
                    eprintln!(
                        "refine step {step_no}: {} — kept {} -> {} matchings, \
                         discarded mass {:.4} -> {:.4}{}",
                        r.path,
                        r.kept_before,
                        r.kept_after,
                        r.discarded_before,
                        r.discarded_after,
                        if r.exhausted { " (exhausted)" } else { "" },
                    );
                }
                if stats {
                    eprintln!(
                        "refine step {step_no}: emitted {} node(s), arena {}/{} live \
                         ({} detached slot(s)){}",
                        step.emitted_nodes,
                        step.arena_live,
                        step.arena_total,
                        step.arena_total - step.arena_live,
                        if step.compacted { ", compacted" } else { "" },
                    );
                    eprintln!(
                        "refine step {step_no}: search popped {} state(s), \
                         expanded {}, {} bound cutoff(s), {} round(s)",
                        step.search.popped,
                        step.search.expanded,
                        step.search.cutoffs,
                        step.search.rounds,
                    );
                }
                if step.remaining == 0 {
                    eprintln!("refine: document is exact now ({step_no} step(s))");
                    break;
                }
                eprintln!(
                    "refine step {step_no}: {} component(s) still open, \
                     max discarded mass {:.4}",
                    step.remaining, step.max_discarded_mass,
                );
            }
            if step_no == 0 {
                eprintln!("refine: nothing to refine (no component was truncated)");
            }
            let snapshot = engine.snapshot(&result).map_err(|e| e.to_string())?;
            std::fs::write(&out, snapshot.export())
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            let doc_stats = snapshot.stats();
            eprintln!(
                "refined: {} possible worlds, {} nodes -> {out}",
                doc_stats.worlds,
                doc_stats.breakdown.total(),
            );
            Ok(())
        }
        Command::Query {
            db,
            query,
            threshold,
            min_probability,
            store,
        } => {
            let engine = match &store {
                Some(path) => Engine::open(path).map_err(|e| e.to_string())?,
                None => Engine::new(),
            };
            let hdb = match &store {
                // With a store, DB names a stored document.
                Some(path) => engine
                    .handle(&db)
                    .ok_or_else(|| format!("store {path:?} holds no document named {db:?}"))?,
                None => load(&engine, "db", &db)?,
            };
            // --threshold takes the pushdown fast path: the plan prunes
            // sub-threshold candidates before computing probabilities.
            let answers = engine
                .query(&hdb, &query, threshold)
                .map_err(|e| e.to_string())?;
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for item in &answers.items {
                if item.probability >= min_probability {
                    // A closed pipe (e.g. `| head`) is a normal way for the
                    // reader to stop; exit quietly instead of panicking.
                    if writeln!(out, "{:5.1}% {}", item.probability * 100.0, item.value).is_err() {
                        return Ok(());
                    }
                }
            }
            Ok(())
        }
        Command::Explain { query, threshold } => {
            let mut plan = QueryPlan::parse(&query).map_err(|e| e.to_string())?;
            if let Some(t) = threshold {
                plan = plan.with_min_probability(t);
            }
            println!("{plan}");
            Ok(())
        }
        Command::Stats { db } => {
            let engine = Engine::new();
            let hdb = load(&engine, "db", &db)?;
            let s = engine.stats(&hdb).map_err(|e| e.to_string())?;
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            // As in `query`/`worlds`: a closed pipe (e.g. `| head`) is a
            // normal way for the reader to stop.
            let _ = writeln!(out, "worlds:               {}", s.worlds).is_ok()
                && writeln!(out, "certain:              {}", s.certain).is_ok()
                && writeln!(out, "nodes (factored):     {}", s.breakdown.total()).is_ok()
                && writeln!(out, "  probability nodes:  {}", s.breakdown.prob).is_ok()
                && writeln!(out, "  possibility nodes:  {}", s.breakdown.poss).is_ok()
                && writeln!(out, "  element nodes:      {}", s.breakdown.elem).is_ok()
                && writeln!(out, "  text nodes:         {}", s.breakdown.text).is_ok()
                && writeln!(out, "nodes (unfactored):   {}", s.unfactored_nodes).is_ok()
                && writeln!(out, "expected world size:  {:.1}", s.expected_world_size).is_ok();
            Ok(())
        }
        Command::Worlds { db, limit } => {
            let engine = Engine::new();
            let hdb = load(&engine, "db", &db)?;
            let doc = engine.snapshot(&hdb).map_err(|e| e.to_string())?;
            let total = doc.world_count();
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            if writeln!(out, "{total} possible worlds; showing up to {limit}:").is_err() {
                return Ok(());
            }
            for (i, world) in doc.worlds_iter().take(limit).enumerate() {
                let ok = writeln!(out, "-- world {i} (p = {:.6})", world.prob).is_ok()
                    && writeln!(out, "{}", imprecise::xml::to_pretty_string(&world.doc)).is_ok();
                if !ok {
                    return Ok(());
                }
            }
            Ok(())
        }
        Command::Prune { db, epsilon, out } => {
            let engine = Engine::new();
            let hdb = load(&engine, "db", &db)?;
            let mut doc = engine
                .snapshot(&hdb)
                .map_err(|e| e.to_string())?
                .doc()
                .clone();
            let stats = doc.prune_below(epsilon);
            let pruned = engine.insert("pruned", doc).map_err(|e| e.to_string())?;
            let text = engine.export(&pruned).map_err(|e| e.to_string())?;
            std::fs::write(&out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!(
                "pruned {} possibilities ({} choice points, max mass {:.3}): \
                 {} -> {} nodes, {} -> {} worlds -> {out}",
                stats.possibilities_removed,
                stats.probs_affected,
                stats.max_mass_removed,
                stats.nodes_before,
                stats.nodes_after,
                stats.worlds_before,
                stats.worlds_after,
            );
            Ok(())
        }
        Command::Feedback {
            db,
            query,
            value,
            correct,
            out,
        } => {
            let engine = Engine::new();
            let hdb = load(&engine, "db", &db)?;
            let prepared = engine.prepare(&query).map_err(|e| e.to_string())?;
            let report = engine
                .feedback(&hdb, &prepared, &value, correct)
                .map_err(|e| e.to_string())?;
            let text = engine.export(&hdb).map_err(|e| e.to_string())?;
            std::fs::write(&out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!(
                "conditioned ({:?}): worlds {} -> {}, nodes {} -> {} -> {out}",
                report.method,
                report.worlds_before,
                report.worlds_after,
                report.nodes_before,
                report.nodes_after,
            );
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(cmd) => match run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(usage) => {
            eprintln!("{usage}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Command, UsageError> {
        parse_args(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn integrate_command_parses() {
        let cmd = parse(&[
            "integrate",
            "--out",
            "m.xml",
            "--rules",
            "movie",
            "--weights",
            "0.8,0.2",
            "a.xml",
            "b.xml",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Integrate {
                sources: vec!["a.xml".into(), "b.xml".into()],
                out: "m.xml".into(),
                engine: EngineFlags {
                    rules: Some("movie".into()),
                    dtd: None,
                    weights: (0.8, 0.2),
                    budget: None,
                    budget_total: None,
                    min_mass: None,
                    strict: false,
                    threads: None,
                    store: None,
                    blocking: BlockingMode::Off,
                },
            }
        );
    }

    #[test]
    fn integrate_budget_flags_parse() {
        let cmd = parse(&[
            "integrate",
            "--out",
            "m.xml",
            "--budget",
            "64",
            "--budget-total",
            "640",
            "--min-mass",
            "0.95",
            "--strict",
            "--threads",
            "0",
            "a.xml",
            "b.xml",
            "c.xml",
            "d.xml",
        ])
        .unwrap();
        match cmd {
            Command::Integrate {
                sources, engine, ..
            } => {
                assert_eq!(sources.len(), 4);
                assert_eq!(engine.budget, Some(64));
                assert_eq!(engine.budget_total, Some(640));
                assert_eq!(engine.min_mass, Some(0.95));
                assert!(engine.strict);
                assert_eq!(engine.threads, Some(0));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["integrate", "--out", "m.xml", "--budget", "lots", "a", "b"]).is_err());
        assert!(parse(&[
            "integrate",
            "--out",
            "m.xml",
            "--budget-total",
            "0",
            "a",
            "b"
        ])
        .is_err());
        assert!(parse(&["integrate", "--out", "m.xml", "only-one.xml"])
            .unwrap_err()
            .0
            .contains("at least two"));
    }

    #[test]
    fn refine_command_parses_with_defaults() {
        let cmd = parse(&["refine", "--out", "r.xml", "a.xml", "b.xml"]).unwrap();
        match cmd {
            Command::Refine {
                sources,
                out,
                engine,
                extra,
                top,
                steps,
                stats,
            } => {
                assert_eq!(sources.len(), 2);
                assert_eq!(out, "r.xml");
                // The initial integrate defaults to a small truncating cap.
                assert_eq!(engine.budget, Some(64));
                assert_eq!(extra, 1024);
                assert_eq!(top, usize::MAX);
                assert_eq!(steps, None);
                assert!(!stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn refine_flags_parse_and_validate() {
        let cmd = parse(&[
            "refine",
            "--out",
            "r.xml",
            "--initial-budget",
            "16",
            "--budget",
            "128",
            "--top",
            "2",
            "--steps",
            "5",
            "a.xml",
            "b.xml",
        ])
        .unwrap();
        match cmd {
            Command::Refine {
                engine,
                extra,
                top,
                steps,
                ..
            } => {
                assert_eq!(engine.budget, Some(16));
                assert_eq!(extra, 128);
                assert_eq!(top, 2);
                assert_eq!(steps, Some(5));
            }
            other => panic!("{other:?}"),
        }
        // --stats is a boolean flag on refine.
        match parse(&["refine", "--out", "r.xml", "--stats", "a", "b"]).unwrap() {
            Command::Refine { stats, .. } => assert!(stats),
            other => panic!("{other:?}"),
        }
        // Strict mode never truncates: nothing to refine.
        assert!(parse(&["refine", "--out", "r.xml", "--strict", "a", "b"])
            .unwrap_err()
            .0
            .contains("nothing to refine"));
        assert!(parse(&["refine", "--out", "r.xml", "--top", "0", "a", "b"]).is_err());
        assert!(parse(&["refine", "--out", "r.xml", "--budget", "0", "a", "b"]).is_err());
    }

    #[test]
    fn query_command_parses_with_default_threshold() {
        let cmd = parse(&["query", "db.xml", "//movie/title"]).unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                db: "db.xml".into(),
                query: "//movie/title".into(),
                threshold: None,
                min_probability: 0.0,
                store: None,
            }
        );
    }

    #[test]
    fn query_threshold_flag_parses() {
        let cmd = parse(&["query", "db.xml", "//movie/title", "--threshold", "0.5"]).unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                db: "db.xml".into(),
                query: "//movie/title".into(),
                threshold: Some(0.5),
                min_probability: 0.0,
                store: None,
            }
        );
        assert!(parse(&["query", "db.xml", "q", "--threshold", "high"]).is_err());
    }

    #[test]
    fn store_flag_parses_on_integrate_refine_and_query() {
        match parse(&[
            "integrate",
            "--out",
            "m.xml",
            "--store",
            "db.seg",
            "a.xml",
            "b.xml",
        ])
        .unwrap()
        {
            Command::Integrate { engine, .. } => {
                assert_eq!(engine.store.as_deref(), Some("db.seg"))
            }
            other => panic!("{other:?}"),
        }
        match parse(&["refine", "--out", "r.xml", "--store", "db.seg", "a", "b"]).unwrap() {
            Command::Refine { engine, .. } => assert_eq!(engine.store.as_deref(), Some("db.seg")),
            other => panic!("{other:?}"),
        }
        match parse(&["query", "result", "//movie", "--store", "db.seg"]).unwrap() {
            Command::Query { db, store, .. } => {
                assert_eq!(db, "result");
                assert_eq!(store.as_deref(), Some("db.seg"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["integrate", "--out", "m.xml", "--store"]).is_err());
    }

    #[test]
    fn refine_without_sources_requires_a_store() {
        // Resume mode: with a store attached, no source files are fine.
        match parse(&["refine", "--out", "r.xml", "--store", "db.seg"]).unwrap() {
            Command::Refine { sources, .. } => assert!(sources.is_empty()),
            other => panic!("{other:?}"),
        }
        // Without one, refine still needs at least two sources…
        assert!(parse(&["refine", "--out", "r.xml"])
            .unwrap_err()
            .0
            .contains("at least two"));
        // …and a single source is always an error, store or not.
        assert!(
            parse(&["refine", "--out", "r.xml", "--store", "db.seg", "a"])
                .unwrap_err()
                .0
                .contains("at least two")
        );
    }

    #[test]
    fn explain_command_parses() {
        let cmd = parse(&["explain", "//movie/title"]).unwrap();
        assert_eq!(
            cmd,
            Command::Explain {
                query: "//movie/title".into(),
                threshold: None,
            }
        );
        let cmd = parse(&["explain", "//movie/title", "--threshold", "0.25"]).unwrap();
        assert_eq!(
            cmd,
            Command::Explain {
                query: "//movie/title".into(),
                threshold: Some(0.25),
            }
        );
        assert!(parse(&["explain"]).is_err());
    }

    #[test]
    fn feedback_verdict_is_validated() {
        let err = parse(&[
            "feedback",
            "db.xml",
            "--query",
            "q",
            "--value",
            "v",
            "--verdict",
            "maybe",
            "--out",
            "o.xml",
        ])
        .unwrap_err();
        assert!(err.0.contains("correct|incorrect"));
    }

    #[test]
    fn missing_required_flags_are_reported() {
        assert!(parse(&["integrate", "a.xml", "b.xml"])
            .unwrap_err()
            .0
            .contains("--out"));
        assert!(parse(&["prune", "db.xml", "--out", "o.xml"])
            .unwrap_err()
            .0
            .contains("--epsilon"));
    }

    #[test]
    fn unknown_command_and_flags_error() {
        assert!(parse(&["frobnicate"])
            .unwrap_err()
            .0
            .contains("unknown command"));
        assert!(parse(&["query", "--frobnicate", "x"])
            .unwrap_err()
            .0
            .contains("unknown flag"));
    }

    #[test]
    fn weights_validation() {
        assert!(parse(&["integrate", "--out", "o", "--weights", "nope", "a", "b"]).is_err());
        assert!(parse(&["integrate", "--out", "o", "--weights", "0,-1", "a", "b"]).is_err());
        for bad in ["nan,1", "inf,1", "1,-inf", "-1,3", "1e308,1e308"] {
            let err = parse(&["integrate", "--out", "o", "--weights", bad, "a", "b"])
                .expect_err("non-finite or non-positive weights are a usage error");
            assert!(err.0.contains("finite and positive"), "{bad}: {}", err.0);
        }
        assert!(parse(&["integrate", "--out", "o", "--weights", "3,1", "a", "b"]).is_ok());
    }

    #[test]
    fn preset_rules_resolve() {
        assert!(rules_text("movie").unwrap().contains("movie"));
        assert!(rules_text("addressbook").unwrap().contains("person"));
        assert!(rules_text("/nonexistent/rules.txt").is_err());
    }
}
