//! The determinism / robustness rule set.
//!
//! Every rule is substring-level over *scrubbed* code (comments,
//! strings, and `#[cfg(test)]` modules already blanked — see
//! [`crate::scrub`]), scoped by crate and file role. Rules are listed
//! in [`RULES`]; `imprecise-lint --list-rules` prints this table.

use crate::scrub::Scrubbed;
use crate::{FileRole, Finding};

/// Static description of one rule, for docs and `--list-rules`.
pub struct RuleDoc {
    pub id: &'static str,
    pub summary: &'static str,
    pub scope: &'static str,
    pub rationale: &'static str,
}

/// Crates whose `src/` (excluding `src/bin/`) forms the deterministic
/// pipeline: published bytes must be identical across runs, thread
/// counts, and schedules.
pub const DETERMINISTIC_CRATES: &[&str] = &["pxml", "integrate", "query", "store", "core"];

/// Crates held to the no-panic robustness bar. `bench` and `datagen`
/// are measurement/data harnesses and exempt; binaries are exempt.
pub const ROBUST_CRATES: &[&str] = &[
    "xmlkit",
    "sim",
    "pxml",
    "oracle",
    "query",
    "quality",
    "integrate",
    "store",
    "feedback",
    "core",
    "verify",
];

pub const RULES: &[RuleDoc] = &[
    RuleDoc {
        id: "hash-iteration",
        summary: "iterating a HashMap/HashSet declared in this file",
        scope: "deterministic crates (pxml, integrate, query, store, core), lib code",
        rationale: "Hash iteration order depends on the hasher state and can differ across \
                    runs; anything feeding canonical output must use BTreeMap/BTreeSet or \
                    sort explicitly before emission.",
    },
    RuleDoc {
        id: "instant-now",
        summary: "Instant::now() in deterministic code",
        scope: "deterministic crates, lib code",
        rationale: "Wall-clock reads let timing influence control flow (e.g. time-based \
                    budgets), breaking serial == parallel bitwise equality.",
    },
    RuleDoc {
        id: "system-time",
        summary: "SystemTime::now() in deterministic code",
        scope: "deterministic crates, lib code",
        rationale: "Same hazard as instant-now, plus host-clock dependence in outputs.",
    },
    RuleDoc {
        id: "env-read",
        summary: "environment variable read in deterministic code",
        scope: "deterministic crates, lib code",
        rationale: "env::var makes published bytes depend on ambient process state; \
                    configuration must flow through typed options structs.",
    },
    RuleDoc {
        id: "thread-id",
        summary: "thread::current() (thread identity) in deterministic code",
        scope: "deterministic crates, lib code",
        rationale: "Thread ids and names vary run to run; using them for ordering or \
                    keying breaks schedule independence.",
    },
    RuleDoc {
        id: "nondet-rng",
        summary: "OS-seeded randomness in deterministic code",
        scope: "deterministic crates, lib code",
        rationale: "thread_rng/from_entropy/rand::random/RandomState draw from the OS; \
                    only fixed-seed generators are allowed in the pipeline.",
    },
    RuleDoc {
        id: "unwrap-in-lib",
        summary: ".unwrap() in non-test library code",
        scope: "library crates (all but bench/datagen), lib code",
        rationale: "Panics abort whole integrations; recoverable paths must surface typed \
                    errors (ImpreciseError / IntegrateError). Proven-impossible cases need \
                    a lint:allow stating the invariant.",
    },
    RuleDoc {
        id: "expect-in-lib",
        summary: ".expect(..) in non-test library code",
        scope: "library crates (all but bench/datagen), lib code",
        rationale: "Same bar as unwrap-in-lib; an expect message is not an error path.",
    },
    RuleDoc {
        id: "panic-in-lib",
        summary: "panic!/unreachable!/todo!/unimplemented! in non-test library code",
        scope: "library crates (all but bench/datagen), lib code",
        rationale: "Explicit panics in reachable code must become typed errors; genuinely \
                    unreachable arms need a lint:allow naming the exhaustiveness argument.",
    },
    RuleDoc {
        id: "float-accumulation",
        summary: "float sum/fold outside the canonical-order helpers",
        scope: "crates/integrate/src/matching.rs and merge.rs only",
        rationale: "f64 addition is not associative: summing weights in a data-dependent \
                    order can flip low bits and thus fingerprints. Accumulations in the \
                    matcher/merger must run over canonically ordered sequences and say so.",
    },
    RuleDoc {
        id: "partial-cmp-sort",
        summary: "partial_cmp inside a sort/max/min comparator",
        scope: "deterministic crates, lib code",
        rationale: "partial_cmp(..).unwrap()/expect() panics on NaN and invites unwrap \
                    noise; comparators over f64 must use total_cmp.",
    },
    RuleDoc {
        id: "scope-shared-mutation",
        summary: "locks/interior mutability inside thread::scope",
        scope: "deterministic crates, lib code",
        rationale: "Parallel stages must follow the deterministic-reassembly pattern \
                    (atomic work counter + channel + reassembly in index order). Locks, \
                    RefCell, or unsafe inside thread::scope let worker timing leak into \
                    results.",
    },
    RuleDoc {
        id: "print-in-lib",
        summary: "println!/eprintln!/dbg! in deterministic library code",
        scope: "deterministic crates, lib code",
        rationale: "Library code must not write to stdio: interleaved worker output is \
                    nondeterministic and corrupts machine-read pipelines.",
    },
    RuleDoc {
        id: "unused-allow",
        summary: "lint:allow directive that suppresses nothing",
        scope: "everywhere the lint runs",
        rationale: "Stale allows hide future regressions: if the hazard is gone the \
                    escape hatch must go with it. (Also fires on allows naming unknown \
                    rules and on allows missing a reason.)",
    },
];

pub fn rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|r| r.id).collect()
}

struct Ctx<'a> {
    role: &'a FileRole,
    scrubbed: &'a Scrubbed,
    findings: Vec<Finding>,
}

impl Ctx<'_> {
    fn push(&mut self, rule: &'static str, line: usize, message: String) {
        self.findings.push(Finding {
            rule: rule.to_owned(),
            path: self.role.rel_path.clone(),
            line,
            message,
            allowed: None,
        });
    }
}

/// Run every applicable rule over one scrubbed file, then resolve
/// `lint:allow` directives (marking findings allowed, flagging unused
/// or malformed directives).
pub fn check_file(role: &FileRole, scrubbed: &Scrubbed) -> Vec<Finding> {
    let mut ctx = Ctx {
        role,
        scrubbed,
        findings: Vec::new(),
    };

    let deterministic = !role.is_bin && DETERMINISTIC_CRATES.contains(&role.crate_name.as_str());
    let robust = !role.is_bin && ROBUST_CRATES.contains(&role.crate_name.as_str());

    if deterministic {
        hash_iteration(&mut ctx);
        simple_needles(
            &mut ctx,
            &[
                ("instant-now", &["Instant::now"][..], "wall-clock read"),
                ("system-time", &["SystemTime::now"], "system clock read"),
                ("env-read", &["env::var", "env::vars"], "environment read"),
                ("thread-id", &["thread::current"], "thread-identity read"),
                (
                    "nondet-rng",
                    &["thread_rng", "from_entropy", "rand::random", "RandomState"],
                    "OS-seeded randomness",
                ),
                (
                    "print-in-lib",
                    &["println!(", "eprintln!(", "print!(", "eprint!(", "dbg!("],
                    "stdio write in library code",
                ),
            ],
        );
        partial_cmp_sort(&mut ctx);
        scope_shared_mutation(&mut ctx);
    }
    if robust {
        simple_needles(
            &mut ctx,
            &[
                (
                    "unwrap-in-lib",
                    &[".unwrap()"][..],
                    "unwrap in library code",
                ),
                // The string-literal argument distinguishes
                // Option/Result::expect from same-named combinators
                // (xmlkit's `Parser::expect(b'>')` returns a Result).
                ("expect-in-lib", &[".expect(\""], "expect in library code"),
                (
                    "panic-in-lib",
                    &["panic!(", "unreachable!(", "todo!(", "unimplemented!("],
                    "explicit panic in library code",
                ),
            ],
        );
    }
    if role.rel_path.ends_with("integrate/src/matching.rs")
        || role.rel_path.ends_with("integrate/src/merge.rs")
    {
        float_accumulation(&mut ctx);
    }
    let mut findings = ctx.findings;
    apply_allows(role, scrubbed, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    findings
}

/// Substring rules: each `(rule, needles, label)` fires once per line
/// containing any needle.
fn simple_needles(ctx: &mut Ctx<'_>, table: &[(&'static str, &[&str], &str)]) {
    for (idx, line) in ctx.scrubbed.lines.iter().enumerate() {
        for (rule, needles, label) in table {
            for needle in *needles {
                if let Some(col) = line.find(needle) {
                    // `panic!` must not fire on `debug_assert!`-expanded
                    // text or on macro *definitions*; substring scope is
                    // enough for this codebase.
                    ctx.push(rule, idx + 1, format!("{label}: `{}`", snippet(line, col)));
                    break;
                }
            }
        }
    }
}

/// Identifiers declared as HashMap/HashSet in this file, then iterated.
fn hash_iteration(ctx: &mut Ctx<'_>) {
    let mut names: Vec<String> = Vec::new();
    for line in &ctx.scrubbed.lines {
        for ty in ["HashMap", "HashSet"] {
            let mut rest = line.as_str();
            while let Some(pos) = rest.find(ty) {
                let before = &rest[..pos];
                if let Some(name) = declared_name(before) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
                rest = &rest[pos + ty.len()..];
            }
        }
    }
    const ITER_METHODS: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".into_iter()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_keys()",
        ".into_values()",
        ".drain(",
        ".retain(",
    ];
    for (idx, line) in ctx.scrubbed.lines.iter().enumerate() {
        for name in &names {
            for m in ITER_METHODS {
                let needle = format!("{name}{m}");
                if find_word_start(line, &needle).is_some() {
                    ctx.push(
                        "hash-iteration",
                        idx + 1,
                        format!("iteration over hash-ordered `{name}` via `{m}`"),
                    );
                }
            }
            // `for x in name` / `for x in &name` / `for x in &mut name`
            if line.contains("for ") {
                for pat in [
                    format!(" in {name}"),
                    format!(" in &{name}"),
                    format!(" in &mut {name}"),
                ] {
                    if let Some(pos) = line.find(&pat) {
                        let end = pos + pat.len();
                        let boundary = line[end..]
                            .chars()
                            .next()
                            .map(|c| !c.is_alphanumeric() && c != '_')
                            .unwrap_or(true);
                        if boundary {
                            ctx.push(
                                "hash-iteration",
                                idx + 1,
                                format!("for-loop over hash-ordered `{name}`"),
                            );
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// Given the text before a `HashMap`/`HashSet` occurrence, pull out the
/// identifier being declared with it: `let [mut] NAME =`, `NAME:`
/// (binding, field, or parameter), or `NAME = `.
fn declared_name(before: &str) -> Option<String> {
    let trimmed = before.trim_end();
    let trimmed = trimmed
        .strip_suffix('=')
        .or_else(|| trimmed.strip_suffix(':'))?
        .trim_end();
    // Drop generic/reference sugar between the name and the type.
    let trimmed = trimmed.trim_end_matches(['&', '<', ' ']);
    let name: String = trimmed
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    // Skip type positions like `pub fn f() -> HashMap<..>`.
    if name == "mut" || name == "dyn" || name == "impl" {
        return None;
    }
    Some(name)
}

/// `partial_cmp` used to order things: flag when a sort/max/min
/// combinator appears on the same or the three preceding lines.
fn partial_cmp_sort(ctx: &mut Ctx<'_>) {
    const ORDER_WORDS: &[&str] = &[
        "sort_by",
        "sort_unstable_by",
        "max_by",
        "min_by",
        "binary_search_by",
    ];
    for (idx, line) in ctx.scrubbed.lines.iter().enumerate() {
        let Some(col) = line.find(".partial_cmp(") else {
            continue;
        };
        let lo = idx.saturating_sub(3);
        let near_sort = ctx.scrubbed.lines[lo..=idx]
            .iter()
            .any(|l| ORDER_WORDS.iter().any(|w| l.contains(w)));
        if near_sort {
            ctx.push(
                "partial-cmp-sort",
                idx + 1,
                format!(
                    "comparator uses partial_cmp (use total_cmp): `{}`",
                    snippet(line, col)
                ),
            );
        }
    }
}

/// Inside `thread::scope(..)` regions, flag shared-state mutation
/// primitives that bypass the deterministic-reassembly pattern.
fn scope_shared_mutation(ctx: &mut Ctx<'_>) {
    const HAZARDS: &[&str] = &[
        ".lock()",
        ".write()",
        ".read()",
        "RefCell",
        "UnsafeCell",
        "unsafe ",
        "static mut",
    ];
    let lines = &ctx.scrubbed.lines;
    let mut idx = 0usize;
    while idx < lines.len() {
        let Some(col) = lines[idx].find("thread::scope(") else {
            idx += 1;
            continue;
        };
        // Parenthesis-match from the `(` to find the region's extent.
        let mut depth = 0usize;
        let mut li = idx;
        let mut ci = col + "thread::scope".len();
        let end_line;
        'scan: loop {
            let chars: Vec<char> = lines[li].chars().collect();
            while ci < chars.len() {
                match chars[ci] {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            end_line = li;
                            break 'scan;
                        }
                    }
                    _ => {}
                }
                ci += 1;
            }
            li += 1;
            ci = 0;
            if li >= lines.len() {
                end_line = lines.len() - 1;
                break;
            }
        }
        for (off, line) in lines[idx..=end_line].iter().enumerate() {
            for h in HAZARDS {
                if let Some(c) = line.find(h) {
                    ctx.push(
                        "scope-shared-mutation",
                        idx + off + 1,
                        format!(
                            "`{}` inside thread::scope — use the work-counter + channel \
                             reassembly pattern",
                            snippet(line, c)
                        ),
                    );
                }
            }
        }
        idx = end_line + 1;
    }
}

/// Float accumulation in the matcher/merger: every f64 sum/fold must be
/// over a canonically ordered sequence and annotated to say which one.
fn float_accumulation(ctx: &mut Ctx<'_>) {
    for (idx, line) in ctx.scrubbed.lines.iter().enumerate() {
        let hit = line.contains(".sum::<f64>()")
            || (line.contains(".sum()") && line.contains("f64"))
            || line.contains("fold(0.0")
            || line.contains("fold(0f64")
            || line.contains("fold(0_f64");
        if hit {
            let col = line
                .find(".sum")
                .or_else(|| line.find("fold(0"))
                .unwrap_or(0);
            ctx.push(
                "float-accumulation",
                idx + 1,
                format!(
                    "float accumulation; justify the canonical order: `{}`",
                    snippet(line, col)
                ),
            );
        }
    }
}

/// Match allow directives to findings. Unused / malformed directives
/// become `unused-allow` findings themselves.
fn apply_allows(role: &FileRole, scrubbed: &Scrubbed, findings: &mut Vec<Finding>) {
    let known = rule_ids();
    let mut used = vec![false; scrubbed.allows.len()];
    for f in findings.iter_mut() {
        for (ai, a) in scrubbed.allows.iter().enumerate() {
            if a.target_line == f.line && a.rule == f.rule && !a.reason.is_empty() {
                f.allowed = Some(a.reason.clone());
                used[ai] = true;
            }
        }
    }
    for (ai, a) in scrubbed.allows.iter().enumerate() {
        let problem = if !known.contains(&a.rule.as_str()) {
            Some(format!("allow names unknown rule `{}`", a.rule))
        } else if a.reason.is_empty() {
            Some(format!("allow for `{}` is missing a reason", a.rule))
        } else if !used[ai] {
            Some(format!(
                "allow for `{}` matches no finding on line {}",
                a.rule, a.target_line
            ))
        } else {
            None
        };
        if let Some(message) = problem {
            findings.push(Finding {
                rule: "unused-allow".to_owned(),
                path: role.rel_path.clone(),
                line: a.comment_line,
                message,
                allowed: None,
            });
        }
    }
}

fn find_word_start(line: &str, needle: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(pos) = line[from..].find(needle) {
        let abs = from + pos;
        let ok = abs == 0
            || line[..abs]
                .chars()
                .next_back()
                .map(|c| !c.is_alphanumeric() && c != '_' && c != '.')
                .unwrap_or(true);
        if ok {
            return Some(abs);
        }
        from = abs + needle.len();
    }
    None
}

fn snippet(line: &str, col: usize) -> String {
    let s = line[col.min(line.len())..].trim();
    let cut: String = s.chars().take(48).collect();
    if cut.len() < s.len() {
        format!("{cut}…")
    } else {
        cut
    }
}
