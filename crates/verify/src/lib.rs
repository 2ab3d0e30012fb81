//! `imprecise-verify` — the correctness-tooling crate.
//!
//! Home of **`imprecise-lint`**, a dependency-free static pass that
//! scans the workspace's library code for determinism and robustness
//! hazards before they can break the pipeline's bit-identical
//! guarantees (serial == parallel, budgeted-then-refined == one-shot,
//! splice/compact invisible to fingerprints).
//!
//! The design is deliberately modest: a hand-rolled scanner blanks
//! comments, string literals, and `#[cfg(test)]` modules
//! ([`scrub`]), then substring-level rules ([`rules`]) run over the
//! remaining code text. That is not a type checker — it cannot prove
//! absence of nondeterminism — but it reliably catches the textual
//! shapes every known hazard class in this codebase takes, and it
//! runs in milliseconds with zero dependencies.
//!
//! Suppressions are inline and must carry a reason:
//!
//! ```text
//! let root = doc.root(); // lint:allow(expect-in-lib, parser guarantees a root)
//! ```
//!
//! A standalone `// lint:allow(rule, reason)` comment applies to the
//! next code line. Unused or reason-less allows are findings
//! themselves (`unused-allow`), so the allowlist can only shrink.

#![forbid(unsafe_code)]

pub mod rules;
pub mod scrub;

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding, allowed or not.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// `Some(reason)` when a `lint:allow` suppressed this finding.
    pub allowed: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.allowed {
            Some(reason) => write!(
                f,
                "{}:{}: [{}] allowed ({reason}): {}",
                self.path, self.line, self.rule, self.message
            ),
            None => write!(
                f,
                "{}:{}: [{}] {}",
                self.path, self.line, self.rule, self.message
            ),
        }
    }
}

/// Where a file sits in the workspace — drives rule applicability.
#[derive(Debug, Clone)]
pub struct FileRole {
    pub rel_path: String,
    pub crate_name: String,
    pub is_bin: bool,
}

impl FileRole {
    /// Classify a workspace-relative path like
    /// `crates/integrate/src/matching.rs`.
    pub fn from_rel_path(rel: &str) -> FileRole {
        let rel = rel.replace('\\', "/");
        let mut crate_name = String::new();
        if let Some(rest) = rel.strip_prefix("crates/") {
            if let Some((name, _)) = rest.split_once('/') {
                crate_name = name.to_owned();
            }
        }
        let is_bin = rel.contains("/src/bin/") || rel.ends_with("/main.rs");
        FileRole {
            rel_path: rel,
            crate_name,
            is_bin,
        }
    }
}

/// Lint one source text as if it lived at `rel_path`. This is the seam
/// the fixture self-tests use.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let role = FileRole::from_rel_path(rel_path);
    let scrubbed = scrub::scrub(source);
    rules::check_file(&role, &scrubbed)
}

/// Errors from the filesystem walk.
#[derive(Debug)]
pub struct LintIoError {
    pub path: PathBuf,
    pub source: std::io::Error,
}

impl fmt::Display for LintIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lint: cannot read {}: {}",
            self.path.display(),
            self.source
        )
    }
}

/// Collect every `crates/*/src/**/*.rs` under `root`, sorted for
/// deterministic report order. The `shims/` stand-ins and the lint's
/// own `fixtures/` corpus are outside this glob by construction.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, LintIoError> {
    let crates_dir = root.join("crates");
    let mut crate_dirs = Vec::new();
    let entries = std::fs::read_dir(&crates_dir).map_err(|source| LintIoError {
        path: crates_dir.clone(),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| LintIoError {
            path: crates_dir.clone(),
            source,
        })?;
        let src = entry.path().join("src");
        if src.is_dir() {
            crate_dirs.push(src);
        }
    }
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        collect_rs(&dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintIoError> {
    let entries = std::fs::read_dir(dir).map_err(|source| LintIoError {
        path: dir.to_owned(),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| LintIoError {
            path: dir.to_owned(),
            source,
        })?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, LintIoError> {
    let mut findings = Vec::new();
    for path in workspace_sources(root)? {
        let source = std::fs::read_to_string(&path).map_err(|source| LintIoError {
            path: path.clone(),
            source,
        })?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_source(&rel, &source));
    }
    Ok(findings)
}

/// Walk up from `start` to the directory holding the workspace-level
/// `Cargo.toml` (the one with a `[workspace]` table).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_owned());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_owned);
    }
    None
}

/// Render findings as a JSON array (machine-readable report). No
/// serde in this workspace, so escaping is done by hand.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"rule\":\"{}\",", json_escape(&f.rule)));
        out.push_str(&format!("\"path\":\"{}\",", json_escape(&f.path)));
        out.push_str(&format!("\"line\":{},", f.line));
        out.push_str(&format!("\"message\":\"{}\",", json_escape(&f.message)));
        match &f.allowed {
            Some(reason) => {
                out.push_str(&format!("\"allowed\":\"{}\"", json_escape(reason)));
            }
            None => out.push_str("\"allowed\":null"),
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
