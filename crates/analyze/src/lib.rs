//! # aion-analyze — syntax-tree invariant analyzer for the workspace
//!
//! The checks no standard tool makes, as a rule registry over lexed +
//! structurally parsed library sources (DESIGN.md §12). Driven by
//! `cargo xtask analyze`.
//!
//! Rules:
//!
//! * **lock-order** — the global Mutex/RwLock graph must be acyclic;
//!   cycles fail with a witness path.
//! * **budget-loops** — query-execution loops must reach an `ExecBudget`
//!   check.
//!
//! Plus a non-AST **manifest-lints** audit: every crate manifest must opt
//! into `[lints] workspace = true`.
//!
//! The storage seam, panic-freedom and `// SAFETY:` comments are clippy
//! lints (`clippy.toml`, the crate-root `deny`s and `[workspace.lints]`).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::path::{Path, PathBuf};

pub mod lexer;
pub mod rules;
pub mod syntax;
pub mod workspace;

pub use rules::{Finding, Rule};
pub use workspace::Workspace;

/// What to analyze.
pub struct Config {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Run only these rule ids (empty = all).
    pub only: Vec<String>,
}

impl Config {
    /// All rules over `root`.
    pub fn new(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            only: Vec::new(),
        }
    }
}

/// Analysis output.
#[derive(Debug)]
pub struct Report {
    /// Findings — any entry here means the gate fails.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the gate passes.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "analyze: {} finding(s), {} file(s) scanned\n",
            self.findings.len(),
            self.files_scanned
        ));
        out
    }

    /// JSON rendering (hand-rolled — the workspace vendors no serde).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"key\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.path),
                f.line,
                json_str(&f.key),
                json_str(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.is_clean()
        ));
        out
    }
}

/// Runs the configured rules over the workspace.
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    let ws = workspace::load(&cfg.root)?;
    let mut findings: Vec<Finding> = Vec::new();
    for rule in rules::all() {
        if !cfg.only.is_empty() && !cfg.only.iter().any(|r| r == rule.id()) {
            continue;
        }
        rule.check(&ws, &mut findings);
    }
    if cfg.only.is_empty() || cfg.only.iter().any(|r| r == "manifest-lints") {
        manifest_lints(&cfg.root, &mut findings)?;
    }
    findings.sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));
    Ok(Report {
        findings,
        files_scanned: ws.files.len(),
    })
}

/// Ported manifest audit: every crate manifest opts into the shared
/// `[workspace.lints]` table so `warnings = "deny"` and the curated
/// clippy set apply uniformly. Shims are vendored stand-ins and exempt.
#[allow(
    clippy::disallowed_methods,
    reason = "the analyzer walks the source tree and reads manifests; Vfs::read_dir lists plain files only (no recursion) and tooling must not depend on the storage seam it audits"
)]
fn manifest_lints(root: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    let mut manifests: Vec<PathBuf> = [root.join("Cargo.toml"), root.join("xtask/Cargo.toml")]
        .into_iter()
        .filter(|p| p.is_file())
        .collect();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let manifest = entry?.path().join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    manifests.sort();
    for m in manifests {
        let body = std::fs::read_to_string(&m)?;
        if !manifest_opts_into_workspace_lints(&body) {
            let rel = m
                .strip_prefix(root)
                .unwrap_or(&m)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(Finding {
                rule: "manifest-lints",
                path: rel,
                line: 1,
                message:
                    "missing `[lints] workspace = true` (required for the workspace lint gate)"
                        .to_string(),
                key: "lints".to_string(),
            });
        }
    }
    Ok(())
}

fn manifest_opts_into_workspace_lints(body: &str) -> bool {
    let mut in_lints = false;
    for line in body.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// Rule catalogue: `(id, description)` for every registered rule.
pub fn catalogue() -> Vec<(&'static str, &'static str)> {
    let mut v: Vec<(&'static str, &'static str)> = rules::all()
        .iter()
        .map(|r| (r.id(), r.describe()))
        .collect();
    v.push((
        "manifest-lints",
        "every crate manifest opts into [workspace.lints]",
    ));
    v
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
