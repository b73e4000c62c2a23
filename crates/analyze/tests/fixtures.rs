//! Per-rule fixture tests: each rule must fire on an injected violation
//! (positive) and stay silent on the compliant variant (negative).
//!
//! Fixtures are written as string literals into a temp workspace and
//! analyzed via `Config { root }`.

use std::path::Path;

#[allow(
    clippy::disallowed_methods,
    reason = "the analyzer walks the source tree and reads manifests; Vfs::read_dir lists plain files only (no recursion) and tooling must not depend on the storage seam it audits"
)]
fn ws(files: &[(&str, &str)]) -> tempfile::TempDir {
    let dir = tempfile::tempdir().unwrap();
    for (rel, body) in files {
        let p = dir.path().join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(&p, body).unwrap();
    }
    dir
}

fn run_rules(root: &Path, rules: &[&str]) -> analyze::Report {
    let cfg = analyze::Config {
        root: root.to_path_buf(),
        only: rules.iter().map(|s| s.to_string()).collect(),
    };
    analyze::run(&cfg).unwrap()
}

// ---------------------------------------------------------------- lock-order

const LOCKS_HEADER: &str = r#"
use std::sync::Mutex;
pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}
"#;

#[test]
fn lock_order_catches_ab_ba_inversion_with_witness() {
    let body = format!(
        "{LOCKS_HEADER}
impl S {{
    pub fn ab(&self) -> u32 {{
        let ga = self.a.lock().ok();
        let gb = self.b.lock().ok();
        ga.is_some() as u32 + gb.is_some() as u32
    }}
    pub fn ba(&self) -> u32 {{
        let gb = self.b.lock().ok();
        let ga = self.a.lock().ok();
        ga.is_some() as u32 + gb.is_some() as u32
    }}
}}
"
    );
    let dir = ws(&[("crates/core/src/lib.rs", &body)]);
    let r = run_rules(dir.path(), &["lock-order"]);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, "lock-order");
    assert!(f.message.contains("lock-order cycle"), "{}", f.message);
    // The witness names both edges with their acquisition sites.
    assert!(f.message.contains("core::a -> core::b"), "{}", f.message);
    assert!(f.message.contains("core::b -> core::a"), "{}", f.message);
    assert!(
        f.message.contains("crates/core/src/lib.rs"),
        "{}",
        f.message
    );
}

#[test]
fn lock_order_consistent_nesting_is_clean() {
    let body = format!(
        "{LOCKS_HEADER}
impl S {{
    pub fn ab(&self) -> u32 {{
        let ga = self.a.lock().ok();
        let gb = self.b.lock().ok();
        ga.is_some() as u32 + gb.is_some() as u32
    }}
    pub fn ab2(&self) -> u32 {{
        let ga = self.a.lock().ok();
        let gb = self.b.lock().ok();
        gb.is_some() as u32 + ga.is_some() as u32
    }}
}}
"
    );
    let dir = ws(&[("crates/core/src/lib.rs", &body)]);
    let r = run_rules(dir.path(), &["lock-order"]);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn lock_order_sees_inversion_through_a_call() {
    // ab() holds a and calls helper() which takes b; ba() nests b then a
    // directly. The cycle only exists through the call graph.
    let body = format!(
        "{LOCKS_HEADER}
impl S {{
    pub fn ab(&self) -> u32 {{
        let ga = self.a.lock().ok();
        let n = self.helper();
        ga.is_some() as u32 + n
    }}
    fn helper(&self) -> u32 {{
        let gb = self.b.lock().ok();
        gb.is_some() as u32
    }}
    pub fn ba(&self) -> u32 {{
        let gb = self.b.lock().ok();
        let ga = self.a.lock().ok();
        ga.is_some() as u32 + gb.is_some() as u32
    }}
}}
"
    );
    let dir = ws(&[("crates/core/src/lib.rs", &body)]);
    let r = run_rules(dir.path(), &["lock-order"]);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert!(
        r.findings[0].message.contains("via call"),
        "{}",
        r.findings[0].message
    );
}

#[test]
fn lock_order_dropped_guard_breaks_the_edge() {
    // The double-checked pattern: the first guard is a scrutinee
    // temporary that dies before the second acquisition.
    let body = format!(
        "{LOCKS_HEADER}
impl S {{
    pub fn ab(&self) -> u32 {{
        let ga = self.a.lock().ok();
        let gb = self.b.lock().ok();
        ga.is_some() as u32 + gb.is_some() as u32
    }}
    pub fn double_checked(&self) -> u32 {{
        if let Ok(g) = self.b.lock() {{
            if *g > 0 {{
                return *g;
            }}
        }}
        let ga = self.a.lock().ok();
        ga.is_some() as u32
    }}
}}
"
    );
    let dir = ws(&[("crates/core/src/lib.rs", &body)]);
    let r = run_rules(dir.path(), &["lock-order"]);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

// -------------------------------------------------------------- budget-loops

#[test]
fn budget_loops_flags_unchecked_loop_on_exec_path() {
    let dir = ws(&[(
        "crates/query/src/exec.rs",
        r#"
pub fn drain(items: &[u32]) -> u32 {
    let mut total = 0;
    for _ in 0..1 {}
    while total < 100 {
        total += items.len() as u32;
    }
    total
}
"#,
    )]);
    let r = run_rules(dir.path(), &["budget-loops"]);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert_eq!(r.findings[0].rule, "budget-loops");
    assert_eq!(r.findings[0].line, 5);
    assert!(r.findings[0].message.contains("ExecBudget"));
}

#[test]
fn budget_loops_accepts_direct_and_transitive_checks() {
    let dir = ws(&[(
        "crates/query/src/exec.rs",
        r#"
fn check_budget() -> bool { true }
fn step() -> bool { check_budget() }
pub fn drain_direct(n: u32) -> u32 {
    let mut total = 0;
    while total < n {
        if !check_budget() { break; }
        total += 1;
    }
    total
}
pub fn drain_via_helper(n: u32) -> u32 {
    let mut total = 0;
    loop {
        if !step() { break; }
        total += 1;
        if total >= n { break; }
    }
    total
}
"#,
    )]);
    let r = run_rules(dir.path(), &["budget-loops"]);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn budget_loops_ignores_files_off_the_exec_path() {
    let dir = ws(&[(
        "crates/query/src/parse.rs",
        r#"
pub fn count(n: u32) -> u32 {
    let mut total = 0;
    while total < n { total += 1; }
    total
}
"#,
    )]);
    let r = run_rules(dir.path(), &["budget-loops"]);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

// ------------------------------------------------------------ manifest-lints

#[test]
fn manifest_without_workspace_lints_is_flagged() {
    let dir = ws(&[
        (
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/*\"]\n\n[lints]\nworkspace = true\n",
        ),
        (
            "crates/good/Cargo.toml",
            "[package]\nname = \"good\"\n\n[lints]\nworkspace = true\n",
        ),
        ("crates/bad/Cargo.toml", "[package]\nname = \"bad\"\n"),
    ]);
    let r = run_rules(dir.path(), &["manifest-lints"]);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert_eq!(r.findings[0].path, "crates/bad/Cargo.toml");
}

// --------------------------------------------------------------- self-check

#[test]
fn workspace_self_check_is_clean() {
    // The real workspace (two levels up from this crate) must analyze
    // clean.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let r = analyze::run(&analyze::Config::new(root)).unwrap();
    assert!(
        r.findings.is_empty(),
        "workspace has findings:\n{}",
        r.render_human()
    );
    assert!(r.files_scanned > 100, "suspiciously few files scanned");
}

#[test]
fn json_output_is_well_formed_enough() {
    let dir = ws(&[(
        "crates/query/src/exec.rs",
        "pub fn spin(n: u32) -> u32 { let mut t = 0; while t < n { t += 1; } t }\n",
    )]);
    let r = run_rules(dir.path(), &["budget-loops"]);
    let js = r.render_json();
    assert!(js.contains("\"rule\": \"budget-loops\""), "{js}");
    assert!(js.contains("\"clean\": false"), "{js}");
}
