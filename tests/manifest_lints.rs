//! Every manifest of the workspace — the root package, each crate and
//! each shim — opts into the shared `[workspace.lints]` table, so
//! `warnings = "deny"` and the curated clippy set apply to all of them,
//! and lists under `[dependencies]` only crates its `src/` names: one that
//! only tests use belongs under `[dev-dependencies]`.

use std::path::{Path, PathBuf};

/// Whether `body` holds `workspace = true` in its `[lints]` table.
fn opts_into_workspace_lints(body: &str) -> bool {
    let mut in_lints = false;
    for line in body.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// The keys of `body`'s `[dependencies]` table.
fn dependency_keys(body: &str) -> Vec<&str> {
    let mut in_deps = false;
    let mut keys = Vec::new();
    for line in body.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            keys.extend(line.split(['=', '.']).next().map(str::trim));
        }
    }
    keys
}

/// Whether `source` names the crate `krate` as the root of a path
/// (`krate::…`, `use krate;`), not as a segment inside one
/// (`crate::krate::…`).
fn names_crate(source: &str, krate: &str) -> bool {
    source.match_indices(krate).any(|(at, _)| {
        let before = source[..at].chars().next_back();
        let after = &source[at + krate.len()..];
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':')
            && (after.starts_with("::") || after.starts_with(';'))
    })
}

/// The text of every `.rs` file under `dir`.
#[allow(
    clippy::disallowed_methods,
    reason = "walks the source tree, which no Vfs holds: Vfs::read_dir lists the plain files of one directory"
)]
fn sources(dir: &Path) -> String {
    let mut text = String::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            text += &sources(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            text += &std::fs::read_to_string(&path).unwrap();
        }
    }
    text
}

/// The root manifest and the manifest of every directory under `crates/`
/// and `shims/`.
#[allow(
    clippy::disallowed_methods,
    reason = "walks the source tree, which no Vfs holds: Vfs::read_dir lists the plain files of one directory"
)]
fn manifests(root: &Path) -> Vec<(PathBuf, String)> {
    let mut paths = vec![root.join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let manifest = entry.unwrap().path().join("Cargo.toml");
            if manifest.is_file() {
                paths.push(manifest);
            }
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let body = std::fs::read_to_string(&p).unwrap();
            (p, body)
        })
        .collect()
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let all = manifests(root);
    // The root, at least a dozen crates and the shims.
    assert!(all.len() > 20, "found only {} manifests", all.len());
    let missing: Vec<_> = all
        .iter()
        .filter(|(_, body)| !opts_into_workspace_lints(body))
        .map(|(path, _)| path.strip_prefix(root).unwrap_or(path).display())
        .collect();
    assert!(
        missing.is_empty(),
        "missing `[lints] workspace = true`: {missing:?}"
    );
}

#[test]
fn the_lints_table_is_recognised_only_with_workspace_true() {
    assert!(opts_into_workspace_lints(
        "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
    ));
    assert!(!opts_into_workspace_lints(
        "[package]\nworkspace = true\n[lints.rust]\nwarnings = \"deny\"\n"
    ));
    assert!(!opts_into_workspace_lints("[package]\nname = \"x\"\n"));
}

#[test]
fn every_dependency_is_named_in_its_crates_sources() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut unnamed = Vec::new();
    for (path, body) in manifests(root) {
        let source = sources(&path.with_file_name("src"));
        for key in dependency_keys(&body) {
            if !names_crate(&source, &key.replace('-', "_")) {
                let manifest = path.strip_prefix(root).unwrap_or(&path).display();
                unnamed.push(format!("{manifest}: {key}"));
            }
        }
    }
    assert!(
        unnamed.is_empty(),
        "`[dependencies]` that no file under `src/` names (drop them, or move them to `[dev-dependencies]`): {unnamed:?}"
    );
}

#[test]
fn dependencies_are_read_by_key_and_named_by_path_root() {
    let body = "[dependencies]\nlpg.workspace = true\naion-server = { path = \"x\" }\n\n\
                [dev-dependencies]\ntempfile.workspace = true\n";
    assert_eq!(dependency_keys(body), ["lpg", "aion-server"]);
    assert!(names_crate("use lpg::{NodeId};", "lpg"));
    assert!(names_crate("let v = lpg::NodeId::new(1);", "lpg"));
    assert!(names_crate("pub use lpg;", "lpg"));
    assert!(!names_crate("use crate::lpg::NodeId;", "lpg"));
    assert!(!names_crate("use my_lpg::NodeId;", "lpg"));
    assert!(!names_crate("// the lpg crate", "lpg"));
}
