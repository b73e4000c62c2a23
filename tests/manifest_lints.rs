//! Every manifest of the workspace — the root package, each crate and
//! each shim — opts into the shared `[workspace.lints]` table, so
//! `warnings = "deny"` and the curated clippy set apply to all of them.

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
