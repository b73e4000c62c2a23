//! Loads the workspace's library sources into lexed + parsed form.
//!
//! Scope: `src/**` of every crate under `crates/` and of the root
//! package, without `src/bin/**`. Binaries, `tests/`, `xtask`, vendored
//! dependency shims (`shims/`), `examples/` and `target/` are outside
//! every rule's scope and are never read.

use crate::lexer::{self, Token};
use crate::syntax::{self, Syntax};
use std::path::{Path, PathBuf};

/// One loaded library source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Owning crate's short name (`timestore`, `aion-suite`).
    pub crate_name: String,
    pub tokens: Vec<Token>,
    pub syntax: Syntax,
}

/// The loaded workspace.
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

/// Reads and parses every in-scope `.rs` file under `root`.
#[allow(
    clippy::disallowed_methods,
    reason = "the analyzer walks the source tree and reads manifests; Vfs::read_dir lists plain files only (no recursion) and tooling must not depend on the storage seam it audits"
)]
pub fn load(root: &Path) -> std::io::Result<Workspace> {
    let mut files = Vec::new();

    // Crates under crates/.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            load_crate(root, &dir, &name, &mut files)?;
        }
    }

    // Root package.
    load_crate(root, root, "aion-suite", &mut files)?;

    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(Workspace { files })
}

/// Loads `dir/src/**` minus `src/bin/**`.
#[allow(
    clippy::disallowed_methods,
    reason = "the analyzer walks the source tree and reads manifests; Vfs::read_dir lists plain files only (no recursion) and tooling must not depend on the storage seam it audits"
)]
fn load_crate(
    root: &Path,
    dir: &Path,
    name: &str,
    files: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    let mut stack = vec![dir.join("src")];
    while let Some(d) = stack.pop() {
        if !d.is_dir() || d.ends_with("src/bin") {
            continue;
        }
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&d)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let body = std::fs::read_to_string(&path)?;
                let tokens = lexer::lex(&body);
                let syntax = syntax::parse(&tokens);
                files.push(SourceFile {
                    rel_path: path
                        .strip_prefix(root)
                        .unwrap_or(&path)
                        .to_string_lossy()
                        .replace('\\', "/"),
                    crate_name: name.to_string(),
                    tokens,
                    syntax,
                });
            }
        }
    }
    Ok(())
}
