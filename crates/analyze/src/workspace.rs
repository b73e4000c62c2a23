//! Loads the workspace's Rust sources into lexed + parsed form.
//!
//! Scope: every crate under `crates/`, the `xtask` helper, the root
//! package (`src/`, `tests/`). Vendored dependency shims (`shims/`) and
//! `target/` are never scanned; `examples/` are demo code outside the
//! invariant surface.

use crate::lexer::{self, Lexed};
use crate::syntax::{self, Syntax};
use std::path::{Path, PathBuf};

/// What kind of compilation unit a file belongs to — rules scope
/// themselves by kind (e.g. panic-freedom covers library sources only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` of a library crate.
    Lib,
    /// `src/bin/**` or the source of a binary-only crate.
    Bin,
    /// `tests/**` integration tests.
    Test,
}

/// One loaded source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Owning crate's short name (`timestore`, `xtask`, `aion-suite`).
    pub crate_name: String,
    pub kind: FileKind,
    pub lexed: Lexed,
    pub syntax: Syntax,
}

/// The loaded workspace.
#[derive(Debug)]
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
}

/// Reads and parses every in-scope `.rs` file under `root`.
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

    // xtask (a binary-only crate).
    let xtask = root.join("xtask");
    if xtask.is_dir() {
        collect_rs(&xtask.join("src"), &mut |p, body| {
            push_file(root, p, "xtask", FileKind::Bin, body, &mut files);
        })?;
    }

    // Root package: src/ + tests/.
    load_crate(root, root, "aion-suite", &mut files)?;

    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(Workspace {
        root: root.to_path_buf(),
        files,
    })
}

fn load_crate(
    root: &Path,
    dir: &Path,
    name: &str,
    files: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    let src = dir.join("src");
    if src.is_dir() {
        collect_rs(&src, &mut |p, body| {
            let kind = if p.to_string_lossy().contains("/src/bin/") {
                FileKind::Bin
            } else {
                FileKind::Lib
            };
            push_file(root, p, name, kind, body, files);
        })?;
    }
    let tests = dir.join("tests");
    if tests.is_dir() {
        collect_rs(&tests, &mut |p, body| {
            push_file(root, p, name, FileKind::Test, body, files);
        })?;
    }
    Ok(())
}

fn push_file(
    root: &Path,
    path: &Path,
    crate_name: &str,
    kind: FileKind,
    body: &str,
    files: &mut Vec<SourceFile>,
) {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let lexed = lexer::lex(body);
    let syntax = syntax::parse(&lexed);
    files.push(SourceFile {
        rel_path: rel,
        crate_name: crate_name.to_string(),
        kind,
        lexed,
        syntax,
    });
}

/// Walks `dir` recursively, invoking `f` for every `.rs` file.
fn collect_rs(dir: &Path, f: &mut impl FnMut(&Path, &str)) -> std::io::Result<()> {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
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
                f(&path, &body);
            }
        }
    }
    Ok(())
}
