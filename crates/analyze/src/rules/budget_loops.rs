//! **budget-loops** — `loop` / `while` bodies on the query execution
//! path must reach an `ExecBudget` check, so a drain or per-request
//! deadline can cancel any long-running request at a loop boundary
//! (DESIGN.md §11). A loop passes if its body (at any nesting depth)
//! calls `check_budget` directly, mentions `ExecBudget`, or calls
//! another execution-path function that transitively does.

use super::{Finding, Rule};
use crate::lexer::Token;
use crate::workspace::{FileKind, Workspace};
use std::collections::HashSet;

/// Execution-path files: every interpreter/executor loop lives here.
/// Parser/lexer loops are bounded by input length and run before a
/// request is admitted to execution, so they are out of scope.
const EXEC_FILES: &[(&str, &str)] = &[("query", "src/exec.rs"), ("query", "src/bind.rs")];

pub struct BudgetLoops;

impl Rule for BudgetLoops {
    fn id(&self) -> &'static str {
        "budget-loops"
    }

    fn describe(&self) -> &'static str {
        "query execution loops must reach an ExecBudget check"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            let in_scope = file.kind == FileKind::Lib
                && EXEC_FILES
                    .iter()
                    .any(|(c, f)| file.crate_name == *c && file.rel_path.ends_with(f));
            if !in_scope {
                continue;
            }
            check_file(file, out);
        }
    }
}

fn check_file(file: &crate::workspace::SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;

    // Functions in this file that check the budget somewhere in their
    // body — a loop that calls one of these is budgeted. Computed as a
    // fixpoint so helpers that merely call `check_budget` through
    // another helper still count.
    let mut budgeted: HashSet<String> = HashSet::new();
    loop {
        let mut changed = false;
        for f in &file.syntax.fns {
            if budgeted.contains(&f.name) {
                continue;
            }
            if body_checks_budget(&toks[f.body.0..f.body.1], &budgeted) {
                budgeted.insert(f.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for f in &file.syntax.fns {
        if f.is_test {
            continue;
        }
        let (b0, b1) = f.body;
        let mut i = b0;
        while i < b1 {
            let t = &toks[i];
            if t.is_ident("loop") || t.is_ident("while") {
                if let Some(open) = loop_body_open(toks, i, b1) {
                    let close = crate::syntax::matching_brace(toks, open);
                    if !body_checks_budget(&toks[open + 1..close.min(b1)], &budgeted) {
                        out.push(Finding {
                            rule: "budget-loops",
                            path: file.rel_path.clone(),
                            line: t.line,
                            message: format!(
                                "`{}` body in `{}` never reaches an ExecBudget check (call check_budget() at the loop boundary)",
                                t.ident().unwrap_or("loop"),
                                f.name
                            ),
                            key: format!("{}:{}", f.name, t.line),
                        });
                    }
                    // Nested loops are scanned on their own as `i`
                    // advances; an inner unbudgeted loop inside a
                    // budgeted outer one must still be flagged only if
                    // the *inner body* lacks a check — which the
                    // per-loop scan above already decides.
                }
            }
            i += 1;
        }
    }
}

/// Whether a body slice reaches a budget check: a `check_budget` call, an
/// `ExecBudget` mention, or a call to a known-budgeted local function.
fn body_checks_budget(body: &[Token], budgeted: &HashSet<String>) -> bool {
    for (i, t) in body.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if id == "check_budget" || id == "ExecBudget" {
            return true;
        }
        // `name(` or `.name(` call to a budgeted sibling.
        if budgeted.contains(id) && body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            return true;
        }
    }
    false
}

/// Index of the `{` opening the body of the loop whose keyword is at
/// `kw`, or None. Tracks paren/bracket depth through the condition;
/// turbofish `::<…>` angles are skipped explicitly (bare `<` in a
/// condition is a comparison, not a generic).
fn loop_body_open(toks: &[Token], kw: usize, end: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = kw + 1;
    while i < end {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(':')
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('<'))
        {
            // turbofish: skip to the matching `>`.
            let mut angle = 0i64;
            i += 2;
            while i < end {
                if toks[i].is_punct('<') {
                    angle += 1;
                } else if toks[i].is_punct('>') {
                    angle -= 1;
                    if angle == 0 {
                        break;
                    }
                }
                i += 1;
            }
        } else if depth == 0 && t.is_punct('{') {
            return Some(i);
        }
        i += 1;
    }
    None
}
