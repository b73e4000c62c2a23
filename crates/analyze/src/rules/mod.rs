//! The rule registry. Each rule inspects the loaded [`Workspace`] and
//! emits [`Finding`]s carrying a stable `key`.

use crate::workspace::Workspace;

pub mod budget_loops;
pub mod lock_order;

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`lock-order`, `budget-loops`, `manifest-lints`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Stable machine-matchable key (lock edge, function and line, …).
    pub key: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// A workspace invariant checker.
pub trait Rule {
    /// Stable rule id used in output and by `--rule`.
    fn id(&self) -> &'static str;
    /// One-line description for `--list`.
    fn describe(&self) -> &'static str;
    /// Runs the rule, appending findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Every rule, in reporting order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(lock_order::LockOrder),
        Box::new(budget_loops::BudgetLoops),
    ]
}
