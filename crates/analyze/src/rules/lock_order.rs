//! **lock-order** — the workspace-global lock acquisition graph must be
//! acyclic, or two threads can deadlock by acquiring the same pair of
//! locks in opposite orders.
//!
//! How it works, per non-test function in library sources:
//!
//! 1. **Acquisition sites.** `recv.lock()`, `recv.read()`, `recv.write()`
//!    with an *empty* argument list, where the final field of `recv` is
//!    declared as a `Mutex`/`RwLock` somewhere in the same crate. The
//!    lock's identity is `crate::field` — `self.state.lock()` in
//!    `timestore` and `log.end.lock()` both normalize to stable names.
//! 2. **Guard liveness.** A `let g = ….lock();` guard lives to the end of
//!    its enclosing block (or an explicit `drop(g)`); a temporary like
//!    `self.stats.lock().updates += 1` dies at its statement's `;`.
//! 3. **Held-scope edges.** While guard A is live, acquiring B adds edge
//!    A→B. Calls made while A is live add A→B for every lock B the
//!    callee may (transitively) acquire; calls resolve conservatively —
//!    `self.helper()` to same-type methods, otherwise only when the name
//!    is workspace-unique and not a common std name. Guard-returning
//!    helpers (e.g. `WorkerSet::lock`, which wraps poisoning recovery)
//!    count as acquisitions at the call site.
//! 4. **Cycles fail** with the witness path: every edge in the cycle with
//!    the function and line that creates it.

use super::{Finding, Rule};
use crate::lexer::Token;
use crate::syntax::matching_brace;
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Method names never resolved across crates: too generic, and the lock
/// primitives themselves.
const RESOLVE_STOPLIST: &[&str] = &[
    "lock",
    "read",
    "write",
    "new",
    "default",
    "clone",
    "drop",
    "get",
    "set",
    "len",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "next",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "from",
    "into",
    "join",
    "send",
    "recv",
    "load",
    "store",
    "open",
    "sync",
    "flush",
    "min",
    "max",
    "map",
    "clamp",
    "unwrap_or",
    "contains",
    "snapshot",
    "is_empty",
    "take",
    "start",
    "stop",
    "count",
    "add",
    "inc",
    "record",
    "begin",
    "end",
    "find",
    "apply",
    "with_capacity",
    "to_string",
    "as_ref",
];

pub struct LockOrder;

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn describe(&self) -> &'static str {
        "the global Mutex/RwLock acquisition graph must be acyclic"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let analysis = analyze(ws);
        report_cycles(&analysis, out);
    }
}

/// One lock-order edge A→B with its witness site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub from: String,
    pub to: String,
    /// `file:line` of the acquisition/call creating the edge.
    pub site: String,
    /// Function containing the site.
    pub in_fn: String,
    /// Present when the edge goes through a call rather than a direct
    /// acquisition.
    pub via_call: Option<String>,
}

/// The extracted global graph (exposed for tests and `--json`).
#[derive(Debug, Default)]
pub struct LockGraph {
    pub edges: Vec<Edge>,
}

#[derive(Debug, Clone)]
enum Event {
    /// Acquisition of a lock id; `live_until` is the token index at
    /// which its guard dies.
    Acquire {
        lock: String,
        at: usize,
        line: u32,
        live_until: usize,
    },
    /// A call site that may acquire locks transitively.
    Call {
        name: String,
        recv_is_self: bool,
        qualifier: Option<String>,
        at: usize,
        line: u32,
    },
}

struct FnSummary {
    file: String,
    fn_name: String,
    impl_type: Option<String>,
    events: Vec<Event>,
    /// Locks this function's body acquires directly.
    direct: BTreeSet<String>,
    /// Lock returned as a live guard to the caller, if this fn is a
    /// guard-returning helper.
    returns_guard_of: Option<String>,
}

/// Extracts the global lock graph from the workspace.
pub fn analyze(ws: &Workspace) -> LockGraph {
    // Lock field names declared per crate.
    let mut crate_locks: HashMap<String, HashSet<String>> = HashMap::new();
    for f in &ws.files {
        crate_locks
            .entry(f.crate_name.clone())
            .or_default()
            .extend(f.syntax.lock_fields.iter().cloned());
    }

    // Per-function event extraction.
    let mut fns: Vec<FnSummary> = Vec::new();
    for file in &ws.files {
        let empty = HashSet::new();
        let locks = crate_locks.get(&file.crate_name).unwrap_or(&empty);
        for fi in &file.syntax.fns {
            if fi.is_test || fi.body.0 == fi.body.1 {
                continue;
            }
            let events = extract_events(&file.tokens, fi.body, locks, &file.crate_name);
            let direct: BTreeSet<String> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Acquire { lock, .. } => Some(lock.clone()),
                    Event::Call { .. } => None,
                })
                .collect();
            let returns_guard_of = guard_return(&file.tokens, fi, &direct);
            fns.push(FnSummary {
                file: file.rel_path.clone(),
                fn_name: fi.name.clone(),
                impl_type: fi.impl_type.clone(),
                events,
                direct,
                returns_guard_of,
            });
        }
    }

    let resolver = Resolver::new(&fns);

    // Transitive may-acquire sets, to a fixpoint.
    let mut acq: Vec<BTreeSet<String>> = fns.iter().map(|f| f.direct.clone()).collect();
    loop {
        let mut changed = false;
        for (i, f) in fns.iter().enumerate() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for ev in &f.events {
                if let Event::Call {
                    name,
                    recv_is_self,
                    qualifier,
                    ..
                } = ev
                {
                    let caller_ty = fns[i].impl_type.as_deref();
                    for j in resolver.resolve(caller_ty, name, *recv_is_self, qualifier.as_deref())
                    {
                        add.extend(acq[j].iter().cloned());
                        if let Some(l) = &fns[j].returns_guard_of {
                            add.insert(l.clone());
                        }
                    }
                }
            }
            let before = acq[i].len();
            acq[i].extend(add);
            if acq[i].len() != before {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Edge construction: direct nesting + calls under live guards.
    let mut graph = LockGraph::default();
    let mut seen: HashSet<(String, String, String)> = HashSet::new();
    for f in &fns {
        // Live guards: (lock, live_until).
        let mut live: Vec<(String, usize)> = Vec::new();
        for ev in &f.events {
            let (at, line) = match ev {
                Event::Acquire { at, line, .. } | Event::Call { at, line, .. } => (*at, *line),
            };
            live.retain(|(_, until)| *until > at);
            match ev {
                Event::Acquire {
                    lock, live_until, ..
                } => {
                    for (held, _) in &live {
                        push_edge(&mut graph, &mut seen, f, held, lock, line, None);
                    }
                    live.push((lock.clone(), *live_until));
                }
                Event::Call {
                    name,
                    recv_is_self,
                    qualifier,
                    ..
                } => {
                    if live.is_empty() {
                        continue;
                    }
                    let mut callee_locks: BTreeSet<String> = BTreeSet::new();
                    let caller_ty = f.impl_type.as_deref();
                    for j in resolver.resolve(caller_ty, name, *recv_is_self, qualifier.as_deref())
                    {
                        callee_locks.extend(acq[j].iter().cloned());
                        if let Some(l) = &fns[j].returns_guard_of {
                            callee_locks.insert(l.clone());
                        }
                    }
                    for to in &callee_locks {
                        for (held, _) in &live {
                            push_edge(&mut graph, &mut seen, f, held, to, line, Some(name));
                        }
                    }
                }
            }
        }
    }
    graph
}

#[allow(clippy::too_many_arguments)]
fn push_edge(
    graph: &mut LockGraph,
    seen: &mut HashSet<(String, String, String)>,
    f: &FnSummary,
    from: &str,
    to: &str,
    line: u32,
    via: Option<&str>,
) {
    // `from == to` (reacquiring a held non-reentrant Mutex) is kept: it
    // shows up as a 1-cycle, which is exactly what it is.
    let site = format!("{}:{line}", f.file);
    if seen.insert((from.to_string(), to.to_string(), site.clone())) {
        graph.edges.push(Edge {
            from: from.to_string(),
            to: to.to_string(),
            site,
            in_fn: match &f.impl_type {
                Some(t) => format!("{t}::{}", f.fn_name),
                None => f.fn_name.clone(),
            },
            via_call: via.map(str::to_string),
        });
    }
}

/// Detects guard-returning helpers: the fn's return type mentions
/// `Guard` and its body acquires exactly one lock.
fn guard_return(
    toks: &[Token],
    fi: &crate::syntax::FnInfo,
    direct: &BTreeSet<String>,
) -> Option<String> {
    if direct.len() != 1 {
        return None;
    }
    // Signature = tokens from this fn's `fn` keyword to its body `{`.
    let open = fi.body.0.checked_sub(1)?;
    let mut fn_idx = open;
    while fn_idx > 0 {
        fn_idx -= 1;
        if toks[fn_idx].is_ident("fn") && toks.get(fn_idx + 1).is_some_and(|t| t.is_ident(&fi.name))
        {
            break;
        }
    }
    let sig = &toks[fn_idx..open];
    // `-> …Guard…` anywhere in the return type.
    let arrow = sig
        .windows(2)
        .position(|w| w[0].is_punct('-') && w[1].is_punct('>'))?;
    let returns_guard = sig[arrow + 2..]
        .iter()
        .any(|t| t.ident().is_some_and(|id| id.contains("Guard")));
    if returns_guard {
        direct.iter().next().cloned()
    } else {
        None
    }
}

/// Conservative call resolution over the extracted function list.
struct Resolver {
    /// name → indices of fns with that bare name.
    by_name: HashMap<String, Vec<usize>>,
    /// (impl_type, name) → indices.
    by_type_name: HashMap<(String, String), Vec<usize>>,
}

impl Resolver {
    fn new(fns: &[FnSummary]) -> Resolver {
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_type_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.fn_name.clone()).or_default().push(i);
            if let Some(t) = &f.impl_type {
                by_type_name
                    .entry((t.clone(), f.fn_name.clone()))
                    .or_default()
                    .push(i);
            }
        }
        Resolver {
            by_name,
            by_type_name,
        }
    }

    fn resolve(
        &self,
        caller_type: Option<&str>,
        name: &str,
        recv_is_self: bool,
        qualifier: Option<&str>,
    ) -> Vec<usize> {
        // `Type::name(…)` — resolve within the named type.
        if let Some(q) = qualifier {
            if let Some(v) = self.by_type_name.get(&(q.to_string(), name.to_string())) {
                return v.clone();
            }
            return Vec::new();
        }
        // `self.name(…)` — same-type resolution is precise, so even
        // stoplisted names (e.g. a `lock()` poisoning-recovery helper)
        // resolve here.
        if recv_is_self {
            if let Some(t) = caller_type {
                if let Some(v) = self.by_type_name.get(&(t.to_string(), name.to_string())) {
                    return v.clone();
                }
            }
            return Vec::new();
        }
        // Bare/unknown receiver: resolve only a workspace-unique,
        // non-generic name.
        if RESOLVE_STOPLIST.contains(&name) {
            return Vec::new();
        }
        match self.by_name.get(name) {
            Some(v) if v.len() == 1 => v.clone(),
            _ => Vec::new(),
        }
    }
}

/// Extracts ordered acquire/call events from a function body.
fn extract_events(
    toks: &[Token],
    body: (usize, usize),
    locks: &HashSet<String>,
    crate_name: &str,
) -> Vec<Event> {
    let (b0, b1) = body;
    let mut events = Vec::new();
    let mut i = b0;
    while i < b1 {
        let t = &toks[i];
        let Some(id) = t.ident() else {
            i += 1;
            continue;
        };
        let is_acquire_name = matches!(id, "lock" | "read" | "write");
        let nullary = toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
        let preceded_by_dot = i > b0 && toks[i - 1].is_punct('.');

        // `recv.lock()` / `recv.read()` / `recv.write()` on a declared
        // lock field.
        if is_acquire_name && nullary && preceded_by_dot {
            if let Some(field) = receiver_field(toks, b0, i - 1) {
                if locks.contains(&field) {
                    let lock = format!("{crate_name}::{field}");
                    let live_until = guard_liveness(toks, b0, b1, i);
                    events.push(Event::Acquire {
                        lock,
                        at: i,
                        line: t.line,
                        live_until,
                    });
                    i += 3;
                    continue;
                }
            }
        }

        // Call sites: `name(…)`, `recv.name(…)`, `Type::name(…)`.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) && !is_keyword(id) {
            let recv_is_self = preceded_by_dot
                && i >= b0 + 2
                && toks[i - 2].is_ident("self")
                && (i < b0 + 3 || !toks[i - 3].is_punct('.'));
            // `Type::name(` qualifier.
            let qualifier = if i >= b0 + 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':')
            {
                toks[i - 3]
                    .ident()
                    .filter(|q| q.chars().next().is_some_and(char::is_uppercase))
                    .map(str::to_string)
            } else {
                None
            };
            events.push(Event::Call {
                name: id.to_string(),
                recv_is_self,
                qualifier,
                at: i,
                line: t.line,
            });
        }
        i += 1;
    }
    events
}

fn is_keyword(id: &str) -> bool {
    matches!(
        id,
        "if" | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "fn"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "else"
            | "break"
            | "continue"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
            | "Box"
            | "Vec"
            | "String"
            | "drop"
    )
}

/// The final field name of the receiver chain ending just before token
/// `dot` (which is the `.` before the acquire method): for
/// `self.state.lock()` → `state`; for `log.end.lock()` → `end`. Returns
/// None when the receiver is a call result (`helper().lock()`).
fn receiver_field(toks: &[Token], lo: usize, dot: usize) -> Option<String> {
    if dot <= lo {
        return None;
    }
    toks[dot - 1].ident().map(str::to_string)
}

/// End of an `if let` / `while let` expression whose scrutinee contains
/// the acquire at `i`: the close of the body block, extended through any
/// `else` / `else if` continuation (edition 2021 drop order).
fn scrutinee_end(toks: &[Token], b1: usize, i: usize) -> usize {
    let mut depth = 0i64;
    let mut k = i;
    while k < b1 {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            let mut close = matching_brace(toks, k);
            while toks.get(close + 1).is_some_and(|t| t.is_ident("else")) {
                // `else {` or `else if … {` — skip to that block's open.
                let mut m = close + 2;
                let mut d = 0i64;
                while m < b1 {
                    let t = &toks[m];
                    if t.is_punct('(') || t.is_punct('[') {
                        d += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        d -= 1;
                    } else if d == 0 && t.is_punct('{') {
                        break;
                    }
                    m += 1;
                }
                if m >= b1 {
                    return b1;
                }
                close = matching_brace(toks, m);
            }
            return close.min(b1);
        }
        k += 1;
    }
    b1
}

/// Computes how long the guard produced at acquire-site `i` lives:
/// * bound by `let` → to the `}` closing the enclosing block (or an
///   explicit `drop(name)`),
/// * `if let` / `while let` scrutinee → to the end of the if/else chain,
/// * match scrutinee (`match x.lock() {`) → to the end of the match,
/// * otherwise a temporary → to the end of the statement.
fn guard_liveness(toks: &[Token], b0: usize, b1: usize, i: usize) -> usize {
    // Scan back to the start of the statement to find `let name =`.
    let mut j = i;
    let mut let_name: Option<String> = None;
    while j > b0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("let") {
            // `if let` / `while let`: the guard is a scrutinee
            // temporary — in edition 2021 it lives through the whole
            // if/else chain (resp. the loop body), then drops.
            if j > b0 && (toks[j - 1].is_ident("if") || toks[j - 1].is_ident("while")) {
                return scrutinee_end(toks, b1, i);
            }
            // `let [mut] name` follows.
            let mut k = j + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let_name = toks.get(k).and_then(Token::ident).map(str::to_string);
            break;
        }
        if t.is_ident("match") {
            // Guard is consumed by the match — conservatively live to
            // the end of the match block.
            let mut k = i;
            while k < b1 && !toks[k].is_punct('{') {
                k += 1;
            }
            return matching_brace(toks, k).min(b1);
        }
    }

    if let Some(name) = let_name {
        // Live until the enclosing block closes or `drop(name)`.
        let mut depth = 0i64;
        let mut k = i;
        while k < b1 {
            let t = &toks[k];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            } else if t.is_ident("drop")
                && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(k + 2).is_some_and(|t| t.is_ident(&name))
            {
                return k;
            }
            k += 1;
        }
        b1
    } else {
        // Temporary: dies at the statement's `;` at depth 0.
        let mut depth = 0i64;
        let mut k = i;
        while k < b1 {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            } else if t.is_punct(';') && depth == 0 {
                return k;
            }
            k += 1;
        }
        b1
    }
}

/// Finds a cycle in the edge set and reports it with its witness path.
fn report_cycles(graph: &LockGraph, out: &mut Vec<Finding>) {
    // Adjacency with one witness edge per (from, to).
    let mut adj: BTreeMap<&str, BTreeMap<&str, &Edge>> = BTreeMap::new();
    for e in &graph.edges {
        adj.entry(&e.from).or_default().entry(&e.to).or_insert(e);
    }

    // Iterative DFS with colors; report each cycle found once.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut color: BTreeMap<&str, Color> = nodes.iter().map(|n| (*n, Color::White)).collect();
    let mut reported: HashSet<String> = HashSet::new();

    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, BTreeMap<&'a str, &'a Edge>>,
        color: &mut BTreeMap<&'a str, Color>,
        stack: &mut Vec<&'a str>,
        out: &mut Vec<Finding>,
        reported: &mut HashSet<String>,
    ) {
        color.insert(node, Color::Grey);
        stack.push(node);
        if let Some(nexts) = adj.get(node) {
            for &next in nexts.keys() {
                match color.get(next).copied().unwrap_or(Color::White) {
                    Color::Grey => {
                        // Found a cycle: stack from `next` to `node`.
                        let pos = stack.iter().position(|&n| n == next).unwrap_or(0);
                        let cycle: Vec<&str> = stack[pos..].to_vec();
                        let mut names: Vec<&str> = cycle.clone();
                        names.push(next);
                        let key = names.join("->");
                        // Canonical form so A->B->A and B->A->B dedupe.
                        let canon = canonical_cycle(&cycle);
                        if reported.insert(canon) {
                            let mut msg = format!(
                                "lock-order cycle (deadlock potential): {}\n  witness:",
                                names.join(" -> ")
                            );
                            for w in 0..cycle.len() {
                                let a = cycle[w];
                                let b = if w + 1 < cycle.len() {
                                    cycle[w + 1]
                                } else {
                                    next
                                };
                                if let Some(e) = adj.get(a).and_then(|m| m.get(b)) {
                                    use std::fmt::Write as _;
                                    let _ = write!(
                                        msg,
                                        "\n    {a} -> {b} in {} at {}{}",
                                        e.in_fn,
                                        e.site,
                                        e.via_call
                                            .as_deref()
                                            .map(|c| format!(" (via call to `{c}`)"))
                                            .unwrap_or_default()
                                    );
                                }
                            }
                            let (path, line) = adj
                                .get(cycle[0])
                                .and_then(|m| m.values().next())
                                .map(|e| site_to_loc(&e.site))
                                .unwrap_or_default();
                            out.push(Finding {
                                rule: "lock-order",
                                path,
                                line,
                                message: msg,
                                key,
                            });
                        }
                    }
                    Color::White => dfs(next, adj, color, stack, out, reported),
                    Color::Black => {}
                }
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
    }

    for n in nodes {
        if color.get(n).copied() == Some(Color::White) {
            let mut stack = Vec::new();
            dfs(n, &adj, &mut color, &mut stack, out, &mut reported);
        }
    }
}

/// Rotates a cycle's node list so the lexicographically smallest node
/// leads — a stable dedup key independent of DFS entry point.
fn canonical_cycle(cycle: &[&str]) -> String {
    if cycle.is_empty() {
        return String::new();
    }
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| **s)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut rotated: Vec<&str> = Vec::with_capacity(cycle.len());
    for k in 0..cycle.len() {
        rotated.push(cycle[(min_pos + k) % cycle.len()]);
    }
    rotated.join("->")
}

fn site_to_loc(site: &str) -> (String, u32) {
    match site.rsplit_once(':') {
        Some((p, l)) => (p.to_string(), l.parse().unwrap_or(0)),
        None => (site.to_string(), 0),
    }
}
