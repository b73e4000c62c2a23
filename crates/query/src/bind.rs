//! Bind sources — the pull side of the executor.
//!
//! Every `MATCH` pattern opens as a lazy source of [`Binding`]s, one per
//! matched row, and [`Bindings`] is the single filtered stream the sinks
//! in [`crate::exec`] pull from: *bind source → filter → sink*. A source
//! makes its storage call when it opens (one `get_node`, one
//! `get_relationships`, one planner-routed `expand`, one node stream)
//! and does per-row work — resolving a neighbour, building a [`Value`] —
//! only when a row is pulled, so a sink that stops early (`LIMIT`, one
//! page) bounds the work for every shape.
//!
//! | pattern | source | order |
//! |---|---|---|
//! | `(n)` + `id(n) = …` | `Aion::get_node` versions | version order |
//! | `(n)` / `(n:L)` at a point | `Aion::stream_nodes_at` | ascending node id |
//! | `(n)` / `(n:L)` over a window | `Aion::get_window` ids, `Aion::get_node` versions per pull | ascending node id, then version order |
//! | `()-[r]->()` + `id(r) = …` | `Aion::get_relationship` versions | version order |
//! | `(n)-[r]->(m)` + `id(n) = …` | `Aion::get_relationships`, neighbour resolved per pull | store order |
//! | `(n)-[*k]->(m)` + `id(n) = …` | `Aion::expand` (planner-routed), hit resolved per pull | BFS order |
//!
//! Several patterns are the cross product of their sources: the first
//! stays lazy, the rest are buffered.

use crate::ast::{CmpOp, Pattern, Predicate, RelDirection};
use crate::exec::{check_budget, resolve_literal, Params};
use crate::value::Value;
use aion::{bitemporal, Aion};
use lpg::{Direction, GraphError, Interval, NodeId, PropertyValue, RelId, Result, TimeRange};
use std::collections::HashMap;

/// One bound row: variable → value, in binding order. A pattern binds at
/// most three variables, so a list beats a map.
pub(crate) type Binding<'a> = Vec<(&'a str, Value)>;

type Source<'a> = Box<dyn Iterator<Item = Result<Binding<'a>>> + 'a>;

/// The value bound to `var`, if any.
pub(crate) fn lookup<'b>(b: &'b Binding<'_>, var: &str) -> Option<&'b Value> {
    b.iter().find(|(v, _)| *v == var).map(|(_, value)| value)
}

/// Binds `var`, replacing an earlier binding of the same name.
fn bind<'a>(b: &mut Binding<'a>, var: &'a str, value: Value) {
    match b.iter_mut().find(|(v, _)| *v == var) {
        Some(slot) => slot.1 = value,
        None => b.push((var, value)),
    }
}

/// Property `key` of a node/relationship value.
pub(crate) fn prop<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Node { props, .. } | Value::Rel { props, .. } => {
            props.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
        _ => None,
    }
}

/// Everything a pattern needs to open its source.
struct Scope<'a> {
    db: &'a Aion,
    /// `id(var) = …` constraints (the last one per variable wins).
    id_of: HashMap<&'a str, u64>,
    window: Interval,
    /// `AS OF` (or implicit latest): rows are plain entities; otherwise
    /// they are versions carrying their validity interval.
    point: bool,
    /// The node scan's consumer folds over every row (see
    /// `Aion::stream_nodes_at`, which owns the store choice).
    whole_graph: bool,
    /// Resume a point node scan strictly after this id.
    after: Option<NodeId>,
}

impl<'a> Scope<'a> {
    fn id_of(&self, var: &Option<String>) -> Option<u64> {
        var.as_deref().and_then(|v| self.id_of.get(v)).copied()
    }

    fn open(&self, pattern: &'a Pattern) -> Result<Source<'a>> {
        let (db, interner) = (self.db, self.db.interner());
        let Interval { start, end } = self.window;
        let at = start;
        let point = self.point;
        let valid = move |iv: &Interval| (!point).then_some((iv.start, iv.end));
        let var = pattern.start.var.as_deref().unwrap_or("_anchor");
        let Some((rel, end_node)) = &pattern.rel else {
            // No label in the pattern filters nothing; a label the table
            // does not hold (`Some(None)`) matches nothing.
            let label = pattern.start.label.as_deref().map(|l| interner.get(l));
            let wanted =
                move |n: &lpg::Node| label.is_none_or(|l| l.is_some_and(|l| n.has_label(l)));
            if let Some(id) = self.id_of(&pattern.start.var) {
                // Point or history lookup by id. A point lookup asks for
                // `[at, at]` so the lineage serves it once it covers `at`.
                let hi = if point { at } else { end };
                let versions = db.get_node(NodeId::new(id), start, hi)?;
                return Ok(Box::new(
                    versions
                        .into_iter()
                        .filter(move |v| wanted(&v.data))
                        .map(move |v| {
                            Ok(vec![(
                                var,
                                Value::from_node(&v.data, interner, valid(&v.valid)),
                            )])
                        }),
                ));
            }
            if !point {
                // Every version of every node the window holds, as an id
                // lookup over the same window gives them.
                let ids: Vec<NodeId> = db.get_window(start, end)?.nodes().map(|n| n.id).collect();
                return Ok(Box::new(ids.into_iter().flat_map(move |id| {
                    match db.get_node(id, start, end) {
                        Ok(versions) => versions
                            .into_iter()
                            .filter(|v| wanted(&v.data))
                            .map(|v| {
                                Ok(vec![(
                                    var,
                                    Value::from_node(&v.data, interner, valid(&v.valid)),
                                )])
                            })
                            .collect(),
                        Err(e) => vec![Err(e)],
                    }
                })));
            }
            let mut nodes = db.stream_nodes_at(at, self.after, self.whole_graph)?;
            return Ok(Box::new(
                std::iter::from_fn(move || nodes.next_node().transpose()).filter_map(move |n| {
                    match n {
                        Ok(n) if !wanted(&n) => None,
                        Ok(n) => Some(Ok(vec![(var, Value::from_node(&n, interner, None))])),
                        Err(e) => Some(Err(e)),
                    }
                }),
            ));
        };
        // Direct relationship binding: `()-[r]->() WHERE id(r) = …`.
        if let (Some(rid), Some(rel_var)) = (self.id_of(&rel.var), rel.var.as_deref()) {
            let versions = db.get_relationship(RelId::new(rid), start, end)?;
            return Ok(Box::new(versions.into_iter().map(move |v| {
                Ok(vec![(
                    rel_var,
                    Value::from_rel(&v.data, interner, valid(&v.valid)),
                )])
            })));
        }
        // Anchored traversal: the anchor needs an id constraint.
        let Some(anchor) = self.id_of(&pattern.start.var).map(NodeId::new) else {
            return Err(GraphError::Unknown(
                "traversal patterns require `id(anchor) = …` or `id(rel) = …` in WHERE".into(),
            ));
        };
        let dir = match rel.direction {
            RelDirection::Right => Direction::Outgoing,
            RelDirection::Left => Direction::Incoming,
            RelDirection::Undirected => Direction::Both,
        };
        let end_var = end_node.var.as_deref();
        if rel.hops > 1 {
            // Variable-length expansion (Fig. 1b): planner-routed. It binds
            // end nodes only; a filter it would drop widens the answer.
            let dropped = [
                (rel.rel_type.is_some(), "a relationship type"),
                (rel.var.is_some(), "a relationship variable"),
                (!rel.props.is_empty(), "relationship properties"),
            ];
            if let Some((_, part)) = dropped.iter().find(|(has, _)| *has) {
                return Err(GraphError::Unsupported(format!(
                    "variable-length pattern `*{}` with {part}",
                    rel.hops
                )));
            }
            let hits = db.expand(anchor, dir, rel.hops, at)?;
            return Ok(Box::new(hits.into_iter().filter_map(move |(id, hop)| {
                let node = match db.get_node(id, at, at) {
                    Ok(versions) => versions.into_iter().next()?,
                    Err(e) => return Some(Err(e)),
                };
                let mut b = Binding::new();
                if let Some(ev) = end_var {
                    bind(&mut b, ev, Value::from_node(&node.data, interner, None));
                }
                bind(&mut b, "_hop", Value::Int(i64::from(hop)));
                Some(Ok(b))
            })));
        }
        // Single hop: bind anchor, rel and — resolved per pulled row — the
        // neighbour as of the relationship version's start.
        // As for labels: `Some(None)` is a type nobody wrote.
        let rel_type = rel.rel_type.as_deref().map(|t| interner.get(t));
        let histories = db.get_relationships(anchor, dir, start, end)?;
        let anchor_value = db
            .get_node(anchor, start, end)?
            .pop()
            .map(|an| Value::from_node(&an.data, interner, None));
        let rel_var = rel.var.as_deref();
        Ok(Box::new(
            histories
                .into_iter()
                .flatten()
                .filter(move |v| rel_type.is_none_or(|t| t.is_some() && v.data.label == t))
                .map(move |v| {
                    let mut b = Binding::new();
                    if let Some(an) = &anchor_value {
                        bind(&mut b, var, an.clone());
                    }
                    if let Some(rv) = rel_var {
                        bind(
                            &mut b,
                            rv,
                            Value::from_rel(&v.data, interner, valid(&v.valid)),
                        );
                    }
                    if let (Some(ev), Some(other)) = (end_var, v.data.other_end(anchor)) {
                        let versions = db.get_node(other, v.valid.start, v.valid.start + 1)?;
                        if let Some(nv) = versions.into_iter().next() {
                            bind(&mut b, ev, Value::from_node(&nv.data, interner, None));
                        }
                    }
                    Ok(b)
                }),
        ))
    }
}

/// The filtered binding stream of one `MATCH … WHERE …`.
pub(crate) struct Bindings<'a> {
    pub db: &'a Aion,
    source: Source<'a>,
    predicates: &'a [Predicate],
    params: &'a Params,
    /// The rows are one point node scan, one row per node in ascending id
    /// order, so a page can resume strictly after the last id it emitted
    /// ([`Self::last_key`]) instead of by row offset. A window scan gives
    /// a row per version, several per id, so it resumes by offset.
    pub keyed: bool,
    /// Entity id of the first variable of the last row pulled.
    pub last_key: Option<u64>,
}

impl<'a> Bindings<'a> {
    /// Opens the sources of `patterns` over `range`. `whole_graph` and
    /// `after` apply to point node scans only.
    pub(crate) fn open(
        db: &'a Aion,
        range: TimeRange,
        patterns: &'a [Pattern],
        predicates: &'a [Predicate],
        params: &'a Params,
        whole_graph: bool,
        after: Option<NodeId>,
    ) -> Result<Bindings<'a>> {
        let mut id_of = HashMap::new();
        for p in predicates {
            if let Predicate::IdEquals(var, lit) = p {
                let id = resolve_literal(lit, params)?
                    .as_int()
                    .ok_or_else(|| GraphError::Unknown("id() must compare to an integer".into()))?;
                id_of.insert(var.as_str(), id as u64);
            }
        }
        let scope = Scope {
            db,
            id_of,
            window: range.to_half_open(),
            point: range.is_point(),
            whole_graph,
            after,
        };
        let keyed = scope.point
            && matches!(patterns, [p] if p.rel.is_none() && scope.id_of(&p.start.var).is_none());
        let mut source: Source<'a> = match patterns.first() {
            Some(first) => scope.open(first)?,
            None => Box::new(std::iter::empty()),
        };
        for pattern in patterns.iter().skip(1) {
            // Cross product: every row so far × every row of this pattern
            // (a later binding of the same variable wins).
            let mut right: Vec<Binding<'a>> = Vec::new();
            for b in scope.open(pattern)? {
                check_budget()?;
                right.push(b?);
            }
            source = Box::new(source.flat_map(move |left| {
                match left {
                    Err(e) => vec![Err(e)],
                    Ok(left) => right
                        .iter()
                        .map(|r| {
                            let mut merged = left.clone();
                            for (var, value) in r {
                                bind(&mut merged, var, value.clone());
                            }
                            Ok(merged)
                        })
                        .collect(),
                }
            }));
        }
        Ok(Bindings {
            db,
            source,
            predicates,
            params,
            keyed,
            last_key: None,
        })
    }

    /// The next row that passes every predicate; one budget check per
    /// row pulled from the source.
    pub(crate) fn next(&mut self) -> Result<Option<Binding<'a>>> {
        loop {
            check_budget()?;
            let Some(b) = self.source.next().transpose()? else {
                return Ok(None);
            };
            if self.predicates.iter().all(|p| self.passes(p, &b)) {
                self.last_key = b.first().and_then(|(_, v)| v.entity_id());
                return Ok(Some(b));
            }
        }
    }

    fn passes(&self, predicate: &Predicate, b: &Binding<'_>) -> bool {
        match predicate {
            // A comparison on an unbound variable, a missing property or a
            // missing parameter fails the row.
            Predicate::PropCmp(var, key, op, lit) => resolve_literal(lit, self.params)
                .ok()
                .zip(lookup(b, var).and_then(|v| prop(v, key)))
                .is_some_and(|(expected, actual)| value_cmp(actual, *op, &expected)),
            Predicate::AppTimeContainedIn(lo, hi) => {
                let range = TimeRange::ContainedIn(*lo, *hi);
                b.iter().all(|(_, v)| app_time_pass(self.db, v, range))
            }
            Predicate::IdEquals(..) => true, // applied when the source opened
        }
    }
}

fn value_cmp(actual: &Value, op: CmpOp, expected: &Value) -> bool {
    use std::cmp::Ordering;
    let ord = match (actual, expected) {
        (Value::Int(a), Value::Int(b)) => a.partial_cmp(b),
        (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
        (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
        (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
        (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
        (Value::Bool(a), Value::Bool(b)) => a.partial_cmp(b),
        _ => None,
    };
    matches!(
        (ord, op),
        (Some(Ordering::Equal), CmpOp::Eq | CmpOp::Le | CmpOp::Ge)
            | (Some(Ordering::Less), CmpOp::Lt | CmpOp::Le | CmpOp::Neq)
            | (Some(Ordering::Greater), CmpOp::Gt | CmpOp::Ge | CmpOp::Neq)
    )
}

fn app_time_pass(db: &Aion, v: &Value, range: TimeRange) -> bool {
    // Reconstruct a property bag in storage terms for the filter.
    let keys = db.app_time_keys();
    let props = match v {
        Value::Node { props, .. } | Value::Rel { props, .. } => props,
        _ => return true,
    };
    let mut bag: lpg::Props = Vec::new();
    for (k, v) in props {
        // A key the table does not hold is no app-time key.
        if let (Value::Int(x), Some(kid)) = (v, db.interner().get(k)) {
            bag.push((kid, PropertyValue::Int(*x)));
        }
    }
    bag.sort_by_key(|(k, _)| *k);
    bitemporal::matches_app_time(&bag, range, keys)
}
