//! Result values: the executor resolves interned strings back to text so
//! results are self-contained (what a driver would receive over Bolt).

use lpg::Interner;
use std::fmt;

/// A query result value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Absent value.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// A node with resolved labels and properties. `valid` carries the
    /// system-time interval in history-mode results.
    Node {
        /// Node id.
        id: u64,
        /// Resolved labels.
        labels: Vec<String>,
        /// Resolved properties.
        props: Vec<(String, Value)>,
        /// `[τ_s, τ_e)` when the query returned a version history.
        valid: Option<(u64, u64)>,
    },
    /// A relationship with resolved type and properties.
    Rel {
        /// Relationship id.
        id: u64,
        /// Source node id.
        src: u64,
        /// Target node id.
        tgt: u64,
        /// Resolved type.
        rel_type: Option<String>,
        /// Resolved properties.
        props: Vec<(String, Value)>,
        /// Version interval in history-mode results.
        valid: Option<(u64, u64)>,
    },
    /// A list of values.
    List(Vec<Value>),
}

impl Value {
    /// Converts a storage property value, resolving string references.
    pub fn from_prop(v: &lpg::PropertyValue, interner: &Interner) -> Value {
        match v {
            lpg::PropertyValue::Int(x) => Value::Int(*x),
            lpg::PropertyValue::Float(x) => Value::Float(*x),
            lpg::PropertyValue::Bool(x) => Value::Bool(*x),
            lpg::PropertyValue::Str(s) => Value::Str(
                interner
                    .resolve(*s)
                    .map(|a| a.to_string())
                    .unwrap_or_default(),
            ),
            lpg::PropertyValue::IntArray(v) => {
                Value::List(v.iter().map(|x| Value::Int(*x)).collect())
            }
            lpg::PropertyValue::FloatArray(v) => {
                Value::List(v.iter().map(|x| Value::Float(*x)).collect())
            }
        }
    }

    /// Converts a node snapshot.
    pub fn from_node(n: &lpg::Node, interner: &Interner, valid: Option<(u64, u64)>) -> Value {
        Value::Node {
            id: n.id.raw(),
            labels: n
                .labels
                .iter()
                .filter_map(|l| interner.resolve(*l).map(|a| a.to_string()))
                .collect(),
            props: n
                .props
                .iter()
                .filter_map(|(k, v)| {
                    interner
                        .resolve(*k)
                        .map(|key| (key.to_string(), Value::from_prop(v, interner)))
                })
                .collect(),
            valid,
        }
    }

    /// Converts a relationship snapshot.
    pub fn from_rel(
        r: &lpg::Relationship,
        interner: &Interner,
        valid: Option<(u64, u64)>,
    ) -> Value {
        Value::Rel {
            id: r.id.raw(),
            src: r.src.raw(),
            tgt: r.tgt.raw(),
            rel_type: r
                .label
                .and_then(|l| interner.resolve(l).map(|a| a.to_string())),
            props: r
                .props
                .iter()
                .filter_map(|(k, v)| {
                    interner
                        .resolve(*k)
                        .map(|key| (key.to_string(), Value::from_prop(v, interner)))
                })
                .collect(),
            valid,
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The id of a node/rel value.
    pub fn entity_id(&self) -> Option<u64> {
        match self {
            Value::Node { id, .. } | Value::Rel { id, .. } => Some(*id),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Node {
                id, labels, valid, ..
            } => {
                write!(f, "(#{id}")?;
                for l in labels {
                    write!(f, ":{l}")?;
                }
                if let Some((s, e)) = valid {
                    write!(f, " @[{s},{e})")?;
                }
                write!(f, ")")
            }
            Value::Rel {
                id,
                src,
                tgt,
                rel_type,
                ..
            } => {
                write!(f, "[#{id} {src}->{tgt}")?;
                if let Some(t) = rel_type {
                    write!(f, " :{t}")?;
                }
                write!(f, "]")
            }
            Value::List(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{NodeId, PropertyValue};

    #[test]
    fn conversion_resolves_strings() {
        let interner = Interner::new();
        let person = interner.intern("Person");
        let name = interner.intern("name");
        let ada = interner.intern("Ada");
        let n = lpg::Node::new(
            NodeId::new(7),
            vec![person],
            vec![(name, PropertyValue::Str(ada))],
        );
        let v = Value::from_node(&n, &interner, Some((1, 5)));
        assert!(matches!(v, Value::Node { .. }), "expected a node value");
        let Value::Node {
            id,
            labels,
            props,
            valid,
        } = &v
        else {
            return; // unreachable: asserted above
        };
        assert_eq!(*id, 7);
        assert_eq!(labels, &vec!["Person".to_string()]);
        assert_eq!(props[0], ("name".into(), Value::Str("Ada".into())));
        assert_eq!(*valid, Some((1, 5)));
        assert_eq!(v.entity_id(), Some(7));
        assert!(v.to_string().contains(":Person"));
    }
}
