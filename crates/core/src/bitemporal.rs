//! Application-time handling (Sec. 4.5).
//!
//! Aion deliberately does *not* index application time: "we decided to
//! store application start and end time as graph properties. When querying
//! with both time dimensions, a valid (sub)graph with respect to system
//! time is retrieved first, and then a filter is applied for the
//! application time. If the application time is not set as a property, we
//! fall back to using the system time."

use crate::txn::AppTimeKeys;
use lpg::{Interval, PropBag, PropertyValue, StrId, TimeRange, Version, TS_MAX};

/// Reads an entity's application-time validity from its property bag.
/// `None` when no application start time is set.
pub fn app_interval(props: &[(StrId, PropertyValue)], keys: AppTimeKeys) -> Option<Interval> {
    let get = |key| {
        props
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v): &(_, PropertyValue)| v.as_int())
            .map(|v| v.max(0) as u64)
    };
    let start = get(keys.start)?;
    let end = get(keys.end).unwrap_or(TS_MAX);
    (start < end).then(|| Interval::new(start, end))
}

/// Whether an entity (by its property bag) is visible to an application-
/// time range. Entities without application time fall back to system time,
/// i.e. they pass (system-time filtering already happened upstream).
pub fn matches_app_time(
    props: &[(StrId, PropertyValue)],
    range: TimeRange,
    keys: AppTimeKeys,
) -> bool {
    match app_interval(props, keys) {
        Some(iv) => range.matches(&iv),
        None => true,
    }
}

/// Filters system-time versions by an application-time range; the version
/// payload must expose its property bag.
pub fn filter_versions<T: HasProps>(
    versions: Vec<Version<T>>,
    range: TimeRange,
    keys: AppTimeKeys,
) -> Vec<Version<T>> {
    versions
        .into_iter()
        .filter(|v| matches_app_time(v.data.props(), range, keys))
        .collect()
}

/// Anything carrying a property bag (nodes and relationships).
pub trait HasProps {
    /// The entity's property bag.
    fn props(&self) -> &PropBag;
}

impl HasProps for lpg::Node {
    fn props(&self) -> &PropBag {
        &self.props
    }
}

impl HasProps for lpg::Relationship {
    fn props(&self) -> &PropBag {
        &self.props
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{Node, NodeId, Props};

    fn keys() -> AppTimeKeys {
        AppTimeKeys {
            start: StrId::new(100),
            end: StrId::new(101),
        }
    }

    fn props(start: Option<i64>, end: Option<i64>) -> Props {
        let mut p = Props::new();
        if let Some(s) = start {
            p.push((keys().start, PropertyValue::Int(s)));
        }
        if let Some(e) = end {
            p.push((keys().end, PropertyValue::Int(e)));
        }
        p.sort_by_key(|(k, _)| *k);
        p
    }

    #[test]
    fn interval_extraction() {
        assert_eq!(app_interval(&props(None, None), keys()), None);
        assert_eq!(
            app_interval(&props(Some(5), None), keys()),
            Some(Interval::open_ended(5))
        );
        assert_eq!(
            app_interval(&props(Some(5), Some(9)), keys()),
            Some(Interval::new(5, 9))
        );
        // Inverted interval is treated as unset.
        assert_eq!(app_interval(&props(Some(9), Some(5)), keys()), None);
    }

    #[test]
    fn filtering_and_fallback() {
        // CONTAINED IN (4, 6) = [4, 6].
        let range = TimeRange::ContainedIn(4, 6);
        assert!(matches_app_time(&props(Some(5), Some(9)), range, keys()));
        assert!(!matches_app_time(&props(Some(7), Some(9)), range, keys()));
        // Fallback: entity without application time passes.
        assert!(matches_app_time(&props(None, None), range, keys()));
    }

    #[test]
    fn version_filtering() {
        let mk = |start| {
            Version::new(
                0,
                10,
                Node::new(NodeId::new(1), vec![], props(Some(start), Some(start + 2))),
            )
        };
        let versions = vec![mk(1), mk(5), mk(20)];
        let kept = filter_versions(versions, TimeRange::Between(4, 8), keys());
        assert_eq!(kept.len(), 1);
        assert_eq!(
            app_interval(kept[0].data.props(), keys()),
            Some(Interval::new(5, 7))
        );
    }
}
