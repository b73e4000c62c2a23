//! The small sorted collections an entity holds: its property bag and its
//! label set.
//!
//! Most entities carry one property (a relationship's weight, a node's name)
//! and one or two labels. Both collections therefore hold that many inline,
//! beside the entity, and allocate only beyond it: one boxed slice of exactly
//! the size needed, replaced whole when the collection grows or shrinks.
//! Either one derefs to its sorted slice, and two compare equal when their
//! contents do, whatever way they got there.

use crate::ids::StrId;
use crate::value::PropertyValue;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;

/// One property: a key and its value.
type Prop = (StrId, PropertyValue);

/// The property bag of a [`crate::Node`] or [`crate::Relationship`]: pairs
/// sorted by key, one value per key.
///
/// Zero or one pair sits inline (32 B, no allocation); two or more spill to
/// one boxed slice of exactly their number. Build one from a [`crate::Props`]
/// with `From`, which sorts it and keeps the last value given for a key.
#[derive(Clone, Default)]
pub struct PropBag(Bag);

#[derive(Clone, Default)]
enum Bag {
    #[default]
    Empty,
    One(Prop),
    /// Two or more pairs.
    Many(Box<[Prop]>),
}

impl PropBag {
    /// A bag of the pairs in `props`, which ascend strictly by key.
    fn from_sorted(mut props: Vec<Prop>) -> Self {
        PropBag(if props.len() > 1 {
            Bag::Many(props.into_boxed_slice())
        } else {
            props.pop().map_or(Bag::Empty, Bag::One)
        })
    }

    fn pairs_mut(&mut self) -> &mut [Prop] {
        match &mut self.0 {
            Bag::Empty => &mut [],
            Bag::One(pair) => std::slice::from_mut(pair),
            Bag::Many(pairs) => pairs,
        }
    }

    fn find(&self, key: StrId) -> std::result::Result<usize, usize> {
        self.binary_search_by_key(&key, |(k, _)| *k)
    }

    /// The value of `key`, if set.
    pub fn get(&self, key: StrId) -> Option<&PropertyValue> {
        self.find(key).ok().map(|i| &self[i].1)
    }

    /// Sets `key` to `value`, replacing its old value or inserting it in key
    /// order.
    pub fn set(&mut self, key: StrId, value: PropertyValue) {
        match self.find(key) {
            Ok(i) => self.pairs_mut()[i].1 = value,
            Err(i) => self.insert_at(i, (key, value)),
        }
    }

    /// Inserts `pair` at position `i`, where its key belongs.
    fn insert_at(&mut self, i: usize, pair: Prop) {
        self.0 = match std::mem::take(&mut self.0) {
            Bag::Empty => Bag::One(pair),
            Bag::One(first) if i == 0 => Bag::Many(Box::new([pair, first])),
            Bag::One(first) => Bag::Many(Box::new([first, pair])),
            Bag::Many(pairs) => {
                let mut grown = pairs.into_vec();
                grown.reserve_exact(1);
                grown.insert(i, pair);
                Bag::Many(grown.into_boxed_slice())
            }
        };
    }

    /// Removes `key`; returns its value if it was set.
    pub fn remove(&mut self, key: StrId) -> Option<PropertyValue> {
        let i = self.find(key).ok()?;
        match std::mem::take(&mut self.0) {
            Bag::Empty => None,
            Bag::One((_, value)) => Some(value),
            Bag::Many(pairs) => {
                let mut pairs = pairs.into_vec();
                let (_, value) = pairs.remove(i);
                *self = Self::from_sorted(pairs);
                Some(value)
            }
        }
    }

    /// The bytes this bag allocates: the spilled slice, if any, and what its
    /// values hold.
    pub fn heap_size(&self) -> usize {
        let spill = match &self.0 {
            Bag::Many(pairs) => std::mem::size_of_val::<[Prop]>(pairs),
            Bag::Empty | Bag::One(_) => 0,
        };
        spill + self.iter().map(|(_, v)| v.heap_size()).sum::<usize>()
    }
}

impl Deref for PropBag {
    type Target = [Prop];

    fn deref(&self) -> &[Prop] {
        match &self.0 {
            Bag::Empty => &[],
            Bag::One(pair) => std::slice::from_ref(pair),
            Bag::Many(pairs) => pairs,
        }
    }
}

impl From<Vec<Prop>> for PropBag {
    /// Sorts `props` by key. Of several values given for one key the last
    /// wins, as if they had been [`PropBag::set`] in turn.
    fn from(mut props: Vec<Prop>) -> Self {
        // Stable, so equal keys keep the order they were given in.
        props.sort_by_key(|(k, _)| *k);
        props.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        Self::from_sorted(props)
    }
}

impl From<PropBag> for Vec<Prop> {
    fn from(bag: PropBag) -> Self {
        match bag.0 {
            Bag::Empty => Vec::new(),
            Bag::One(pair) => vec![pair],
            Bag::Many(pairs) => pairs.into_vec(),
        }
    }
}

impl PartialEq for PropBag {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for PropBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The label set of a [`crate::Node`]: sorted, without duplicates.
///
/// One or two labels sit inline (16 B, no allocation); three or more spill to
/// one boxed slice of exactly their number. Build one from a `Vec` with
/// `From`, which sorts and deduplicates it.
#[derive(Clone)]
pub struct LabelSet(Labels);

#[derive(Clone)]
enum Labels {
    /// `[a, b]` is the set {a, b} when `a < b`, {a} when `a == b` and the
    /// empty set when `a > b`. That needs no length field, so it fits in the
    /// 8 bytes of the spilled slice's length, and the slice pointer's null
    /// value tells the two variants apart: 16 B in all.
    Inline([StrId; 2]),
    /// Three or more labels.
    Many(Box<[StrId]>),
}

/// The empty set in [`Labels::Inline`]'s encoding.
const NO_LABELS: Labels = Labels::Inline([StrId(1), StrId(0)]);

impl LabelSet {
    /// A set of the labels in `labels`, which ascend strictly.
    fn from_sorted(labels: &[StrId]) -> Self {
        LabelSet(match *labels {
            [] => NO_LABELS,
            [a] => Labels::Inline([a, a]),
            [a, b] => Labels::Inline([a, b]),
            _ => Labels::Many(labels.into()),
        })
    }

    /// Whether `label` is in the set.
    pub fn contains(&self, label: StrId) -> bool {
        self.binary_search(&label).is_ok()
    }

    /// Adds `label`; returns whether it was new.
    pub fn insert(&mut self, label: StrId) -> bool {
        let Err(i) = self.binary_search(&label) else {
            return false;
        };
        let mut labels = self.to_vec();
        labels.insert(i, label);
        *self = Self::from_sorted(&labels);
        true
    }

    /// Removes `label`; returns whether it was there.
    pub fn remove(&mut self, label: StrId) -> bool {
        let Ok(i) = self.binary_search(&label) else {
            return false;
        };
        let mut labels = self.to_vec();
        labels.remove(i);
        *self = Self::from_sorted(&labels);
        true
    }

    /// The bytes this set allocates: the spilled slice, if any.
    pub fn heap_size(&self) -> usize {
        match &self.0 {
            Labels::Inline(_) => 0,
            Labels::Many(labels) => std::mem::size_of_val::<[StrId]>(labels),
        }
    }
}

impl Default for LabelSet {
    fn default() -> Self {
        LabelSet(NO_LABELS)
    }
}

impl Deref for LabelSet {
    type Target = [StrId];

    fn deref(&self) -> &[StrId] {
        match &self.0 {
            Labels::Inline(pair @ [a, b]) => match a.cmp(b) {
                Ordering::Less => pair,
                Ordering::Equal => std::slice::from_ref(a),
                Ordering::Greater => &[],
            },
            Labels::Many(labels) => labels,
        }
    }
}

impl From<Vec<StrId>> for LabelSet {
    fn from(mut labels: Vec<StrId>) -> Self {
        labels.sort_unstable();
        labels.dedup();
        Self::from_sorted(&labels)
    }
}

impl PartialEq for LabelSet {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: u32) -> StrId {
        StrId::new(i)
    }

    fn int(v: i64) -> PropertyValue {
        PropertyValue::Int(v)
    }

    #[test]
    fn sizes_stay_inline() {
        assert_eq!(std::mem::size_of::<Prop>(), 32);
        assert!(std::mem::size_of::<PropBag>() <= 32);
        assert_eq!(std::mem::size_of::<LabelSet>(), 16);
    }

    #[test]
    fn bag_moves_between_inline_and_spilled() {
        let mut p = PropBag::default();
        assert!(p.is_empty());
        p.set(sid(5), int(1));
        assert!(matches!(p.0, Bag::One(_)));
        assert_eq!(p.heap_size(), 0);
        p.set(sid(1), int(2));
        p.set(sid(5), int(3));
        assert_eq!(*p, [(sid(1), int(2)), (sid(5), int(3))]);
        assert_eq!(p.heap_size(), 2 * 32);
        p.set(sid(3), int(4));
        assert_eq!(
            p.iter().map(|(k, _)| k.raw()).collect::<Vec<_>>(),
            [1, 3, 5]
        );
        assert_eq!(p.get(sid(3)), Some(&int(4)));
        assert_eq!(p.remove(sid(3)), Some(int(4)));
        assert_eq!(p.remove(sid(1)), Some(int(2)));
        assert_eq!(p.remove(sid(1)), None);
        assert!(matches!(p.0, Bag::One(_)));
        assert_eq!(p, PropBag::from(vec![(sid(5), int(3))]));
        assert_eq!(p.remove(sid(5)), Some(int(3)));
        assert!(matches!(p.0, Bag::Empty));
        assert_eq!(p.get(sid(5)), None);
    }

    #[test]
    fn label_set_encodes_up_to_two_inline() {
        let mut l = LabelSet::default();
        assert!(l.is_empty());
        assert!(l.insert(sid(4)));
        assert!(!l.insert(sid(4)));
        assert_eq!(*l, [sid(4)]);
        assert!(l.insert(sid(0)));
        assert_eq!(*l, [sid(0), sid(4)]);
        assert_eq!(l.heap_size(), 0);
        assert!(l.insert(sid(2)));
        assert_eq!(*l, [sid(0), sid(2), sid(4)]);
        assert_eq!(l.heap_size(), 12);
        assert!(l.remove(sid(0)));
        assert!(!l.remove(sid(0)));
        assert_eq!(l.heap_size(), 0);
        assert_eq!(l, LabelSet::from(vec![sid(4), sid(2), sid(4)]));
        assert!(l.remove(sid(2)) && l.remove(sid(4)));
        assert_eq!(l, LabelSet::default());
        assert_eq!(format!("{l:?}"), "[]");
    }
}
