//! Property values.
//!
//! The paper (Sec. 3) allows property values to be "a string, a primitive
//! data type, or an array type". Strings are stored as 4-byte references
//! into the string store (Sec. 4.2), which here is [`crate::Interner`]; the
//! variants therefore carry [`StrId`]s rather than owned strings.

use crate::ids::StrId;
use std::fmt;

/// A property value attached to a node or relationship.
#[derive(Clone, PartialEq, Debug)]
pub enum PropertyValue {
    /// 64-bit signed integer (covers the paper's int/long).
    Int(i64),
    /// 64-bit IEEE float (covers the paper's float/double).
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Interned string value.
    Str(StrId),
    /// Array of integers. A boxed slice, not a `Vec`: values are replaced
    /// whole, never grown, and 8 bytes less keeps the enum at 24.
    IntArray(Box<[i64]>),
    /// Array of floats.
    FloatArray(Box<[f64]>),
}

/// Discriminant tags used by the on-disk property encoding (Sec. 4.2 reserves
/// "the three most significant bits of a property's reference" for state and
/// data type; we expose the data-type part here).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ValueTag {
    /// [`PropertyValue::Int`]
    Int = 0,
    /// [`PropertyValue::Float`]
    Float = 1,
    /// [`PropertyValue::Bool`]
    Bool = 2,
    /// [`PropertyValue::Str`]
    Str = 3,
    /// [`PropertyValue::IntArray`]
    IntArray = 4,
    /// [`PropertyValue::FloatArray`]
    FloatArray = 5,
}

impl ValueTag {
    /// Decodes a tag byte, if valid.
    pub fn from_u8(b: u8) -> Option<ValueTag> {
        Some(match b {
            0 => ValueTag::Int,
            1 => ValueTag::Float,
            2 => ValueTag::Bool,
            3 => ValueTag::Str,
            4 => ValueTag::IntArray,
            5 => ValueTag::FloatArray,
            _ => return None,
        })
    }
}

impl PropertyValue {
    /// The on-disk type tag of this value.
    pub fn tag(&self) -> ValueTag {
        match self {
            PropertyValue::Int(_) => ValueTag::Int,
            PropertyValue::Float(_) => ValueTag::Float,
            PropertyValue::Bool(_) => ValueTag::Bool,
            PropertyValue::Str(_) => ValueTag::Str,
            PropertyValue::IntArray(_) => ValueTag::IntArray,
            PropertyValue::FloatArray(_) => ValueTag::FloatArray,
        }
    }

    /// Integer accessor; `None` when the value is not an [`PropertyValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PropertyValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float accessor, also coercing integers (useful for aggregations).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            PropertyValue::Float(v) => Some(*v),
            PropertyValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            PropertyValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Interned-string accessor.
    pub fn as_str_id(&self) -> Option<StrId> {
        match self {
            PropertyValue::Str(s) => Some(*s),
            _ => None,
        }
    }

    /// The in-memory footprint estimate in bytes, used for Table 3-style
    /// memory accounting.
    pub fn heap_size(&self) -> usize {
        match self {
            PropertyValue::IntArray(v) => v.len() * 8,
            PropertyValue::FloatArray(v) => v.len() * 8,
            _ => 0,
        }
    }
}

impl fmt::Display for PropertyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyValue::Int(v) => write!(f, "{v}"),
            PropertyValue::Float(v) => write!(f, "{v}"),
            PropertyValue::Bool(v) => write!(f, "{v}"),
            PropertyValue::Str(s) => write!(f, "str#{}", s.raw()),
            PropertyValue::IntArray(v) => write!(f, "{v:?}"),
            PropertyValue::FloatArray(v) => write!(f, "{v:?}"),
        }
    }
}

impl From<i64> for PropertyValue {
    fn from(v: i64) -> Self {
        PropertyValue::Int(v)
    }
}

impl From<f64> for PropertyValue {
    fn from(v: f64) -> Self {
        PropertyValue::Float(v)
    }
}

impl From<bool> for PropertyValue {
    fn from(v: bool) -> Self {
        PropertyValue::Bool(v)
    }
}

impl From<StrId> for PropertyValue {
    fn from(v: StrId) -> Self {
        PropertyValue::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_coercion() {
        assert_eq!(PropertyValue::Int(4).as_int(), Some(4));
        assert_eq!(PropertyValue::Int(4).as_float(), Some(4.0));
        assert_eq!(PropertyValue::Float(2.5).as_float(), Some(2.5));
        assert_eq!(PropertyValue::Float(2.5).as_int(), None);
        assert_eq!(PropertyValue::Bool(true).as_bool(), Some(true));
        assert_eq!(
            PropertyValue::Str(StrId::new(9)).as_str_id(),
            Some(StrId::new(9))
        );
    }

    #[test]
    fn tags_roundtrip() {
        for v in [
            PropertyValue::Int(1),
            PropertyValue::Float(1.0),
            PropertyValue::Bool(false),
            PropertyValue::Str(StrId::new(0)),
            PropertyValue::IntArray(Box::new([1, 2])),
            PropertyValue::FloatArray(Box::new([0.5])),
        ] {
            let tag = v.tag();
            assert_eq!(ValueTag::from_u8(tag as u8), Some(tag));
        }
        assert_eq!(ValueTag::from_u8(200), None);
    }

    #[test]
    fn heap_size_counts_arrays_only() {
        assert_eq!(PropertyValue::Int(1).heap_size(), 0);
        assert_eq!(PropertyValue::IntArray(Box::new([1, 2, 3])).heap_size(), 24);
    }

    #[test]
    fn value_is_24_bytes() {
        assert_eq!(std::mem::size_of::<PropertyValue>(), 24);
    }
}
