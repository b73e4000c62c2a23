//! The string store (paper Sec. 4.2).
//!
//! "Instead of storing the strings directly in disk records, we replace them
//! with a reference (4 bytes) to a string store, substantially lowering the
//! size of labels and properties."
//!
//! [`Interner`] is a concurrent append-only string table. Interning the same
//! string twice returns the same [`StrId`], and ids are dense.

use crate::ids::StrId;
use lock::{Rank, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Default)]
struct Inner {
    strings: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, StrId>,
}

/// Concurrent, append-only string interner backing labels, property keys and
/// string property values.
pub struct Interner {
    inner: RwLock<Inner>,
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            inner: RwLock::new(Rank::Interner, Inner::default()),
        }
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its stable 4-byte reference.
    pub fn intern(&self, s: &str) -> StrId {
        if let Some(id) = self.inner.read().lookup.get(s) {
            return *id;
        }
        let mut inner = self.inner.write();
        // Double-checked: another thread may have interned between locks.
        if let Some(id) = inner.lookup.get(s) {
            return *id;
        }
        let id = StrId::new(u32::try_from(inner.strings.len()).expect("string store overflow"));
        let arc: Arc<str> = Arc::from(s);
        inner.strings.push(arc.clone());
        inner.lookup.insert(arc, id);
        id
    }

    /// Looks up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<StrId> {
        self.inner.read().lookup.get(s).copied()
    }

    /// Resolves a reference back to its string.
    pub fn resolve(&self, id: StrId) -> Option<Arc<str>> {
        self.inner.read().strings.get(id.raw() as usize).cloned()
    }

    /// Number of distinct strings stored.
    pub fn len(&self) -> usize {
        self.inner.read().strings.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap usage in bytes (Table 3 style accounting).
    pub fn heap_size(&self) -> usize {
        let inner = self.inner.read();
        inner
            .strings
            .iter()
            .map(|s| s.len() + std::mem::size_of::<Arc<str>>() * 2)
            .sum()
    }
}

impl std::fmt::Debug for Interner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let it = Interner::new();
        let a = it.intern("Person");
        let b = it.intern("KNOWS");
        let a2 = it.intern("Person");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(a).as_deref(), Some("Person"));
        assert_eq!(it.resolve(StrId::new(99)), None);
    }

    #[test]
    fn get_does_not_insert() {
        let it = Interner::new();
        assert_eq!(it.get("nope"), None);
        assert!(it.is_empty());
        it.intern("yes");
        assert_eq!(it.get("yes"), Some(StrId::new(0)));
    }

    #[test]
    fn concurrent_interning_yields_consistent_ids() {
        let it = std::sync::Arc::new(Interner::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let it = it.clone();
            handles.push(std::thread::spawn(move || {
                (0..100).map(|i| it.intern(&format!("s{}", i % 10))).count()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(it.len(), 10);
    }
}
