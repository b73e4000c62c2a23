//! Deep structural verification of one B+Tree (the core of `aion-fsck`).
//!
//! [`BTree::verify`] walks every page reachable from the root with
//! bounds-checked decoding (a corrupt page yields a violation, never a
//! panic) and checks, per the on-disk invariants:
//!
//! * node types are valid and internal levels are homogeneous;
//! * a leaf's prefix stays inside its page, and its keys — prefix and
//!   suffix together — are strictly increasing, as are every node's;
//! * internal separator keys bound their subtrees (`sep(i) <= min(child
//!   i+1)` and children left of `sep(i)` stay below it);
//! * the leaf sibling chain visits exactly the in-order leaves and key
//!   ranges stay monotone across the chain;
//! * overflow chains are acyclic, in-bounds and deliver exactly the
//!   declared value length.
//!
//! The report also returns the set of reachable pages, which
//! [`audit_page_file`] reconciles against the free list of the file every
//! tree shares (leak / double-use detection), and counts the leaves and
//! their live bytes, so `aion-fsck` can print how full each index's pages
//! are ([`TreeFill`]).
//!
//! [`audit_page_file`] is the structural pass of every store audit, and
//! [`Finding`] the one type every auditor above this crate reports in.

use crate::layout;
use crate::tree::BTree;
use pagestore::{PageId, PageStore, PAGE_SIZE};
use std::collections::BTreeSet;
use std::fmt;
use std::io;

/// Classes of structural violation [`BTree::verify`] can report.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifyClass {
    /// Keys out of order within a node or across the leaf sibling chain.
    KeyOrder,
    /// The leaf sibling chain diverges from the in-order leaf sequence.
    SiblingChain,
    /// A broken, cyclic or length-inconsistent overflow chain.
    OverflowChain,
    /// Undecodable page content: bad node type, out-of-bounds cell, child
    /// pointer outside the file, or a cycle in the tree itself.
    Structure,
}

impl fmt::Display for VerifyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VerifyClass::KeyOrder => "key-order",
            VerifyClass::SiblingChain => "sibling-chain",
            VerifyClass::OverflowChain => "overflow-chain",
            VerifyClass::Structure => "structure",
        };
        f.write_str(s)
    }
}

/// One invariant violation found during verification.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The violated invariant class.
    pub class: VerifyClass,
    /// Page where the violation was observed.
    pub page: u64,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] page {}: {}", self.class, self.page, self.detail)
    }
}

/// The result of [`BTree::verify`].
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Every violation found (empty = structurally sound).
    pub violations: Vec<Violation>,
    /// Pages reachable from this tree's root (tree nodes + overflow pages).
    pub reachable: BTreeSet<u64>,
    /// Number of live leaf entries seen.
    pub entries: u64,
    /// Number of leaf pages seen.
    pub leaves: u64,
    /// Bytes in use on those leaves: node headers, slot directories and
    /// live cells ([`crate::layout::live_bytes`]).
    pub leaf_live_bytes: u64,
    /// Tree height observed on the leftmost path (0 when the root is
    /// undecodable).
    pub height: u32,
}

impl VerifyReport {
    /// Whether no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The tree's size and leaf fill.
    pub fn fill(&self) -> TreeFill {
        TreeFill {
            pages: self.reachable.len() as u64,
            leaves: self.leaves,
            leaf_live_bytes: self.leaf_live_bytes,
        }
    }

    fn push(&mut self, class: VerifyClass, page: u64, detail: String) {
        self.violations.push(Violation {
            class,
            page,
            detail,
        });
    }
}

/// How many pages one tree takes and how full its leaves are — the number
/// a denser page layout or split policy moves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeFill {
    /// Pages reachable from the root: tree nodes plus overflow pages.
    pub pages: u64,
    /// Leaf pages.
    pub leaves: u64,
    /// Bytes in use on the leaves.
    pub leaf_live_bytes: u64,
}

impl TreeFill {
    /// Share of the leaf pages' bytes in use, in `[0, 1]`.
    pub fn leaf_fill(&self) -> f64 {
        if self.leaves == 0 {
            return 0.0;
        }
        self.leaf_live_bytes as f64 / (self.leaves * PAGE_SIZE as u64) as f64
    }
}

impl fmt::Display for TreeFill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pages, {} leaves, leaf fill {:.1} %",
            self.pages,
            self.leaves,
            self.leaf_fill() * 100.0
        )
    }
}

/// One audit finding: a named invariant and what was observed.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Short machine-matchable invariant name, e.g. `"chain/interval"`.
    pub check: &'static str,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl Finding {
    /// A finding of `check` with `detail`.
    pub fn new(check: &'static str, detail: impl Into<String>) -> Finding {
        Finding {
            check,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

/// What an audit found.
#[derive(Clone, Debug, Default)]
pub struct Audit {
    /// Every violation (empty = consistent).
    pub findings: Vec<Finding>,
    /// Pages and leaf fill of each index, in the order they were verified.
    pub fill: Vec<(&'static str, TreeFill)>,
}

/// The structural pass over one page file. Verifies each tree of `trees`,
/// given as `(index name, check name, tree)` and together every tree
/// `store` holds, reporting each [`Violation`] under the tree's check
/// name; then reconciles the file's free list against the pages the trees
/// and the meta page reach, reporting each discrepancy under
/// `accounting`. IO errors abort the pass; corruption is reported.
pub fn audit_page_file(
    store: &PageStore,
    trees: &[(&'static str, &'static str, &BTree)],
    accounting: &'static str,
) -> io::Result<Audit> {
    let mut audit = Audit::default();
    let mut reachable = BTreeSet::from([PageId::META.0]);
    for &(name, check, tree) in trees {
        let report = tree.verify()?;
        for v in &report.violations {
            audit.findings.push(Finding::new(check, v.to_string()));
        }
        audit.fill.push((name, report.fill()));
        reachable.extend(report.reachable);
    }
    for problem in store.reconcile_free_list(&reachable)? {
        audit.findings.push(Finding::new(accounting, problem));
    }
    Ok(audit)
}

/// An optional key bound inherited from a parent separator.
type KeyBound = Option<Vec<u8>>;
/// One frame of the in-order walk: (page, low bound, high bound, depth).
type WalkFrame = (u64, KeyBound, KeyBound, u32);

impl BTree {
    /// Deep structural verification; see the module docs for the invariant
    /// list. IO errors abort the walk; corruption never panics.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        let store = self.store();
        let page_count = store.page_count();
        let root = PageId(store.root(self.slot()));
        if root.is_null() {
            // Never-opened slot: an empty tree is vacuously sound.
            return Ok(report);
        }
        if root.0 >= page_count {
            report.push(
                VerifyClass::Structure,
                root.0,
                format!("root pointer {} outside file of {page_count} pages", root.0),
            );
            return Ok(report);
        }

        // In-order walk collecting (leaf page, sibling link); key-range
        // bounds propagate down.
        let mut leaves: Vec<(u64, u64)> = Vec::new();
        let mut stack: Vec<WalkFrame> = vec![(root.0, None, None, 1)];
        while let Some((page, low, high, depth)) = stack.pop() {
            if !report.reachable.insert(page) {
                report.push(
                    VerifyClass::Structure,
                    page,
                    "page reached twice (tree cycle or shared child)".into(),
                );
                continue;
            }
            if page >= page_count {
                report.push(
                    VerifyClass::Structure,
                    page,
                    format!("child pointer outside file of {page_count} pages"),
                );
                continue;
            }
            report.height = report.height.max(depth);
            enum Node {
                Leaf {
                    keys: Vec<Vec<u8>>,
                    link: u64,
                    overflows: Vec<(u64, usize)>,
                    live: usize,
                },
                Internal {
                    seps: Vec<(Vec<u8>, u64)>,
                    leftmost: u64,
                },
                Bad(String),
            }
            let node = store.read(PageId(page), |p| {
                let ncells = layout::ncells(p);
                if layout::SLOTS_OFF + ncells * 2 > PAGE_SIZE {
                    return Node::Bad(format!("cell count {ncells} overruns the page"));
                }
                match layout::node_type(p) {
                    layout::LEAF => {
                        if layout::checked_prefix(p).is_none() {
                            let plen = layout::prefix_len(p);
                            return Node::Bad(format!(
                                "leaf prefix of {plen} bytes runs past its page"
                            ));
                        }
                        let mut keys = Vec::with_capacity(ncells);
                        let mut overflows = Vec::new();
                        for i in 0..ncells {
                            match layout::checked_leaf_cell(p, i) {
                                Some(cell) => {
                                    if cell.is_overflow() {
                                        overflows.push((cell.overflow_page(), cell.vlen));
                                    }
                                    keys.push(cell.key.to_vec());
                                }
                                None => {
                                    return Node::Bad(format!(
                                        "leaf cell {i} of {ncells} is out of bounds"
                                    ))
                                }
                            }
                        }
                        Node::Leaf {
                            keys,
                            link: layout::link(p),
                            overflows,
                            // Every cell decoded above, so this sums sizes
                            // of in-bounds cells.
                            live: layout::live_bytes(p),
                        }
                    }
                    layout::INTERNAL => {
                        let mut seps = Vec::with_capacity(ncells);
                        for i in 0..ncells {
                            match layout::checked_internal_cell(p, i) {
                                Some((k, child)) => seps.push((k.to_vec(), child)),
                                None => {
                                    return Node::Bad(format!(
                                        "internal cell {i} of {ncells} is out of bounds"
                                    ))
                                }
                            }
                        }
                        Node::Internal {
                            seps,
                            leftmost: layout::link(p),
                        }
                    }
                    t => Node::Bad(format!("invalid node type {t}")),
                }
            })?;
            match node {
                Node::Bad(detail) => report.push(VerifyClass::Structure, page, detail),
                Node::Leaf {
                    keys,
                    link,
                    overflows,
                    live,
                } => {
                    leaves.push((page, link));
                    report.entries += keys.len() as u64;
                    report.leaves += 1;
                    report.leaf_live_bytes += live as u64;
                    check_key_order(&mut report, page, &keys, low.as_deref(), high.as_deref());
                    for (head, vlen) in overflows {
                        self.verify_overflow_chain(&mut report, page, head, vlen, page_count)?;
                    }
                }
                Node::Internal { seps, leftmost } => {
                    check_key_order(
                        &mut report,
                        page,
                        &seps.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
                        low.as_deref(),
                        high.as_deref(),
                    );
                    // Push children right-to-left so the stack pops them in
                    // key order; each child narrows its bounds.
                    let mut children: Vec<(u64, KeyBound, KeyBound)> = Vec::new();
                    let mut lower = low.clone();
                    let mut iter = seps.iter().peekable();
                    children.push((
                        leftmost,
                        lower.clone(),
                        iter.peek().map(|(k, _)| k.clone()).or_else(|| high.clone()),
                    ));
                    while let Some((sep, child)) = iter.next() {
                        lower = Some(sep.clone());
                        let upper = iter.peek().map(|(k, _)| k.clone()).or_else(|| high.clone());
                        children.push((*child, lower.clone(), upper));
                    }
                    for (child, lo, hi) in children.into_iter().rev() {
                        stack.push((child, lo, hi, depth + 1));
                    }
                }
            }
        }

        verify_sibling_chain(&mut report, &leaves);
        Ok(report)
    }

    /// Verifies one overflow chain: in-bounds pages, no cycle, and payload
    /// totalling exactly `vlen` bytes.
    fn verify_overflow_chain(
        &self,
        report: &mut VerifyReport,
        leaf: u64,
        head: u64,
        vlen: usize,
        page_count: u64,
    ) -> io::Result<()> {
        const DATA_OFF: usize = 10; // u64 next + u16 len (overflow layout)
        let store = self.store();
        let mut page = head;
        let mut total = 0usize;
        let max_pages = vlen / (PAGE_SIZE - DATA_OFF) + 2;
        let mut hops = 0usize;
        while page != u64::MAX {
            if page >= page_count {
                report.push(
                    VerifyClass::OverflowChain,
                    leaf,
                    format!("overflow page {page} outside file of {page_count} pages"),
                );
                return Ok(());
            }
            if !report.reachable.insert(page) {
                report.push(
                    VerifyClass::OverflowChain,
                    leaf,
                    format!("overflow page {page} referenced twice (cycle or sharing)"),
                );
                return Ok(());
            }
            hops += 1;
            if hops > max_pages {
                report.push(
                    VerifyClass::OverflowChain,
                    leaf,
                    format!("overflow chain exceeds {max_pages} pages for a {vlen}-byte value"),
                );
                return Ok(());
            }
            let (next, len) =
                store.read(PageId(page), |p| (p.read_u64(0), p.read_u16(8) as usize))?;
            if DATA_OFF + len > PAGE_SIZE {
                report.push(
                    VerifyClass::OverflowChain,
                    page,
                    format!("overflow chunk length {len} overruns the page"),
                );
                return Ok(());
            }
            total += len;
            page = next;
        }
        if total != vlen {
            report.push(
                VerifyClass::OverflowChain,
                leaf,
                format!("overflow chain delivers {total} bytes, cell declares {vlen}"),
            );
        }
        Ok(())
    }
}

/// Checks that each leaf's sibling link points at the next in-order leaf
/// and the last leaf terminates the chain. Uses the links captured during
/// the walk, so the chain is compared against the exact pages the in-order
/// traversal visited.
fn verify_sibling_chain(report: &mut VerifyReport, leaves: &[(u64, u64)]) {
    for pair in leaves.windows(2) {
        let ((page, link), (next, _)) = (pair[0], pair[1]);
        if link != next {
            report.push(
                VerifyClass::SiblingChain,
                page,
                format!("sibling link points at page {link}, in-order successor is {next}"),
            );
        }
    }
    if let Some(&(page, link)) = leaves.last() {
        if link != u64::MAX {
            report.push(
                VerifyClass::SiblingChain,
                page,
                format!("last leaf's sibling link is {link}, expected end-of-chain"),
            );
        }
    }
}

/// Checks that `keys` are strictly increasing and fall inside
/// `[low, high)` (bounds from the parent separators).
fn check_key_order(
    report: &mut VerifyReport,
    page: u64,
    keys: &[Vec<u8>],
    low: Option<&[u8]>,
    high: Option<&[u8]>,
) {
    for pair in keys.windows(2) {
        if pair[0] >= pair[1] {
            report.push(
                VerifyClass::KeyOrder,
                page,
                format!("keys out of order: {:?} !< {:?}", pair[0], pair[1]),
            );
        }
    }
    if let (Some(lo), Some(first)) = (low, keys.first()) {
        if first.as_slice() < lo {
            report.push(
                VerifyClass::KeyOrder,
                page,
                format!("first key {first:?} below parent separator {lo:?}"),
            );
        }
    }
    if let (Some(hi), Some(last)) = (high, keys.last()) {
        if last.as_slice() >= hi {
            report.push(
                VerifyClass::KeyOrder,
                page,
                format!("last key {last:?} not below parent separator {hi:?}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagestore::PageStore;
    use std::sync::Arc;
    use tempfile::tempdir;

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn healthy_tree_verifies_clean() {
        let dir = tempdir().unwrap();
        let store = Arc::new(PageStore::open(dir.path().join("t.db"), 64).unwrap());
        let t = BTree::open(store, 0).unwrap();
        for i in 0..5_000u64 {
            t.insert(&k(i), &(i * 2).to_le_bytes()).unwrap();
        }
        let r = t.verify().unwrap();
        assert!(r.is_clean(), "unexpected violations: {:?}", r.violations);
        assert_eq!(r.entries, 5_000);
        assert!(r.height >= 2);
        assert!(r.reachable.len() > 2);
        // 5 000 ascending cells of 2 + 2 + 8 bytes (each leaf's prefix
        // holds the keys' first six bytes) plus a 2-byte slot each, on
        // leaves that append splits leave full.
        let fill = r.fill();
        assert_eq!(fill.pages, r.reachable.len() as u64);
        assert!(fill.leaves >= 8 && fill.leaves < fill.pages);
        assert!(fill.leaf_live_bytes >= 5_000 * 14);
        assert!(fill.leaf_fill() > 0.9, "{fill}");
    }

    #[test]
    fn malformed_cell_header_reported_as_structure() {
        for header in [
            &[0x80u8][..],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00],
        ] {
            let dir = tempdir().unwrap();
            let store = Arc::new(PageStore::open(dir.path().join("t.db"), 64).unwrap());
            let t = BTree::open(store.clone(), 0).unwrap();
            t.insert(b"a", b"1").unwrap();
            let root = PageId(store.root(0));
            // Point the one cell at a varint that the page end truncates
            // or that runs longer than six bytes.
            store
                .write(root, |p| {
                    let off = PAGE_SIZE - header.len();
                    p.bytes_mut()[off..].copy_from_slice(header);
                    p.write_u16(layout::SLOTS_OFF, off as u16);
                })
                .unwrap();
            let r = t.verify().unwrap();
            assert!(
                r.violations
                    .iter()
                    .any(|v| v.class == VerifyClass::Structure),
                "{header:?}: {:?}",
                r.violations
            );
        }
    }

    #[test]
    fn healthy_overflow_values_verify_clean() {
        let dir = tempdir().unwrap();
        let store = Arc::new(PageStore::open(dir.path().join("t.db"), 64).unwrap());
        let t = BTree::open(store, 0).unwrap();
        // Three pages' worth of payload forces a multi-page overflow chain.
        t.insert(b"big", &vec![7u8; PAGE_SIZE * 3 + 5]).unwrap();
        let r = t.verify().unwrap();
        assert!(r.is_clean(), "unexpected violations: {:?}", r.violations);
        assert!(r.reachable.len() >= 4, "chain pages counted as reachable");
    }

    #[test]
    fn swapped_slots_reported_as_key_order() {
        let dir = tempdir().unwrap();
        let store = Arc::new(PageStore::open(dir.path().join("t.db"), 64).unwrap());
        let t = BTree::open(store.clone(), 0).unwrap();
        for i in 0..10u64 {
            t.insert(&k(i), b"v").unwrap();
        }
        let root = PageId(store.root(0));
        store
            .write(root, |p| {
                let a = p.read_u16(layout::SLOTS_OFF);
                let b = p.read_u16(layout::SLOTS_OFF + 2);
                p.write_u16(layout::SLOTS_OFF, b);
                p.write_u16(layout::SLOTS_OFF + 2, a);
            })
            .unwrap();
        let r = t.verify().unwrap();
        assert!(r
            .violations
            .iter()
            .any(|v| v.class == VerifyClass::KeyOrder));
    }

    /// A two-level tree of 5 000 ascending keys and its leaves' pages, the
    /// root's leftmost child first.
    fn two_level_tree() -> (tempfile::TempDir, Arc<PageStore>, BTree, Vec<PageId>) {
        let dir = tempdir().unwrap();
        let store = Arc::new(PageStore::open(dir.path().join("t.db"), 64).unwrap());
        let t = BTree::open(store.clone(), 0).unwrap();
        for i in 0..5_000u64 {
            t.insert(&k(i), b"v").unwrap();
        }
        assert_eq!(t.height().unwrap(), 2);
        let root = PageId(store.root(0));
        let leaves = store
            .read(root, |p| {
                let n = layout::ncells(p);
                let children = (0..n).map(|i| PageId(layout::internal_child(p, i)));
                std::iter::once(PageId(layout::link(p)))
                    .chain(children)
                    .collect()
            })
            .unwrap();
        (dir, store, t, leaves)
    }

    #[test]
    fn a_prefix_past_its_page_is_reported_as_structure() {
        let (_dir, store, t, leaves) = two_level_tree();
        store
            .write(leaves[1], |p| {
                p.write_u16(6, (PAGE_SIZE - layout::SLOTS_OFF) as u16)
            })
            .unwrap();
        let r = t.verify().unwrap();
        assert!(
            r.violations
                .iter()
                .any(|v| v.class == VerifyClass::Structure
                    && v.page == leaves[1].0
                    && v.detail.contains("leaf prefix of")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn a_damaged_prefix_moves_every_key_of_its_leaf_out_of_bounds() {
        let (_dir, store, t, leaves) = two_level_tree();
        // Every key of a middle leaf begins with six zero bytes; its
        // prefix holds them once. Raise the first: its cells now rebuild
        // to keys past the separator that bounds the leaf above.
        store
            .write(leaves[1], |p| {
                assert!(layout::prefix(p).len() >= 6, "{:?}", layout::prefix(p));
                let first = PAGE_SIZE - layout::prefix(p).len();
                p.bytes_mut()[first] = 0xFF;
            })
            .unwrap();
        let r = t.verify().unwrap();
        assert!(
            r.violations.iter().any(|v| v.class == VerifyClass::KeyOrder
                && v.page == leaves[1].0
                && v.detail.contains("not below parent separator")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn garbage_page_reported_as_structure() {
        let dir = tempdir().unwrap();
        let store = Arc::new(PageStore::open(dir.path().join("t.db"), 64).unwrap());
        let t = BTree::open(store.clone(), 0).unwrap();
        t.insert(b"a", b"1").unwrap();
        let root = PageId(store.root(0));
        store.write(root, |p| p.bytes_mut().fill(0xFF)).unwrap();
        let r = t.verify().unwrap();
        assert!(r
            .violations
            .iter()
            .any(|v| v.class == VerifyClass::Structure));
    }
}
