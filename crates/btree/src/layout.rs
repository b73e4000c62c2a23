//! Slotted-page layout shared by leaf and internal nodes.
//!
//! ```text
//! off  0  u8   node type (1 = leaf, 2 = internal)
//! off  2  u16  cell count
//! off  4  u16  cell data start (lowest used byte; cells grow downward)
//! off  8  u64  leaf: right sibling page | internal: leftmost child page
//! off 16  u16  × ncells  slot directory (cell offsets, key-sorted)
//! ...          free space
//! ...          cells, packed towards PAGE_SIZE
//! ```
//!
//! Leaf cell:
//!
//! ```text
//! cell     = varint(klen) varint(vlen << 1 | overflow) key payload
//! payload  = value                 ; overflow = 0: vlen value bytes inline
//!          | u64 overflow page     ; overflow = 1: the chain holds vlen bytes
//! varint   = LEB128, low 7 bits first, at most 5 bytes
//! ```
//!
//! A LineageStore cell (a 16-byte history key or a neighbour key of at most
//! 36 bytes, value under 64 bytes) spends
//! two header bytes; a longer key or value only widens its own varint.
//!
//! Internal cell:  `u16 klen, u64 child, key`

use pagestore::{PageBuf, PAGE_SIZE};
use std::cmp::Ordering;

/// Node type tag for leaves.
pub const LEAF: u8 = 1;
/// Node type tag for internal nodes.
pub const INTERNAL: u8 = 2;

const TYPE_OFF: usize = 0;
const NCELLS_OFF: usize = 2;
const DATA_START_OFF: usize = 4;
const LINK_OFF: usize = 8;
/// First byte of the slot directory.
pub const SLOTS_OFF: usize = 16;

/// Widest varint a leaf-cell header holds: 5 bytes carry 35 bits, enough
/// for `u32::MAX << 1 | 1`.
const MAX_VARINT: usize = 5;

/// Initializes a page as an empty node of the given type.
pub fn init(page: &mut PageBuf, node_type: u8) {
    page.bytes_mut().fill(0);
    page.bytes_mut()[TYPE_OFF] = node_type;
    page.write_u16(NCELLS_OFF, 0);
    page.write_u16(DATA_START_OFF, PAGE_SIZE as u16);
    page.write_u64(LINK_OFF, u64::MAX);
}

/// The node type byte.
pub fn node_type(page: &PageBuf) -> u8 {
    page.bytes()[TYPE_OFF]
}

/// Number of cells.
pub fn ncells(page: &PageBuf) -> usize {
    page.read_u16(NCELLS_OFF) as usize
}

/// The link field: right sibling (leaf) or leftmost child (internal).
pub fn link(page: &PageBuf) -> u64 {
    page.read_u64(LINK_OFF)
}

/// Sets the link field.
pub fn set_link(page: &mut PageBuf, v: u64) {
    page.write_u64(LINK_OFF, v);
}

fn data_start(page: &PageBuf) -> usize {
    page.read_u16(DATA_START_OFF) as usize
}

fn slot(page: &PageBuf, i: usize) -> usize {
    page.read_u16(SLOTS_OFF + i * 2) as usize
}

fn read_u16_at(b: &[u8], off: usize) -> u16 {
    let mut a = [0u8; 2];
    a.copy_from_slice(&b[off..off + 2]);
    u16::from_le_bytes(a)
}

fn read_u64_at(b: &[u8], off: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(a)
}

/// Contiguous free bytes between the slot directory and the cell heap.
pub fn free_space(page: &PageBuf) -> usize {
    data_start(page).saturating_sub(SLOTS_OFF + ncells(page) * 2)
}

/// Reserves `size` heap bytes for a new cell at slot `i`, shifting the slot
/// directory right of `i`; returns the cell's offset. The caller must have
/// ensured enough contiguous free space (see [`free_space`] / [`compact`]).
fn reserve(page: &mut PageBuf, i: usize, size: usize) -> usize {
    debug_assert!(free_space(page) >= size + 2, "caller must ensure space");
    let n = ncells(page);
    let start = data_start(page) - size;
    page.bytes_mut()
        .copy_within(SLOTS_OFF + i * 2..SLOTS_OFF + n * 2, SLOTS_OFF + i * 2 + 2);
    page.write_u16(SLOTS_OFF + i * 2, start as u16);
    page.write_u16(NCELLS_OFF, (n + 1) as u16);
    page.write_u16(DATA_START_OFF, start as u16);
    start
}

/// Drops slot `i` from the directory (its heap bytes become garbage until
/// the next [`compact`]).
fn unslot(page: &mut PageBuf, i: usize) {
    let n = ncells(page);
    page.bytes_mut().copy_within(
        SLOTS_OFF + (i + 1) * 2..SLOTS_OFF + n * 2,
        SLOTS_OFF + i * 2,
    );
    page.write_u16(NCELLS_OFF, (n - 1) as u16);
}

/// Drops every cell from slot `i` on, leaf or internal (their heap bytes
/// become garbage until the next [`compact`]). The dropped directory entries
/// are left holding the last cell's offset, as dropping the cells one
/// [`unslot`] at a time would leave them, so the page bytes do not depend on
/// the way the cells were dropped.
pub fn truncate(page: &mut PageBuf, i: usize) {
    let n = ncells(page);
    let Some(last) = n.checked_sub(1).filter(|&last| i <= last) else {
        return;
    };
    let last_off = page.read_u16(SLOTS_OFF + last * 2);
    for j in i..last {
        page.write_u16(SLOTS_OFF + j * 2, last_off);
    }
    page.write_u16(NCELLS_OFF, i as u16);
}

// ------------------------------------------------------------------ varints

fn varint_len(mut v: u64) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

/// Writes `v` at the start of `out`; returns the bytes written.
fn put_varint(out: &mut [u8], mut v: u64) -> usize {
    let mut i = 0;
    while v >= 0x80 {
        out[i] = (v as u8) | 0x80;
        v >>= 7;
        i += 1;
    }
    out[i] = v as u8;
    i + 1
}

/// Reads the varint at `b[*pos..]`, advancing `pos`: `None` when it runs
/// past the end of `b` or past [`MAX_VARINT`] bytes. A one-byte varint
/// (every length below 128) takes the first branch.
#[inline]
fn read_varint(b: &[u8], pos: &mut usize) -> Option<u64> {
    let first = *b.get(*pos)?;
    *pos += 1;
    if first < 0x80 {
        return Some(u64::from(first));
    }
    let mut v = u64::from(first & 0x7f);
    for shift in (7..7 * MAX_VARINT as u32).step_by(7) {
        let byte = *b.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Some(v);
        }
    }
    None
}

// ---------------------------------------------------------------- leaf cells

/// The decoded header of one leaf cell.
#[derive(Clone, Copy, Default)]
struct Header {
    klen: usize,
    vlen: usize,
    overflow: bool,
    /// Offset of the key's first byte (just past the two varints).
    key_off: usize,
}

impl Header {
    fn inline_len(&self) -> usize {
        if self.overflow {
            8
        } else {
            self.vlen
        }
    }

    /// One past the cell's last byte.
    fn end(&self) -> usize {
        self.key_off + self.klen + self.inline_len()
    }
}

fn read_header(b: &[u8], off: usize) -> Option<Header> {
    let mut pos = off;
    let klen = read_varint(b, &mut pos)? as usize;
    let field = read_varint(b, &mut pos)?;
    Some(Header {
        klen,
        vlen: (field >> 1) as usize,
        overflow: field & 1 != 0,
        key_off: pos,
    })
}

/// The header of the cell at `off` on a page the tree wrote itself; an
/// undecodable header reads as an empty cell rather than panicking.
#[inline]
fn header(page: &PageBuf, off: usize) -> Header {
    // Every key comparison lands here. A key under 128 bytes with an
    // inline value under 64 (every neighbour cell, most
    // history cells) has two one-byte varints: decode them without the
    // general loop.
    if let Some(&[klen, field]) = page.bytes().get(off..off + 2) {
        if (klen | field) < 0x80 {
            return Header {
                klen: usize::from(klen),
                vlen: usize::from(field >> 1),
                overflow: field & 1 != 0,
                key_off: off + 2,
            };
        }
    }
    read_header(page.bytes(), off).unwrap_or(Header {
        key_off: off,
        ..Header::default()
    })
}

/// Bytes needed for a leaf cell holding a `klen`-byte key and a `vlen`-byte
/// value, inline or (with `overflow`) behind an 8-byte chain pointer.
pub fn leaf_cell_size(klen: usize, vlen: usize, overflow: bool) -> usize {
    let field = (vlen as u64) << 1 | u64::from(overflow);
    let inline = if overflow { 8 } else { vlen };
    varint_len(klen as u64) + varint_len(field) + klen + inline
}

/// A decoded view of one leaf cell.
pub struct LeafCell<'a> {
    overflow: bool,
    /// The key bytes.
    pub key: &'a [u8],
    /// Logical value length (may exceed the inline payload when overflowed).
    pub vlen: usize,
    /// Inline payload: value bytes, or the 8-byte overflow page id.
    pub inline: &'a [u8],
}

impl LeafCell<'_> {
    /// Whether the value is in an overflow chain.
    pub fn is_overflow(&self) -> bool {
        self.overflow
    }

    /// The overflow chain head (only valid when [`Self::is_overflow`]).
    pub fn overflow_page(&self) -> u64 {
        read_u64_at(self.inline, 0)
    }
}

fn leaf_cell_at(b: &[u8], h: Header) -> LeafCell<'_> {
    let inline_off = h.key_off + h.klen;
    LeafCell {
        overflow: h.overflow,
        key: &b[h.key_off..inline_off],
        vlen: h.vlen,
        inline: &b[inline_off..h.end()],
    }
}

/// Reads leaf cell `i`.
pub fn leaf_cell(page: &PageBuf, i: usize) -> LeafCell<'_> {
    let h = header(page, slot(page, i));
    leaf_cell_at(page.bytes(), h)
}

/// Key of leaf cell `i` (avoids decoding the value).
pub fn leaf_key(page: &PageBuf, i: usize) -> &[u8] {
    let h = header(page, slot(page, i));
    &page.bytes()[h.key_off..h.key_off + h.klen]
}

/// The raw bytes of leaf cell `i`, header included, for moving it to
/// another page with [`leaf_insert_raw`].
pub fn leaf_cell_bytes(page: &PageBuf, i: usize) -> &[u8] {
    let off = slot(page, i);
    &page.bytes()[off..header(page, off).end()]
}

/// Orders two keys as `a.cmp(b)` does, eight bytes at a time: each word is
/// read big-endian, so comparing words compares the bytes in order. Keys
/// are short (a LineageStore key is 4–36 bytes), where a `memcmp` call
/// costs more than the comparison itself.
#[inline]
pub fn cmp_keys(a: &[u8], b: &[u8]) -> Ordering {
    let (mut wa, mut wb) = (a.chunks_exact(8), b.chunks_exact(8));
    for (x, y) in (&mut wa).zip(&mut wb) {
        let (x, y) = (be_word(x), be_word(y));
        if x != y {
            return x.cmp(&y);
        }
    }
    // At least one side has fewer than eight bytes left.
    let done = a.len().min(b.len()) / 8 * 8;
    for (x, y) in a[done..].iter().zip(&b[done..]) {
        if x != y {
            return x.cmp(y);
        }
    }
    a.len().cmp(&b.len())
}

/// An eight-byte chunk as a big-endian word.
#[inline]
fn be_word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(chunk);
    u64::from_be_bytes(w)
}

/// Binary search among leaf keys. `Ok(i)` exact hit, `Err(i)` insert slot.
pub fn leaf_search(page: &PageBuf, key: &[u8]) -> Result<usize, usize> {
    let n = ncells(page);
    let mut lo = 0;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match cmp_keys(leaf_key(page, mid), key) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Whether `at` is still what [`leaf_search`] would return for `key`, judged
/// by the one or two cells around it: an O(1) check that an earlier search
/// of this page stands.
pub fn placed_at(page: &PageBuf, key: &[u8], at: Result<usize, usize>) -> bool {
    let n = ncells(page);
    let cmp_at = |i: usize| cmp_keys(leaf_key(page, i), key);
    match at {
        Ok(i) => i < n && cmp_at(i) == Ordering::Equal,
        Err(i) => {
            i <= n
                && (i == 0 || cmp_at(i - 1) == Ordering::Less)
                && (i == n || cmp_at(i) == Ordering::Greater)
        }
    }
}

/// Inserts a leaf cell at slot index `i`: `inline` is the value, or the
/// overflow chain head when `overflow` is set. The caller must have ensured
/// enough contiguous free space (see [`free_space`] / [`compact`]).
pub fn leaf_insert(
    page: &mut PageBuf,
    i: usize,
    overflow: bool,
    key: &[u8],
    vlen: u32,
    inline: &[u8],
) {
    let size = leaf_cell_size(key.len(), vlen as usize, overflow);
    let start = reserve(page, i, size);
    let cell = &mut page.bytes_mut()[start..start + size];
    let mut pos = put_varint(cell, key.len() as u64);
    pos += put_varint(&mut cell[pos..], u64::from(vlen) << 1 | u64::from(overflow));
    cell[pos..pos + key.len()].copy_from_slice(key);
    cell[pos + key.len()..].copy_from_slice(inline);
}

/// Inserts a cell taken from [`leaf_cell_bytes`] at slot index `i`.
pub fn leaf_insert_raw(page: &mut PageBuf, i: usize, raw: &[u8]) {
    let start = reserve(page, i, raw.len());
    page.bytes_mut()[start..start + raw.len()].copy_from_slice(raw);
}

/// Removes leaf cell `i` (slot only; heap bytes become garbage until the
/// next [`compact`]).
pub fn leaf_remove(page: &mut PageBuf, i: usize) {
    unslot(page, i);
}

// ------------------------------------------------------- checked accessors
//
// The verifier walks pages that may be arbitrarily corrupt, so it cannot
// use the trusting accessors above (whose slicing panics on out-of-range
// offsets). These duplicates bounds-check every step and return `None`
// instead.

/// Bounds-checked slot lookup: `None` when the slot directory itself runs
/// past the page or the stored offset points outside the page.
pub fn checked_slot(page: &PageBuf, i: usize) -> Option<usize> {
    let slot_off = SLOTS_OFF.checked_add(i.checked_mul(2)?)?;
    if slot_off + 2 > PAGE_SIZE {
        return None;
    }
    let off = page.read_u16(slot_off) as usize;
    (off < PAGE_SIZE).then_some(off)
}

/// Bounds-checked leaf cell decode: `None` for a varint that is truncated
/// by the page end or longer than five bytes, and for a key or payload
/// running past the page.
pub fn checked_leaf_cell(page: &PageBuf, i: usize) -> Option<LeafCell<'_>> {
    let off = checked_slot(page, i)?;
    let b = page.bytes();
    let h = read_header(b, off)?;
    let end = h.key_off.checked_add(h.klen)?.checked_add(h.inline_len())?;
    (end <= PAGE_SIZE).then(|| leaf_cell_at(b, h))
}

/// Bounds-checked internal cell decode into `(key, child)`.
pub fn checked_internal_cell(page: &PageBuf, i: usize) -> Option<(&[u8], u64)> {
    let off = checked_slot(page, i)?;
    let b = page.bytes();
    if off + 10 > PAGE_SIZE {
        return None;
    }
    let klen = read_u16_at(b, off) as usize;
    let child = read_u64_at(b, off + 2);
    let end = off.checked_add(10)?.checked_add(klen)?;
    if end > PAGE_SIZE {
        return None;
    }
    Some((&b[off + 10..end], child))
}

// ------------------------------------------------------------ internal cells

/// Bytes needed for an internal cell with a `klen`-byte separator key.
pub fn internal_cell_size(klen: usize) -> usize {
    2 + 8 + klen
}

/// Key of internal cell `i`.
pub fn internal_key(page: &PageBuf, i: usize) -> &[u8] {
    let off = slot(page, i);
    let b = page.bytes();
    let klen = read_u16_at(b, off) as usize;
    &b[off + 10..off + 10 + klen]
}

/// Child pointer of internal cell `i`.
pub fn internal_child(page: &PageBuf, i: usize) -> u64 {
    let off = slot(page, i);
    read_u64_at(page.bytes(), off + 2)
}

/// The child page that covers `key`: the last cell whose separator key is
/// `<= key`, or the leftmost child (the link field) when all separators are
/// greater.
pub fn internal_descend(page: &PageBuf, key: &[u8]) -> (isize, u64) {
    let n = ncells(page);
    let mut lo = 0;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cmp_keys(internal_key(page, mid), key) != Ordering::Greater {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        (-1, link(page))
    } else {
        ((lo - 1) as isize, internal_child(page, lo - 1))
    }
}

/// Inserts an internal cell at slot `i`.
pub fn internal_insert(page: &mut PageBuf, i: usize, key: &[u8], child: u64) {
    let size = internal_cell_size(key.len());
    let start = reserve(page, i, size);
    let cell = &mut page.bytes_mut()[start..start + size];
    cell[..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    cell[2..10].copy_from_slice(&child.to_le_bytes());
    cell[10..].copy_from_slice(key);
}

// ----------------------------------------------------------------- compaction

/// Heap bytes of the cell at `off`.
fn cell_len(page: &PageBuf, off: usize, is_leaf: bool) -> usize {
    if is_leaf {
        header(page, off).end() - off
    } else {
        internal_cell_size(read_u16_at(page.bytes(), off) as usize)
    }
}

/// Rewrites all live cells contiguously at the end of the page, reclaiming
/// garbage left by removals and in-place updates. The cells are read from
/// one copy of the page taken up front.
pub fn compact(page: &mut PageBuf) {
    let old = page.clone();
    let is_leaf = node_type(page) == LEAF;
    let mut pos = PAGE_SIZE;
    for i in 0..ncells(page) {
        let off = slot(&old, i);
        let len = cell_len(&old, off, is_leaf);
        pos -= len;
        page.bytes_mut()[pos..pos + len].copy_from_slice(&old.bytes()[off..off + len]);
        page.write_u16(SLOTS_OFF + i * 2, pos as u16);
    }
    page.write_u16(DATA_START_OFF, pos as u16);
}

/// Bytes in use after a [`compact`]: the node header, the slot directory
/// and every live cell. Decides whether a compaction would make an insert
/// fit, and measures how full a leaf is.
pub fn live_bytes(page: &PageBuf) -> usize {
    let n = ncells(page);
    let is_leaf = node_type(page) == LEAF;
    (0..n).fold(SLOTS_OFF + n * 2, |total, i| {
        total + cell_len(page, slot(page, i), is_leaf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn leaf_insert_search_remove() {
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        assert_eq!(ncells(&p), 0);
        // Insert keys out of order at their sorted slots.
        for key in [b"bb".as_slice(), b"aa", b"cc"] {
            let i = leaf_search(&p, key).unwrap_err();
            leaf_insert(&mut p, i, false, key, 1, &[key[0]]);
        }
        assert_eq!(ncells(&p), 3);
        assert_eq!(leaf_key(&p, 0), b"aa");
        assert_eq!(leaf_key(&p, 1), b"bb");
        assert_eq!(leaf_key(&p, 2), b"cc");
        assert_eq!(leaf_search(&p, b"bb"), Ok(1));
        assert_eq!(leaf_search(&p, b"b"), Err(1));
        let cell = leaf_cell(&p, 0);
        assert_eq!(cell.inline, b"a");
        assert!(!cell.is_overflow());
        leaf_remove(&mut p, 1);
        assert_eq!(ncells(&p), 2);
        assert_eq!(leaf_search(&p, b"bb"), Err(1));
    }

    #[test]
    fn compact_reclaims_garbage() {
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        let val = vec![7u8; 100];
        for i in 0..20u8 {
            let key = [i];
            let s = leaf_search(&p, &key).unwrap_err();
            leaf_insert(&mut p, s, false, &key, 100, &val);
        }
        let before = free_space(&p);
        for _ in 0..10 {
            leaf_remove(&mut p, 0);
        }
        compact(&mut p);
        assert!(free_space(&p) > before + 900);
        // Survivors intact.
        assert_eq!(ncells(&p), 10);
        assert_eq!(leaf_key(&p, 0), &[10u8]);
        assert_eq!(leaf_cell(&p, 9).inline, &val[..]);
    }

    /// Dropping cells one [`unslot`] at a time, then compacting through one
    /// `Vec` per live cell: what splits did before [`truncate`] and the
    /// single-copy [`compact`], kept as the reference they must match.
    fn drop_and_compact_cell_by_cell(page: &mut PageBuf, from: usize) {
        while ncells(page) > from {
            unslot(page, from);
        }
        let is_leaf = node_type(page) == LEAF;
        let cells: Vec<Vec<u8>> = (0..ncells(page))
            .map(|i| {
                let off = slot(page, i);
                page.bytes()[off..off + cell_len(page, off, is_leaf)].to_vec()
            })
            .collect();
        let mut pos = PAGE_SIZE;
        for (i, cell) in cells.iter().enumerate() {
            pos -= cell.len();
            page.bytes_mut()[pos..pos + cell.len()].copy_from_slice(cell);
            page.write_u16(SLOTS_OFF + i * 2, pos as u16);
        }
        page.write_u16(DATA_START_OFF, pos as u16);
    }

    proptest! {
        #[test]
        fn truncate_and_compact_write_the_bytes_the_reference_does(
            leaf in any::<bool>(),
            cells in vec((vec(any::<u8>(), 1..40), 0usize..120, any::<bool>(), any::<u64>()), 1..160),
            holes in vec(any::<usize>(), 0..24),
            cut in any::<usize>(),
        ) {
            let mut page = PageBuf::zeroed();
            init(&mut page, if leaf { LEAF } else { INTERNAL });
            for (key, vlen, overflow, word) in &cells {
                let overflow = leaf && *overflow;
                let size = if leaf {
                    leaf_cell_size(key.len(), *vlen, overflow)
                } else {
                    internal_cell_size(key.len())
                };
                if free_space(&page) < size + 2 {
                    break;
                }
                // Slot order does not matter to the byte layout.
                let i = (*word as usize) % (ncells(&page) + 1);
                if !leaf {
                    internal_insert(&mut page, i, key, *word);
                } else if overflow {
                    leaf_insert(&mut page, i, true, key, *vlen as u32, &word.to_le_bytes());
                } else {
                    leaf_insert(&mut page, i, false, key, *vlen as u32, &vec![*word as u8; *vlen]);
                }
            }
            // Removed cells leave garbage in the heap for compaction to skip.
            for hole in holes {
                let n = ncells(&page);
                if n > 1 {
                    unslot(&mut page, hole % n);
                }
            }
            let from = cut % (ncells(&page) + 1);
            let mut fast = page.clone();
            truncate(&mut fast, from);
            compact(&mut fast);
            drop_and_compact_cell_by_cell(&mut page, from);
            prop_assert!(fast.bytes()[..] == page.bytes()[..]);
        }
    }

    proptest! {
        #[test]
        fn cmp_keys_orders_like_slices(
            prefix in vec(any::<u8>(), 0..20),
            a in vec(0u8..3, 0..20),
            b in vec(0u8..3, 0..20),
        ) {
            // A shared prefix and a small alphabet make ties and keys that
            // are prefixes of each other common.
            let a = [&prefix[..], &a[..]].concat();
            let b = [&prefix[..], &b[..]].concat();
            prop_assert_eq!(cmp_keys(&a, &b), a.cmp(&b));
            prop_assert_eq!(cmp_keys(&b, &a), b.cmp(&a));
            prop_assert_eq!(cmp_keys(&a, &a), Ordering::Equal);
        }
    }

    #[test]
    fn internal_descend_picks_correct_child() {
        let mut p = PageBuf::zeroed();
        init(&mut p, INTERNAL);
        set_link(&mut p, 100); // leftmost child
        internal_insert(&mut p, 0, b"g", 200);
        internal_insert(&mut p, 1, b"p", 300);
        assert_eq!(internal_descend(&p, b"a").1, 100);
        assert_eq!(internal_descend(&p, b"g").1, 200);
        assert_eq!(internal_descend(&p, b"k").1, 200);
        assert_eq!(internal_descend(&p, b"p").1, 300);
        assert_eq!(internal_descend(&p, b"z").1, 300);
        assert_eq!(internal_key(&p, 0), b"g");
        assert_eq!(internal_child(&p, 1), 300);
    }

    #[test]
    fn live_bytes_tracks_payload() {
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        let empty = live_bytes(&p);
        leaf_insert(&mut p, 0, false, b"key", 5, b"value");
        assert_eq!(live_bytes(&p), empty + 2 + leaf_cell_size(3, 5, false));
        assert_eq!(leaf_cell_size(3, 5, false), 2 + 3 + 5, "two header bytes");
    }

    #[test]
    fn header_varints_widen_at_their_boundaries() {
        // vlen << 1 | overflow fits one byte up to vlen 63.
        assert_eq!(leaf_cell_size(16, 63, false), 2 + 16 + 63);
        assert_eq!(leaf_cell_size(16, 64, false), 3 + 16 + 64);
        assert_eq!(leaf_cell_size(127, 0, false), 2 + 127);
        assert_eq!(leaf_cell_size(128, 0, false), 3 + 128);
        assert_eq!(leaf_cell_size(4, 5000, true), 1 + 2 + 4 + 8);
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        let cases: [(usize, usize); 6] = [
            (1, 0),
            (127, 63),
            (128, 64),
            (512, 1024),
            (4, 8191),
            (200, 129),
        ];
        for (n, (klen, vlen)) in cases.into_iter().enumerate() {
            let key = vec![n as u8; klen];
            let overflow = vlen > 1024;
            let inline = if overflow {
                7u64.to_le_bytes().to_vec()
            } else {
                vec![0xA5; vlen]
            };
            leaf_insert(&mut p, n, overflow, &key, vlen as u32, &inline);
            let cell = checked_leaf_cell(&p, n).expect("decodes");
            assert_eq!((cell.key, cell.vlen), (&key[..], vlen));
            assert_eq!((cell.is_overflow(), cell.inline), (overflow, &inline[..]));
            assert_eq!(
                leaf_cell_bytes(&p, n).len(),
                leaf_cell_size(klen, vlen, overflow)
            );
        }
    }

    #[test]
    fn raw_cells_move_between_pages() {
        let mut a = PageBuf::zeroed();
        let mut b = PageBuf::zeroed();
        init(&mut a, LEAF);
        init(&mut b, LEAF);
        leaf_insert(&mut a, 0, false, &[9; 300], 70, &[1; 70]);
        leaf_insert_raw(&mut b, 0, leaf_cell_bytes(&a, 0));
        let cell = leaf_cell(&b, 0);
        assert_eq!((cell.key, cell.inline), (&[9u8; 300][..], &[1u8; 70][..]));
    }

    /// A page with one leaf cell at the very end whose header bytes are
    /// `header`.
    fn page_with_cell_header(header: &[u8]) -> PageBuf {
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        let off = PAGE_SIZE - header.len();
        p.bytes_mut()[off..].copy_from_slice(header);
        p.write_u16(SLOTS_OFF, off as u16);
        p.write_u16(NCELLS_OFF, 1);
        p.write_u16(DATA_START_OFF, off as u16);
        p
    }

    #[test]
    fn malformed_varints_are_rejected_not_panicked_on() {
        // klen's varint is cut off by the page end.
        assert!(checked_leaf_cell(&page_with_cell_header(&[0x80]), 0).is_none());
        assert!(checked_leaf_cell(&page_with_cell_header(&[0x04, 0xFF, 0xFF]), 0).is_none());
        // Six bytes where at most five are allowed, for klen and for vlen.
        let long = [0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00];
        assert!(checked_leaf_cell(&page_with_cell_header(&long), 0).is_none());
        let long_vlen = [0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert!(checked_leaf_cell(&page_with_cell_header(&long_vlen), 0).is_none());
        // Well-formed header whose key runs past the page.
        assert!(checked_leaf_cell(&page_with_cell_header(&[0x10, 0x00]), 0).is_none());
        // The trusting accessors read such a cell as empty.
        let p = page_with_cell_header(&long);
        assert!(leaf_key(&p, 0).is_empty());
        assert_eq!(live_bytes(&p), SLOTS_OFF + 2);
        // The smallest valid cell still decodes.
        let p = page_with_cell_header(&[0x00, 0x00]);
        let cell = checked_leaf_cell(&p, 0).unwrap();
        assert!(cell.key.is_empty() && cell.inline.is_empty());
    }
}
