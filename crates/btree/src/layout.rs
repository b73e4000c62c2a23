//! Slotted-page layout shared by leaf and internal nodes.
//!
//! ```text
//! off  0  u8   node type (1 = leaf, 2 = internal)
//! off  2  u16  cell count
//! off  4  u16  cell data start (lowest used byte; cells grow downward)
//! off  6  u16  leaf: key prefix length | internal: 0
//! off  8  u64  leaf: right sibling page | internal: leftmost child page
//! off 16  u16  × ncells  slot directory (cell offsets, key-sorted)
//! ...          free space
//! ...          cells, packed towards the prefix
//! ...          leaf: the key prefix, the page's last bytes
//! ```
//!
//! Every key on a leaf begins with the leaf's prefix, which the page holds
//! once; a cell holds only the rest of its key, its suffix (leaf prefix
//! truncation, Bayer & Unterauer, "Prefix B-trees", 1977). A rebuild of
//! the page — a compaction, either half of a split, a new leaf — sets the
//! prefix to the longest common prefix of the first and last keys it
//! holds. An insert whose key does not begin with the prefix rebuilds the
//! page under the prefix the key shares with it, or, when the longer cells
//! no longer fit, splits the leaf ([`leaf_put`]). Keys leave the page
//! whole ([`Key`]).
//!
//! Leaf cell:
//!
//! ```text
//! cell     = varint(head) [varint(slen - 31)] suffix payload
//! head     = (vlen << 1 | overflow) << 5 | min(slen, 31)
//!                                  ; slen ≥ 31: the varint after head holds the rest
//! payload  = value                 ; overflow = 0: vlen value bytes inline
//!          | u64 overflow page     ; overflow = 1: the chain holds vlen bytes
//! varint   = LEB128, low 7 bits first, at most 6 bytes
//! ```
//!
//! One varint holds both lengths. A cell whose suffix is under 31 bytes and
//! whose value is empty or one byte inline — every LineageStore neighbour
//! cell — spends one header byte; a value of up to 255 bytes inline, two.
//! Against a varint for each length that is never more, except for a
//! suffix of 31 bytes or longer with a value of two or more bytes, which
//! spends one byte more. No LineageStore cell is one: a history key is at
//! most 18 bytes, and a neighbour cell's value at most one byte.
//!
//! Internal cell:  `u16 klen, u64 child, key`

use pagestore::{PageBuf, PAGE_SIZE};
use std::cmp::Ordering;
use std::ops::Range;

/// Node type tag for leaves.
pub const LEAF: u8 = 1;
/// Node type tag for internal nodes.
pub const INTERNAL: u8 = 2;

const TYPE_OFF: usize = 0;
const NCELLS_OFF: usize = 2;
const DATA_START_OFF: usize = 4;
const PREFIX_LEN_OFF: usize = 6;
const LINK_OFF: usize = 8;
/// First byte of the slot directory.
pub const SLOTS_OFF: usize = 16;

/// Widest varint a leaf-cell header holds: 6 bytes carry 42 bits, enough
/// for `(u32::MAX << 1 | 1) << SLEN_BITS | SLEN_ESCAPE`.
const MAX_VARINT: usize = 6;
/// The low bits of a leaf cell's `head` that hold its suffix length.
const SLEN_BITS: u32 = 5;
/// The suffix length in `head` that says the rest of it follows.
const SLEN_ESCAPE: u64 = (1 << SLEN_BITS) - 1;

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
/// `unslot` at a time would leave them, so the page bytes do not depend on
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

// ---------------------------------------------------------------- leaf keys

/// Bytes at the front that `a` and `b` share.
fn common_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A leaf key as its page holds it: the leaf's prefix, then the cell's
/// suffix. It compares and copies as the whole key.
#[derive(Clone, Copy, Debug)]
pub struct Key<'a> {
    /// The leaf's prefix.
    pub prefix: &'a [u8],
    /// The cell's own bytes.
    pub suffix: &'a [u8],
}

impl Key<'_> {
    /// Length of the whole key.
    pub fn len(&self) -> usize {
        self.prefix.len() + self.suffix.len()
    }

    /// Whether the whole key is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole key.
    pub fn to_vec(&self) -> Vec<u8> {
        [self.prefix, self.suffix].concat()
    }

    /// Writes the whole key to the front of `out`, which must hold it.
    pub fn copy_to(&self, out: &mut [u8]) {
        let p = self.prefix.len();
        out[..p].copy_from_slice(self.prefix);
        out[p..self.len()].copy_from_slice(self.suffix);
    }

    /// Orders the whole key against `other`, as [`cmp_keys`] orders two
    /// slices.
    #[inline]
    pub fn cmp_to(&self, other: &[u8]) -> Ordering {
        let p = self.prefix.len();
        // Equal only when `other` is at least as long as the prefix.
        match cmp_keys(self.prefix, &other[..p.min(other.len())]) {
            Ordering::Equal => cmp_keys(self.suffix, &other[p..]),
            unequal => unequal,
        }
    }

    /// Bytes at the front that the whole key shares with `other`.
    fn common_len(&self, other: &[u8]) -> usize {
        let p = self.prefix.len();
        match common_len(self.prefix, other) {
            shared if shared < p => shared,
            _ => p + common_len(self.suffix, &other[p..]),
        }
    }
}

/// Length of the prefix of leaf `page`, as its header records it.
pub fn prefix_len(page: &PageBuf) -> usize {
    page.read_u16(PREFIX_LEN_OFF) as usize
}

/// The prefix every key of leaf `page` begins with: the page's last
/// [`prefix_len`] bytes (a length past the page reads as the whole page).
pub fn prefix(page: &PageBuf) -> &[u8] {
    &page.bytes()[PAGE_SIZE.saturating_sub(prefix_len(page))..]
}

/// The prefix that cells `cells` of leaf `page` share: the longest common
/// prefix of the first and the last, empty for no cells.
fn shared_prefix(page: &PageBuf, cells: Range<usize>) -> Vec<u8> {
    let Some(last) = cells.end.checked_sub(1).filter(|&l| l >= cells.start) else {
        return Vec::new();
    };
    common_prefix(leaf_key(page, cells.start), leaf_key(page, last))
}

/// The longest common prefix of `first` and `last`: the prefix every key
/// between them begins with.
fn common_prefix(first: Key, last: Key) -> Vec<u8> {
    let mut out = first.to_vec();
    out.truncate(first.common_len(&last.to_vec()));
    out
}

// ---------------------------------------------------------------- leaf cells

/// The decoded header of one leaf cell.
#[derive(Clone, Copy, Default)]
struct Header {
    /// Length of the key's suffix.
    klen: usize,
    vlen: usize,
    overflow: bool,
    /// Offset of the suffix's first byte (just past the header).
    key_off: usize,
}

impl Header {
    /// The header whose `head` varint, `len` bytes long, starts at `off`,
    /// and whose suffix is shorter than [`SLEN_ESCAPE`].
    fn short(off: usize, head: u64, len: usize) -> Header {
        let field = head >> SLEN_BITS;
        Header {
            klen: (head & SLEN_ESCAPE) as usize,
            vlen: (field >> 1) as usize,
            overflow: field & 1 != 0,
            key_off: off + len,
        }
    }

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
    let head = read_varint(b, &mut pos)?;
    let mut h = Header::short(off, head, pos - off);
    if head & SLEN_ESCAPE == SLEN_ESCAPE {
        let rest = usize::try_from(read_varint(b, &mut pos)?).ok()?;
        h.klen = h.klen.checked_add(rest)?;
        h.key_off = pos;
    }
    Some(h)
}

/// The header of the cell at `off` on a page the tree wrote itself; an
/// undecodable header reads as an empty cell rather than panicking.
#[inline]
fn header(page: &PageBuf, off: usize) -> Header {
    // Every key comparison lands here. A LineageStore cell's `head` is one
    // byte (a neighbour cell) or two (a history cell), and its suffix is
    // shorter than the escape: decode those without the general loop.
    let b = page.bytes();
    let head = match b.get(off..off + 2) {
        Some(&[b0, _]) if b0 < 0x80 => Some((u64::from(b0), 1)),
        Some(&[b0, b1]) if b1 < 0x80 => Some((u64::from(b0 & 0x7f) | u64::from(b1) << 7, 2)),
        _ => None,
    };
    match head {
        Some((head, len)) if head & SLEN_ESCAPE != SLEN_ESCAPE => Header::short(off, head, len),
        _ => read_header(b, off).unwrap_or(Header {
            key_off: off,
            ..Header::default()
        }),
    }
}

/// The `head` varint of a leaf cell, and the rest of its suffix length
/// when that follows.
fn head(slen: usize, vlen: usize, overflow: bool) -> (u64, Option<u64>) {
    let field = (vlen as u64) << 1 | u64::from(overflow);
    let slen = slen as u64;
    let rest = slen.checked_sub(SLEN_ESCAPE);
    (field << SLEN_BITS | slen.min(SLEN_ESCAPE), rest)
}

/// Bytes needed for a leaf cell holding a `slen`-byte key suffix and a
/// `vlen`-byte value, inline or (with `overflow`) behind an 8-byte chain
/// pointer.
pub fn leaf_cell_size(slen: usize, vlen: usize, overflow: bool) -> usize {
    let (head, rest) = head(slen, vlen, overflow);
    let inline = if overflow { 8 } else { vlen };
    varint_len(head) + rest.map_or(0, varint_len) + slen + inline
}

/// A decoded view of one leaf cell.
#[derive(Clone, Copy)]
pub struct LeafCell<'a> {
    overflow: bool,
    /// The key.
    pub key: Key<'a>,
    /// Logical value length (may exceed the inline payload when overflowed).
    pub vlen: usize,
    /// Inline payload: value bytes, or the 8-byte overflow page id.
    pub inline: &'a [u8],
}

impl<'a> LeafCell<'a> {
    /// A cell not yet on any page: `key → inline` as [`leaf_put`] takes
    /// them.
    pub fn new(key: &'a [u8], overflow: bool, vlen: u32, inline: &'a [u8]) -> LeafCell<'a> {
        LeafCell {
            overflow,
            key: Key {
                prefix: &[],
                suffix: key,
            },
            vlen: vlen as usize,
            inline,
        }
    }

    /// Bytes the cell takes, its slot included, on a leaf whose prefix is
    /// `plen` bytes long (which its key must begin with).
    pub fn bytes_under(&self, plen: usize) -> usize {
        let slen = self.key.len().saturating_sub(plen);
        leaf_cell_size(slen, self.vlen, self.overflow) + 2
    }

    /// Whether the value is in an overflow chain.
    pub fn is_overflow(&self) -> bool {
        self.overflow
    }

    /// The overflow chain head (only valid when [`Self::is_overflow`]).
    pub fn overflow_page(&self) -> u64 {
        read_u64_at(self.inline, 0)
    }
}

/// The cell of page bytes `b` whose header is `h`.
fn leaf_cell_at<'a>(b: &'a [u8], h: Header, prefix: &'a [u8]) -> LeafCell<'a> {
    let inline_off = h.key_off + h.klen;
    LeafCell {
        overflow: h.overflow,
        key: Key {
            prefix,
            suffix: &b[h.key_off..inline_off],
        },
        vlen: h.vlen,
        inline: &b[inline_off..h.end()],
    }
}

/// Reads leaf cell `i`.
pub fn leaf_cell(page: &PageBuf, i: usize) -> LeafCell<'_> {
    let off = slot(page, i);
    leaf_cell_at(page.bytes(), header(page, off), prefix(page))
}

/// Every cell of leaf `page`, in key order.
pub fn leaf_cells(page: &PageBuf) -> impl Iterator<Item = LeafCell<'_>> {
    (0..ncells(page)).map(move |i| leaf_cell(page, i))
}

/// The suffix of leaf cell `i`.
fn suffix(page: &PageBuf, i: usize) -> &[u8] {
    let h = header(page, slot(page, i));
    &page.bytes()[h.key_off..h.key_off + h.klen]
}

/// Key of leaf cell `i` (avoids decoding the value).
pub fn leaf_key(page: &PageBuf, i: usize) -> Key<'_> {
    Key {
        prefix: prefix(page),
        suffix: suffix(page, i),
    }
}

/// Heap bytes of leaf cell `i`, header included.
pub fn leaf_cell_len(page: &PageBuf, i: usize) -> usize {
    let off = slot(page, i);
    header(page, off).end() - off
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
/// The key is held against the prefix once; a key that does not begin
/// with it sorts before or after every cell.
pub fn leaf_search(page: &PageBuf, key: &[u8]) -> Result<usize, usize> {
    let n = ncells(page);
    let prefix = prefix(page);
    let p = prefix.len();
    match cmp_keys(prefix, &key[..p.min(key.len())]) {
        // `key` is below the prefix, or a proper prefix of it.
        Ordering::Greater => return Err(0),
        Ordering::Less => return Err(n),
        Ordering::Equal => {}
    }
    let rest = &key[p..];
    let mut lo = 0;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match cmp_keys(suffix(page, mid), rest) {
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
    let cmp_at = |i: usize| leaf_key(page, i).cmp_to(key);
    match at {
        Ok(i) => i < n && cmp_at(i) == Ordering::Equal,
        Err(i) => {
            i <= n
                && (i == 0 || cmp_at(i - 1) == Ordering::Less)
                && (i == n || cmp_at(i) == Ordering::Greater)
        }
    }
}

/// Writes a leaf cell whose suffix is the concatenation of `suffix` at
/// slot `i`. The caller must have ensured enough contiguous free space.
fn write_cell(
    page: &mut PageBuf,
    i: usize,
    overflow: bool,
    suffix: [&[u8]; 2],
    vlen: u32,
    inline: &[u8],
) {
    let slen = suffix[0].len() + suffix[1].len();
    let size = leaf_cell_size(slen, vlen as usize, overflow);
    let start = reserve(page, i, size);
    let cell = &mut page.bytes_mut()[start..start + size];
    let (head, rest) = head(slen, vlen as usize, overflow);
    let mut pos = put_varint(cell, head);
    if let Some(rest) = rest {
        pos += put_varint(&mut cell[pos..], rest);
    }
    for part in suffix {
        cell[pos..pos + part.len()].copy_from_slice(part);
        pos += part.len();
    }
    cell[pos..].copy_from_slice(inline);
}

/// Puts a leaf cell for `key` at slot `i`, the slot [`leaf_search`] gave
/// for it: `inline` is the value, or the overflow chain head when
/// `overflow` is set. The cell goes into the free space when `key` begins
/// with the prefix and the cell fits there. Otherwise the page is rebuilt
/// under the prefix its first and last keys share with `key` — a
/// compaction, which may lengthen the prefix, or a shrink — and the cell
/// goes in after. Returns `false`, the page unchanged, when even the
/// rebuilt page has no room: the leaf must split.
pub fn leaf_put(
    page: &mut PageBuf,
    i: usize,
    overflow: bool,
    key: &[u8],
    vlen: u32,
    inline: &[u8],
) -> bool {
    let n = ncells(page);
    let old = prefix(page).len();
    if n > 0 && key.starts_with(prefix(page)) {
        let size = leaf_cell_size(key.len() - old, vlen as usize, overflow);
        if free_space(page) >= size + 2 {
            write_cell(page, i, overflow, [&key[old..], &[]], vlen, inline);
            return true;
        }
    }
    let plen = match n.checked_sub(1) {
        None => key.len(),
        Some(last) => {
            let (first, last) = (leaf_key(page, 0), leaf_key(page, last));
            let shared = old + common_len(first.suffix, last.suffix);
            shared.min(first.common_len(key))
        }
    };
    let cell = leaf_cell_size(key.len() - plen, vlen as usize, overflow) + 2;
    if rebuilt_bytes(page, plen) + cell > PAGE_SIZE {
        return false;
    }
    let copy = page.clone();
    write_leaf(page, &copy, 0..n, &key[..plen]);
    write_cell(page, i, overflow, [&key[plen..], &[]], vlen, inline);
    true
}

/// The [`live_bytes`] of leaf `page` rebuilt under a prefix of `plen`
/// bytes, which every key must begin with.
fn rebuilt_bytes(page: &PageBuf, plen: usize) -> usize {
    let (n, old) = (ncells(page), prefix(page).len());
    (0..n).fold(SLOTS_OFF + n * 2 + plen, |total, i| {
        let h = header(page, slot(page, i));
        let slen = (old + h.klen).saturating_sub(plen);
        total + leaf_cell_size(slen, h.vlen, h.overflow)
    })
}

/// Writes `out` as a leaf holding cells `cells` of leaf `from`, in order
/// and packed below `prefix`, which each of their keys must begin with,
/// and linked where `from` links. Every other byte of `out` is zero, so
/// the page depends on its cells alone.
fn write_leaf(out: &mut PageBuf, from: &PageBuf, cells: Range<usize>, prefix: &[u8]) {
    write_cells(out, link(from), prefix, cells.map(|i| leaf_cell(from, i)));
}

/// Writes `out` as a leaf linked to `link` holding `cells`, in order and
/// packed below `prefix`, which each of their keys must begin with.
fn write_cells<'a>(
    out: &mut PageBuf,
    link: u64,
    prefix: &[u8],
    cells: impl Iterator<Item = LeafCell<'a>>,
) {
    init(out, LEAF);
    set_link(out, link);
    let top = PAGE_SIZE - prefix.len();
    out.bytes_mut()[top..].copy_from_slice(prefix);
    out.write_u16(PREFIX_LEN_OFF, prefix.len() as u16);
    out.write_u16(DATA_START_OFF, top as u16);
    let plen = prefix.len();
    for (slot, cell) in cells.enumerate() {
        let key = cell.key;
        // The key past the new prefix: what the old prefix holds beyond it
        // (a shorter prefix), then the old suffix less what the new prefix
        // took of it (a longer one).
        let past = match key.prefix.get(plen..) {
            Some(tail) => [tail, key.suffix],
            None => [
                &[][..],
                key.suffix
                    .get(plen - key.prefix.len()..)
                    .unwrap_or_default(),
            ],
        };
        let vlen = cell.vlen as u32;
        write_cell(out, slot, cell.overflow, past, vlen, cell.inline);
    }
}

/// The prefix every key of `cells`, in key order, begins with: the
/// longest common prefix of the first and the last, empty for no cells.
pub fn cells_prefix(cells: &[LeafCell]) -> Vec<u8> {
    match (cells.first(), cells.last()) {
        (Some(first), Some(last)) => common_prefix(first.key, last.key),
        _ => Vec::new(),
    }
}

/// Writes `out` as a leaf linked to `link` holding `cells`, which are in
/// key order and may come from several pages, under [`cells_prefix`].
/// They must fit: [`LeafCell::bytes_under`] any shorter prefix, plus
/// [`SLOTS_OFF`] and that prefix, bounds what the page takes.
pub fn rebuild_leaf(out: &mut PageBuf, link: u64, cells: &[LeafCell]) {
    write_cells(out, link, &cells_prefix(cells), cells.iter().copied());
}

/// The right half of leaf `page` split at slot `at`: a new leaf holding
/// its cells from `at` on under their own prefix, linked where `page`
/// links.
pub fn leaf_split_off(page: &PageBuf, at: usize) -> PageBuf {
    let n = ncells(page);
    let mut right = PageBuf::zeroed();
    write_leaf(&mut right, page, at..n, &shared_prefix(page, at..n));
    right
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

/// Bounds-checked prefix of leaf `page`: `None` when it would reach into
/// the slot directory or past the page.
pub fn checked_prefix(page: &PageBuf) -> Option<&[u8]> {
    let room = PAGE_SIZE.checked_sub(SLOTS_OFF + ncells(page) * 2)?;
    let plen = prefix_len(page);
    (plen <= room).then(|| &page.bytes()[PAGE_SIZE - plen..])
}

/// Bounds-checked leaf cell decode: `None` for a varint that is truncated
/// by the page end or longer than six bytes, for a suffix or payload
/// running into the prefix or past the page, and for a prefix that
/// [`checked_prefix`] refuses.
pub fn checked_leaf_cell(page: &PageBuf, i: usize) -> Option<LeafCell<'_>> {
    let prefix = checked_prefix(page)?;
    let off = checked_slot(page, i)?;
    let b = page.bytes();
    let h = read_header(b, off)?;
    let end = h.key_off.checked_add(h.klen)?.checked_add(h.inline_len())?;
    (end <= PAGE_SIZE - prefix.len()).then(|| leaf_cell_at(b, h, prefix))
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

/// Whether internal cell `i` can take a separator of `len` bytes
/// ([`internal_set_key`]): a key no longer than its own always fits, a
/// longer one when the free space or, after a compaction, the page holds
/// it.
pub fn internal_key_fits(page: &PageBuf, i: usize, len: usize) -> bool {
    let old = internal_key(page, i).len();
    len <= old
        || free_space(page) >= internal_cell_size(len) + 2
        || live_bytes(page) + len - old <= PAGE_SIZE
}

/// Gives internal cell `i` the separator `key`, keeping its child. The
/// caller must have ensured it fits ([`internal_key_fits`]).
pub fn internal_set_key(page: &mut PageBuf, i: usize, key: &[u8]) {
    let child = internal_child(page, i);
    unslot(page, i);
    if free_space(page) < internal_cell_size(key.len()) + 2 {
        compact(page);
    }
    internal_insert(page, i, key, child);
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
/// one copy of the page taken up front. A leaf is rebuilt under the prefix
/// its first and last keys share.
pub fn compact(page: &mut PageBuf) {
    let old = page.clone();
    let n = ncells(page);
    if node_type(page) == LEAF {
        write_leaf(page, &old, 0..n, &shared_prefix(&old, 0..n));
        return;
    }
    let mut pos = PAGE_SIZE;
    for i in 0..n {
        let off = slot(&old, i);
        let len = cell_len(&old, off, false);
        pos -= len;
        page.bytes_mut()[pos..pos + len].copy_from_slice(&old.bytes()[off..off + len]);
        page.write_u16(SLOTS_OFF + i * 2, pos as u16);
    }
    page.write_u16(DATA_START_OFF, pos as u16);
}

/// Bytes in use after a [`compact`]: the node header, the slot directory,
/// every live cell and a leaf's prefix. Decides whether a compaction would
/// make an internal insert fit, and measures how full a leaf is.
pub fn live_bytes(page: &PageBuf) -> usize {
    let n = ncells(page);
    let is_leaf = node_type(page) == LEAF;
    let prefix = if is_leaf { prefix(page).len() } else { 0 };
    (0..n).fold(SLOTS_OFF + n * 2 + prefix, |total, i| {
        total + cell_len(page, slot(page, i), is_leaf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Puts `key → value` at its sorted slot; panics when it does not fit.
    fn put(page: &mut PageBuf, key: &[u8], value: &[u8]) {
        let i = leaf_search(page, key).unwrap_err();
        assert!(leaf_put(page, i, false, key, value.len() as u32, value));
    }

    /// Every key of leaf `page`, whole.
    fn keys(page: &PageBuf) -> Vec<Vec<u8>> {
        (0..ncells(page))
            .map(|i| leaf_key(page, i).to_vec())
            .collect()
    }

    #[test]
    fn leaf_insert_search_remove() {
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        assert_eq!(ncells(&p), 0);
        // Insert keys out of order at their sorted slots.
        for key in [b"bb".as_slice(), b"aa", b"cc"] {
            put(&mut p, key, &[key[0]]);
        }
        assert_eq!(ncells(&p), 3);
        assert_eq!(keys(&p), [b"aa", b"bb", b"cc"]);
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
    fn the_prefix_is_held_once_and_keys_leave_whole() {
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        // A first key is its own prefix; each key outside it shrinks it.
        put(&mut p, b"node-0042", b"x");
        assert_eq!(prefix(&p), b"node-0042");
        assert!(leaf_key(&p, 0).suffix.is_empty());
        put(&mut p, b"node-0047", b"y");
        assert_eq!(prefix(&p), b"node-004");
        put(&mut p, b"node-0051", b"z");
        assert_eq!(prefix(&p), b"node-00");
        assert_eq!(leaf_key(&p, 2).suffix, b"51");
        assert_eq!(keys(&p), [b"node-0042", b"node-0047", b"node-0051"]);
        // A key inside the prefix leaves it alone.
        put(&mut p, b"node-0049", b"w");
        assert_eq!(prefix(&p), b"node-00");
        // Searches for keys below, above and a proper prefix of it.
        assert_eq!(leaf_search(&p, b"node-0"), Err(0));
        assert_eq!(leaf_search(&p, b"node-00"), Err(0));
        assert_eq!(leaf_search(&p, b"node"), Err(0));
        assert_eq!(leaf_search(&p, b"a"), Err(0));
        assert_eq!(leaf_search(&p, b"node-1"), Err(4));
        assert_eq!(leaf_search(&p, b"node-0049"), Ok(2));
        assert_eq!(leaf_search(&p, b"node-0048"), Err(2));
        for (i, key) in keys(&p).iter().enumerate() {
            assert!(placed_at(&p, key, Ok(i)));
            assert_eq!(leaf_key(&p, i).cmp_to(key), Ordering::Equal);
        }
        // Removals leave the prefix; a compaction lengthens it again.
        leaf_remove(&mut p, 3);
        leaf_remove(&mut p, 0);
        compact(&mut p);
        assert_eq!(prefix(&p), b"node-004");
        assert_eq!(keys(&p), [b"node-0047", b"node-0049"]);
        assert_eq!(
            live_bytes(&p),
            SLOTS_OFF + 2 * 2 + 8 + 2 * leaf_cell_size(1, 1, false)
        );
    }

    #[test]
    fn a_shrink_that_no_longer_fits_leaves_the_page_alone() {
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        // 200-byte keys sharing 196 bytes: each cell keeps 4 of them.
        let key = |i: u32| [vec![7u8; 196], i.to_be_bytes().to_vec()].concat();
        let mut n = 0;
        while free_space(&p) >= leaf_cell_size(4, 0, false) + 2 {
            put(&mut p, &key(n), &[]);
            n += 1;
        }
        assert_eq!(prefix(&p).len(), 198);
        let before = p.clone();
        // A key sharing nothing would widen every cell by 198 bytes.
        assert!(!leaf_put(&mut p, 0, false, &[1], 0, &[]));
        assert!(p.bytes()[..] == before.bytes()[..]);
        assert_eq!(keys(&p).len(), n as usize);
    }

    #[test]
    fn compact_reclaims_garbage() {
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        let val = vec![7u8; 100];
        for i in 0..20u8 {
            put(&mut p, &[i], &val);
        }
        let before = free_space(&p);
        for _ in 0..10 {
            leaf_remove(&mut p, 0);
        }
        compact(&mut p);
        assert!(free_space(&p) > before + 900);
        // Survivors intact.
        assert_eq!(ncells(&p), 10);
        assert_eq!(leaf_key(&p, 0).to_vec(), [10u8]);
        assert_eq!(leaf_cell(&p, 9).inline, &val[..]);
    }

    /// Dropping cells one [`unslot`] at a time, then rebuilding the page
    /// cell by cell: an internal node through one `Vec` per live cell, a
    /// leaf by putting each cell into a fresh leaf in key order. What
    /// splits did before [`truncate`] and the single-copy [`compact`], kept
    /// as the reference they must match.
    fn drop_and_compact_cell_by_cell(page: &mut PageBuf, from: usize) {
        while ncells(page) > from {
            unslot(page, from);
        }
        if node_type(page) == LEAF {
            let old = page.clone();
            init(page, LEAF);
            set_link(page, link(&old));
            for i in 0..ncells(&old) {
                let cell = leaf_cell(&old, i);
                let (key, vlen) = (cell.key.to_vec(), cell.vlen as u32);
                assert!(leaf_put(page, i, cell.overflow, &key, vlen, cell.inline));
            }
            return;
        }
        let cells: Vec<Vec<u8>> = (0..ncells(page))
            .map(|i| {
                let off = slot(page, i);
                page.bytes()[off..off + cell_len(page, off, false)].to_vec()
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
            prefix in vec(any::<u8>(), 0..12),
            cells in vec((vec(0u8..4, 1..40), 0usize..120, any::<bool>(), any::<u64>()), 1..160),
            holes in vec(any::<usize>(), 0..24),
            cut in any::<usize>(),
        ) {
            let mut page = PageBuf::zeroed();
            init(&mut page, if leaf { LEAF } else { INTERNAL });
            set_link(&mut page, 9);
            for (tail, vlen, overflow, word) in &cells {
                // A shared head and a small alphabet give leaves long
                // prefixes that inserts shrink.
                let key = [&prefix[..], tail].concat();
                if !leaf {
                    if free_space(&page) < internal_cell_size(key.len()) + 2 {
                        break;
                    }
                    // Slot order does not matter to an internal node's bytes.
                    let i = (*word as usize) % (ncells(&page) + 1);
                    internal_insert(&mut page, i, &key, *word);
                    continue;
                }
                let Err(i) = leaf_search(&page, &key) else { continue };
                let fits = if *overflow {
                    leaf_put(&mut page, i, true, &key, *vlen as u32, &word.to_le_bytes())
                } else {
                    leaf_put(&mut page, i, false, &key, *vlen as u32, &vec![*word as u8; *vlen])
                };
                if !fits {
                    break;
                }
            }
            if leaf {
                let keys = keys(&page);
                prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(keys.iter().all(|k| k.starts_with(super::prefix(&page))));
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
            cut in any::<usize>(),
        ) {
            // A shared prefix and a small alphabet make ties and keys that
            // are prefixes of each other common.
            let a = [&prefix[..], &a[..]].concat();
            let b = [&prefix[..], &b[..]].concat();
            prop_assert_eq!(cmp_keys(&a, &b), a.cmp(&b));
            prop_assert_eq!(cmp_keys(&b, &a), b.cmp(&a));
            prop_assert_eq!(cmp_keys(&a, &a), Ordering::Equal);
            // Split anywhere, a key still orders as a whole.
            let at = cut % (a.len() + 1);
            let key = Key { prefix: &a[..at], suffix: &a[at..] };
            prop_assert_eq!(key.cmp_to(&b), a.cmp(&b));
            prop_assert_eq!(key.common_len(&b), common_len(&a, &b));
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
        put(&mut p, b"key", b"value");
        // A lone key is its own prefix: its cell holds no key byte.
        assert_eq!(live_bytes(&p), empty + 2 + 3 + leaf_cell_size(0, 5, false));
        assert_eq!(leaf_cell_size(3, 5, false), 2 + 3 + 5, "two header bytes");
    }

    #[test]
    fn header_varints_widen_at_their_boundaries() {
        // A suffix under 31 bytes and a value of at most one byte: one byte,
        // a neighbour cell's addition or deletion.
        assert_eq!(leaf_cell_size(0, 0, false), 1);
        assert_eq!(leaf_cell_size(30, 0, false), 1 + 30);
        assert_eq!(leaf_cell_size(30, 1, false), 1 + 30 + 1);
        // From 31 bytes on the suffix length escapes: the rest follows in a
        // varint of its own, one byte up to 31 + 127.
        assert_eq!(leaf_cell_size(31, 0, false), 2 + 31);
        assert_eq!(leaf_cell_size(31, 1, false), 2 + 31 + 1);
        assert_eq!(leaf_cell_size(158, 0, false), 2 + 158);
        assert_eq!(leaf_cell_size(159, 0, false), 3 + 159);
        // Two bytes hold a value of up to 255 bytes, three up to 32 767.
        assert_eq!(leaf_cell_size(30, 2, false), 2 + 30 + 2);
        assert_eq!(leaf_cell_size(16, 255, false), 2 + 16 + 255);
        assert_eq!(leaf_cell_size(16, 256, false), 3 + 16 + 256);
        assert_eq!(leaf_cell_size(4, 5000, true), 3 + 4 + 8);
        assert_eq!(leaf_cell_size(4, 32_767, true), 3 + 4 + 8);
        assert_eq!(leaf_cell_size(4, 32_768, true), 4 + 4 + 8);
        // Never more than a varint for each length, but for a suffix that
        // escapes beside a value of two bytes or more.
        for slen in [0, 1, 17, 18, 30, 31, 36, 158, 159, 300] {
            for (vlen, overflow) in [
                (0, false),
                (1, false),
                (2, false),
                (63, false),
                (64, false),
                (255, false),
                (1024, false),
                (5000, true),
            ] {
                let two =
                    varint_len(slen as u64) + varint_len((vlen as u64) << 1 | u64::from(overflow));
                let inline = if overflow { 8 } else { vlen };
                let one = leaf_cell_size(slen, vlen, overflow) - slen - inline;
                let escapes = slen >= 31 && (overflow || vlen >= 2);
                assert!(
                    one <= two + usize::from(escapes),
                    "{slen} {vlen} {overflow}: {one} > {two}"
                );
            }
        }
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        let cases: [(usize, usize); 10] = [
            (1, 0),
            (30, 1),
            (31, 0),
            (32, 2),
            (158, 63),
            (159, 64),
            (512, 1024),
            (4, 8191),
            (200, 129),
            (18, 256),
        ];
        // Keys starting with distinct bytes share no prefix: each cell
        // holds its whole key.
        let cell = |n: usize, (klen, vlen): (usize, usize)| {
            let key = vec![n as u8; klen];
            let overflow = vlen > 1024;
            let inline = if overflow {
                7u64.to_le_bytes().to_vec()
            } else {
                vec![0xA5; vlen]
            };
            (key, overflow, inline)
        };
        for (n, case) in cases.into_iter().enumerate() {
            let (key, overflow, inline) = cell(n, case);
            assert!(leaf_put(&mut p, n, overflow, &key, case.1 as u32, &inline));
        }
        assert!(prefix(&p).is_empty());
        for (n, case) in cases.into_iter().enumerate() {
            let (key, overflow, inline) = cell(n, case);
            let got = checked_leaf_cell(&p, n).expect("decodes");
            assert_eq!((got.key.to_vec(), got.vlen), (key, case.1));
            assert_eq!((got.is_overflow(), got.inline), (overflow, &inline[..]));
            assert_eq!(
                leaf_cell_len(&p, n),
                leaf_cell_size(case.0, case.1, overflow)
            );
        }
    }

    #[test]
    fn a_split_off_half_takes_its_own_prefix() {
        let mut p = PageBuf::zeroed();
        init(&mut p, LEAF);
        set_link(&mut p, 77);
        for key in [b"aa-1".as_slice(), b"aa-2", b"ab-1", b"ab-2"] {
            put(&mut p, key, &[1; 40]);
        }
        assert_eq!(prefix(&p), b"a");
        let right = leaf_split_off(&p, 2);
        assert_eq!((prefix(&right), link(&right)), (&b"ab-"[..], 77));
        assert_eq!(keys(&right), [b"ab-1", b"ab-2"]);
        assert_eq!(leaf_cell(&right, 1).inline, &[1; 40]);
        truncate(&mut p, 2);
        compact(&mut p);
        assert_eq!(
            (prefix(&p), keys(&p)),
            (&b"aa-"[..], vec![b"aa-1".to_vec(), b"aa-2".to_vec()])
        );
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
        // The head's varint, or the escaped rest of the suffix length after
        // it, is cut off by the page end.
        assert!(checked_leaf_cell(&page_with_cell_header(&[0x80]), 0).is_none());
        assert!(checked_leaf_cell(&page_with_cell_header(&[0x1F, 0xFF, 0xFF]), 0).is_none());
        // Seven bytes where at most six are allowed, for the head and for
        // the rest of the suffix length.
        let long = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00];
        assert!(checked_leaf_cell(&page_with_cell_header(&long), 0).is_none());
        let long_rest = [0x1F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert!(checked_leaf_cell(&page_with_cell_header(&long_rest), 0).is_none());
        // Well-formed header whose key runs past the page, with a short
        // suffix and with an escaped one.
        assert!(checked_leaf_cell(&page_with_cell_header(&[0x10]), 0).is_none());
        assert!(checked_leaf_cell(&page_with_cell_header(&[0x1F, 0x00]), 0).is_none());
        // The trusting accessors read such a cell as empty.
        let p = page_with_cell_header(&long);
        assert!(leaf_key(&p, 0).is_empty());
        assert_eq!(live_bytes(&p), SLOTS_OFF + 2);
        // The smallest valid cell still decodes.
        let mut p = page_with_cell_header(&[0x00]);
        let cell = checked_leaf_cell(&p, 0).unwrap();
        assert!(cell.key.is_empty() && cell.inline.is_empty());
        // A prefix over the cell, or into the slot directory, does not.
        p.write_u16(PREFIX_LEN_OFF, 1);
        assert!(checked_prefix(&p).is_some());
        assert!(checked_leaf_cell(&p, 0).is_none());
        p.write_u16(PREFIX_LEN_OFF, (PAGE_SIZE - SLOTS_OFF - 1) as u16);
        assert!(checked_prefix(&p).is_none());
    }
}
