//! Snapshot files for TimeStore (Sec. 4.3: "snapshots are stored on disk, and
//! references to the files are maintained in a second B+Tree indexed by
//! time").
//!
//! A snapshot file *names* every entity of the graph at its timestamp, and
//! writes only what changed since the previous file. Its bytes are in two
//! levels: a top level of *runs*, one per 64 consecutive segments of one
//! kind, and for each run the entries that say where its segments' bytes
//! are. Neither level is written again where it did not change: an
//! untouched segment is referenced where an earlier file holds it, and a
//! run none of whose entries changed is referenced where an earlier file
//! holds the run. So a file costs its changed segments, the runs that hold
//! them, and one top-level entry per 4 096 entities of the graph.
//!
//! # Layout (version 5)
//!
//! ```text
//! file     := payload footer:u64le                 footer = bulk_sum64(payload)
//! payload  := header body runs top top_at:u64le
//! header   := magic:u32le version:u8 ts:varint
//! body     := this file's inline segments and patches, in manifest order
//! runs     := this file's inline runs, in manifest order
//! top      := node_runs:varint rel_runs:varint (tag:varint at:ref)*    tag = run number
//! ref      := back:varint offset:varint len:varint [sum:u64le]        sum when back > 0
//! run      := entry+                                  ascending, at most 64
//! entry    := tag:varint base:part [patch:part]    tag = (segment mod 64) · 2 + 1 when a patch follows
//! part     := back:varint offset:varint len:varint sum:u64le
//! segment  := members:u64le (NodeFull | RelFull)*    one Fig. 3 body per member
//! patch    := members:u64le (NodeFull | NodeDeleted)*   node segments only
//! ```
//!
//! A **segment** is the nodes, or the relationships, whose ids agree above
//! the low six bits: at most 64 entities. Its entry names it, so a record
//! carries no id: bit `i` of `members` stands for the id `segment · 64 +
//! i`, and the records follow in ascending id, one for each bit set,
//! neither fewer nor more. Neither `members` is ever 0: a segment is
//! written only when it holds an entity, and a patch only when it lists
//! one.
//!
//! A **run** is the segments whose numbers agree above the low six bits,
//! of one kind: run `r` of nodes holds the entries of node segments `r ·
//! 64 ..< (r + 1) · 64` that hold an entity, ascending. The top level lists
//! every non-empty node run, then every non-empty relationship run,
//! ascending.
//!
//! A `ref` or `part` with `back = 0` is *inline*: its bytes are at `offset`
//! in the file that holds it. One with `back > 0` is a **reference** to the
//! file `back` timestamps earlier. A top-level `ref` counts back from this
//! file; a part counts back from the file that holds its run inline, whose
//! bytes a later file copies unchanged. References are backward (`back` is
//! unsigned) and one hop: the writer copies an earlier file's reference, to
//! a run or to a segment, instead of pointing at a file that holds the
//! bytes only by reference. So a file depends only on earlier files, and on
//! each of them directly.
//!
//! Every part carries its `bulk_sum64`, an inline one too: a later file
//! that references the run reads the part's bytes without reading the
//! footer of the file that holds them. A top-level reference carries the
//! run's sum; an inline run is covered by this file's footer.
//!
//! A run is written inline when one of its entries differs from the
//! previous file's, or a segment joined or left it; otherwise it is a copy
//! of the previous file's reference to it.
//!
//! An entry's **base** is the segment as some file wrote it whole. A node
//! segment's entry may also carry a **patch**, held by a file later than the
//! base's: the state at the file's timestamp of every node whose state may
//! differ from the base's, a tombstone for one that is gone. A node the patch
//! does not list has the base's state. The writer keeps one patch per
//! segment, cumulative since the base was written: a touched segment gets a
//! new patch listing every node changed since its base, as long as that is
//! at most half the base's bytes, and is written whole again past that.
//!
//! Nodes precede relationships so decoding can insert through the
//! constraint-checking [`lpg::Graph`].
//!
//! # Loading
//!
//! [`open`] checks a file's footer and reads its top level and inline
//! runs. [`decode`] first *resolves* the referenced runs, one read per
//! stretch of a source file, each run checked against its sum, and then
//! fetches the segments' bytes the same way.
//!
//! # Sharing in memory what the files share on disk
//!
//! A relationship segment is exactly one chunk of a graph's relationship
//! table, and every file that references a segment names the same bytes
//! (one hop). A [`SharedSegments`] holds such chunks keyed by those bytes,
//! and a load that names the same bytes takes the chunk from there: it
//! neither reads nor decodes them again, and the graphs hold one copy. Two
//! kinds of chunk go in:
//!
//! * the writer's: the graph a file is encoded from already holds every
//!   segment the file writes inline, so once the file is durable the writer
//!   lends those chunks ([`Loan`]). The latest graph and the snapshots
//!   loaded from its files then share every relationship chunk no commit
//!   changed since;
//! * a load's: [`decode`] keeps what it decodes from a relationship
//!   segment, for the loads after it.
//!
//! The chunks are held weakly, so a segment costs nothing once no graph
//! holds it, and a graph that changes a chunk it holds never changes it
//! where it is found ([`lpg::RelChunk`]): what is found is always what the
//! bytes decode to. Node segments are always decoded: a node chunk carries
//! the node's adjacency list, which depends on relationships in other
//! segments.
//!
//! A load adds all its relationship chunks, shared or decoded, in one
//! [`lpg::Graph::insert_rel_chunks`] once every node is in: each node's
//! adjacency list is allocated once, at exactly its length, so a loaded
//! graph holds no spare capacity.

use crate::record::{encode_node_full, encode_rel_full, RecordBody};
use crate::varint;
use lock::{Mutex, Rank};
use lpg::{EntityId, Graph, Node, NodeId, RelChunk, RelId, Relationship, Timestamp, WeakRelChunk};
use std::collections::HashMap;
use vfs::bulk_sum64;

const MAGIC: u32 = 0x4149_5053; // "AIPS"
/// The format version this build writes and reads.
pub const VERSION: u8 = 5;
/// A segment holds the entities whose ids agree above this many low bits.
const SEGMENT_BITS: u32 = 6;
/// The bits of an id below its segment's.
const ID_MASK: u64 = (1 << SEGMENT_BITS) - 1;
/// A run holds the segments whose numbers agree above this many low bits.
const RUN_BITS: u32 = 6;
/// The bits of a segment number below its run's.
const RUN_MASK: u64 = (1 << RUN_BITS) - 1;
// A relationship segment decodes into exactly one graph chunk: what lets
// loads share it (see the module doc).
const _: () = assert!(SEGMENT_BITS == lpg::CHUNK_BITS);

/// The unit a snapshot file writes or references: 64 consecutive node ids or
/// 64 consecutive relationship ids. Nodes order before relationships, the
/// manifest's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Segment {
    /// Node ids `no · 64 ..< (no + 1) · 64`.
    Node(u64),
    /// Relationship ids `no · 64 ..< (no + 1) · 64`.
    Rel(u64),
}

impl Segment {
    /// The segment `entity` belongs to.
    pub fn of(entity: EntityId) -> Segment {
        match entity {
            EntityId::Node(id) => Segment::Node(id.raw() >> SEGMENT_BITS),
            EntityId::Rel(id) => Segment::Rel(id.raw() >> SEGMENT_BITS),
        }
    }

    /// The segment of node `id`, and the bit that stands for `id` in a
    /// [`Change::Nodes`] mask.
    pub fn of_node(id: NodeId) -> (Segment, u64) {
        let id = id.raw();
        (Segment::Node(id >> SEGMENT_BITS), 1 << (id & ID_MASK))
    }

    /// The first segment of the run this one belongs to: what names the run.
    fn run(self) -> Segment {
        match self {
            Segment::Node(no) => Segment::Node(no & !RUN_MASK),
            Segment::Rel(no) => Segment::Rel(no & !RUN_MASK),
        }
    }

    fn no(self) -> u64 {
        let (Segment::Node(no) | Segment::Rel(no)) = self;
        no
    }

    /// The segment of the same kind numbered `no`.
    fn with_no(self, no: u64) -> Segment {
        match self {
            Segment::Node(_) => Segment::Node(no),
            Segment::Rel(_) => Segment::Rel(no),
        }
    }
}

/// `len` bytes at `offset` of the snapshot file at `ts`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Extent {
    /// Timestamp of the file.
    pub ts: Timestamp,
    /// Offset from the start of the file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Bytes a manifest names: where they are and their sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Part {
    at: Extent,
    sum: u64,
}

/// One segment and where its bytes are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    segment: Segment,
    /// The segment as a file wrote it whole.
    base: Part,
    /// Node segments only: every node whose state at the file's timestamp
    /// may differ from the base's.
    patch: Option<Part>,
}

/// The bytes an entry's base names: its segment, where they are and their
/// sum. Every file that references a segment names the bytes the file
/// holding it inline does, so this is what two loads of different files can
/// share.
type Source = (Segment, Extent, u64);

impl Entry {
    fn source(&self) -> Source {
        (self.segment, self.base.at, self.base.sum)
    }

    fn parts(&self) -> impl Iterator<Item = &Part> {
        std::iter::once(&self.base).chain(&self.patch)
    }
}

/// The non-empty segments of one run and where the bytes that list them
/// are.
#[derive(Clone, Debug)]
struct Run {
    /// Its first segment ([`Segment::run`]), which names it.
    first: Segment,
    /// The run's bytes: inline when they are in the manifest's own file.
    at: Part,
    /// Its entries, ascending; `None` for a referenced run not yet
    /// resolved.
    entries: Option<Vec<Entry>>,
}

/// The widest gap between two needed ranges of one file that a load
/// reads over rather than around: one read of a few hundred bytes more
/// costs less than another call. On a DBLP-shaped history of 100 k
/// relationships, whole-graph loads read 9 % more bytes than they need
/// with 68 calls where they made 154; a 4 KiB gap made 17 calls but read
/// 37 % more bytes.
const FETCH_GAP: u64 = 640;

/// `extents` by file, then offset, ranges of one file at most `gap` bytes
/// apart merged into one (with `gap` 0, ranges that touch or overlap).
fn merge(extents: impl Iterator<Item = Extent>, gap: u64) -> Vec<Extent> {
    let mut refs: Vec<Extent> = extents.collect();
    refs.sort_unstable();
    let mut out: Vec<Extent> = Vec::with_capacity(refs.len());
    for r in refs {
        let near = |last: &Extent| {
            let end = last.offset.saturating_add(last.len);
            last.ts == r.ts && r.offset <= end.saturating_add(gap)
        };
        match out.last_mut() {
            Some(last) if near(last) => {
                let end = r.offset.saturating_add(r.len);
                last.len = last.len.max(end - last.offset);
            }
            _ => out.push(r),
        }
    }
    out
}

/// Where the bytes of every segment of one snapshot file are. As [`open`]
/// reads it, the runs the file references are not resolved: it knows them
/// only by where they are. [`decode`] resolves them, and a manifest
/// [`encode`] returns is resolved.
#[derive(Clone, Debug)]
pub struct Manifest {
    ts: Timestamp,
    /// Ascending by run.
    runs: Vec<Run>,
}

/// The bytes a snapshot file holds inline, by what they are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Inline {
    /// Node segments written whole.
    pub node_bytes: u64,
    /// Node segment patches.
    pub patch_bytes: u64,
    /// How many node segment patches.
    pub patches: u64,
    /// Relationship segments.
    pub rel_bytes: u64,
}

impl Inline {
    /// The bytes of segments and patches: what is not header, manifest or
    /// footer.
    pub fn segment_bytes(&self) -> u64 {
        self.node_bytes + self.patch_bytes + self.rel_bytes
    }
}

impl std::ops::AddAssign for Inline {
    fn add_assign(&mut self, other: Inline) {
        self.node_bytes += other.node_bytes;
        self.patch_bytes += other.patch_bytes;
        self.patches += other.patches;
        self.rel_bytes += other.rel_bytes;
    }
}

impl Manifest {
    /// The timestamp of the file.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// The earlier files this one references, ascending: those that hold
    /// its referenced runs, and those its known entries reference.
    pub fn sources(&self) -> Vec<Timestamp> {
        let mut out: Vec<Timestamp> = self.references().map(|e| e.ts).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The reads that fetch every referenced byte, of runs and of the
    /// segments of known entries: by file, then offset, ranges that touch or
    /// overlap merged into one.
    pub fn extents(&self) -> Vec<Extent> {
        merge(self.references(), 0)
    }

    /// Whether the entry of `segment` carries a patch.
    pub fn patched(&self, segment: Segment) -> bool {
        self.find(segment).is_some_and(|e| e.patch.is_some())
    }

    /// What the file holds inline.
    pub fn inline(&self) -> Inline {
        let mut out = Inline::default();
        for e in self.entries() {
            if e.base.at.ts == self.ts {
                match e.segment {
                    Segment::Node(_) => out.node_bytes += e.base.at.len,
                    Segment::Rel(_) => out.rel_bytes += e.base.at.len,
                }
            }
            if let Some(patch) = e.patch.filter(|p| p.at.ts == self.ts) {
                out.patch_bytes += patch.at.len;
                out.patches += 1;
            }
        }
        out
    }

    /// How many runs the file holds inline, and how many it references.
    pub fn runs(&self) -> (u64, u64) {
        let inline = self.runs.iter().filter(|r| r.at.at.ts == self.ts).count();
        (inline as u64, (self.runs.len() - inline) as u64)
    }

    /// The entries of every resolved run, ascending.
    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.runs.iter().flat_map(|r| r.entries.iter().flatten())
    }

    /// Referenced runs and the referenced parts of known entries.
    fn references(&self) -> impl Iterator<Item = Extent> + '_ {
        let runs = self.runs.iter().map(|r| r.at.at);
        let parts = self.entries().flat_map(Entry::parts).map(|p| p.at);
        runs.chain(parts).filter(move |at| at.ts != self.ts)
    }

    fn run(&self, first: Segment) -> Option<&Run> {
        let i = self.runs.binary_search_by_key(&first, |r| r.first).ok()?;
        self.runs.get(i)
    }

    fn find(&self, segment: Segment) -> Option<&Entry> {
        let entries = self.run(segment.run())?.entries.as_ref()?;
        let i = entries.binary_search_by_key(&segment, |e| e.segment).ok()?;
        entries.get(i)
    }
}

/// Why a snapshot did not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The file's own bytes: structure or entities.
    Corrupt,
    /// Bytes referenced in the file at this timestamp, of a run or of a
    /// segment: unreadable, short, or not matching their sum.
    Reference(Timestamp),
}

/// What the writer knows of one segment against the previous file.
#[derive(Clone, Copy, Debug)]
pub enum Change {
    /// No update named it since the previous file: it holds what that file
    /// says it holds.
    None,
    /// A node segment in which at most the nodes whose bits this mask sets
    /// ([`Segment::of_node`]) differ from the state its base in the
    /// previous file holds.
    Nodes(u64),
    /// Anything may differ: the segment is written whole.
    Any,
}

/// Encodes `graph` as the snapshot file at `ts`. A segment of `prev` that
/// `change` calls [`Change::None`] is written as a copy of `prev`'s entry; a
/// node segment of `prev` it gives [`Change::Nodes`] gets a patch listing
/// those nodes inline, or is written whole when that patch would be more
/// than half its base's bytes; every other segment is written whole. A run
/// whose entries are all `prev`'s is a copy of `prev`'s reference to it;
/// every other run is written inline. With no `prev` the file stands alone.
/// `prev` must be resolved: a run it has not resolved is written again.
/// Returns the sealed file and its manifest, resolved.
///
/// The caller vouches for what `change` says: nothing here compares
/// contents.
pub fn encode(
    graph: &Graph,
    ts: Timestamp,
    prev: Option<&Manifest>,
    change: impl Fn(Segment) -> Change,
) -> (Vec<u8>, Manifest) {
    let mut out = Vec::new();
    varint::write_u32(&mut out, MAGIC);
    out.push(VERSION);
    varint::write_u64(&mut out, ts);
    let prev = prev.filter(|m| m.ts < ts);
    // The entry that stands for `segment` without writing it whole, if any;
    // a patch it needs is written to `out`.
    let reuse = |out: &mut Vec<u8>, segment: Segment| {
        let entry = prev?.find(segment)?;
        match change(segment) {
            Change::None => Some(*entry),
            Change::Nodes(mask) => match segment {
                Segment::Node(no) => patch(out, graph, ts, entry, no, mask),
                Segment::Rel(_) => None,
            },
            Change::Any => None,
        }
    };
    let mut entries = Vec::new();
    let mut segments = Segments {
        out: &mut out,
        entries: &mut entries,
        ts,
    };
    segments.write(
        graph.nodes(),
        |n| n.id.raw(),
        Segment::Node,
        reuse,
        |out, n| encode_node_full(out, &n.labels, &n.props),
    );
    segments.write(
        graph.rels(),
        |r| r.id.raw(),
        Segment::Rel,
        reuse,
        |out, r| encode_rel_full(out, r.src, r.tgt, r.label, &r.props),
    );
    seal(out, ts, &entries, prev)
}

/// Appends the runs and top level of the manifest of `entries` (ascending)
/// and the footer to the header and body of the file at `ts` in `out`. A
/// run whose entries are exactly `prev`'s is a copy of `prev`'s reference to
/// it; every other run is written inline.
fn seal(
    mut out: Vec<u8>,
    ts: Timestamp,
    entries: &[Entry],
    prev: Option<&Manifest>,
) -> (Vec<u8>, Manifest) {
    let mut runs = Vec::new();
    for run in entries.chunk_by(|a, b| a.segment.run() == b.segment.run()) {
        let first = run[0].segment.run();
        let same = prev
            .and_then(|p| p.run(first))
            .filter(|r| r.entries.as_deref() == Some(run));
        let at = match same {
            Some(r) => r.at,
            None => {
                let start = out.len();
                write_run(&mut out, ts, run);
                let bytes = &out[start..];
                let at = Extent {
                    ts,
                    offset: start as u64,
                    len: bytes.len() as u64,
                };
                Part {
                    at,
                    sum: bulk_sum64(bytes),
                }
            }
        };
        runs.push(Run {
            first,
            at,
            entries: Some(run.to_vec()),
        });
    }
    let top_at = out.len() as u64;
    let nodes = runs
        .iter()
        .filter(|r| matches!(r.first, Segment::Node(_)))
        .count();
    varint::write_u64(&mut out, nodes as u64);
    varint::write_u64(&mut out, (runs.len() - nodes) as u64);
    for r in &runs {
        varint::write_u64(&mut out, r.first.no() >> RUN_BITS);
        let back = ts - r.at.at.ts;
        write_extent(&mut out, back, r.at.at);
        if back > 0 {
            out.extend_from_slice(&r.at.sum.to_le_bytes());
        }
    }
    out.extend_from_slice(&top_at.to_le_bytes());
    let footer = bulk_sum64(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    (out, Manifest { ts, runs })
}

/// Appends the entries of one run, as the file at `ts` holds it inline.
fn write_run(out: &mut Vec<u8>, ts: Timestamp, entries: &[Entry]) {
    for e in entries {
        let tag = (e.segment.no() & RUN_MASK) << 1 | u64::from(e.patch.is_some());
        varint::write_u64(out, tag);
        for part in e.parts() {
            write_extent(out, ts - part.at.ts, part.at);
            out.extend_from_slice(&part.sum.to_le_bytes());
        }
    }
}

fn write_extent(out: &mut Vec<u8>, back: u64, at: Extent) {
    varint::write_u64(out, back);
    varint::write_u64(out, at.offset);
    varint::write_u64(out, at.len);
}

/// `prev`'s base with a patch appended to `out` that holds the state in
/// `graph` of every node of segment `no` whose bit `mask` sets; `None`, with
/// `out` as it was, when that patch would be more than half the base's
/// bytes. With no bit set the entry is `prev` itself.
fn patch(
    out: &mut Vec<u8>,
    graph: &Graph,
    ts: Timestamp,
    prev: &Entry,
    no: u64,
    mask: u64,
) -> Option<Entry> {
    if mask == 0 {
        return Some(*prev);
    }
    let start = out.len();
    out.extend_from_slice(&mask.to_le_bytes());
    let mut bits = mask;
    while bits != 0 {
        let id = no << SEGMENT_BITS | u64::from(bits.trailing_zeros());
        bits &= bits - 1;
        match graph.node(NodeId::new(id)) {
            Some(n) => encode_node_full(out, &n.labels, &n.props),
            None => RecordBody::NodeDeleted.encode(out),
        }
        if (out.len() - start) as u64 > prev.base.at.len / 2 {
            out.truncate(start);
            return None;
        }
    }
    let bytes = &out[start..];
    let at = Extent {
        ts,
        offset: start as u64,
        len: bytes.len() as u64,
    };
    Some(Entry {
        patch: Some(Part {
            at,
            sum: bulk_sum64(bytes),
        }),
        ..*prev
    })
}

/// The file being written and its manifest so far.
struct Segments<'a> {
    out: &'a mut Vec<u8>,
    entries: &'a mut Vec<Entry>,
    ts: Timestamp,
}

impl Segments<'_> {
    /// Appends one entry per segment of `items` (ascending by `id`):
    /// `reuse`'s entry when it has one, else the segment's bytes inline.
    fn write<'g, T: 'g>(
        &mut self,
        items: impl Iterator<Item = &'g T>,
        id: impl Fn(&T) -> u64,
        segment_of: impl Fn(u64) -> Segment,
        reuse: impl Fn(&mut Vec<u8>, Segment) -> Option<Entry>,
        encode: impl Fn(&mut Vec<u8>, &T),
    ) {
        let mut items = items.peekable();
        while let Some(no) = items.peek().map(|item| id(item) >> SEGMENT_BITS) {
            let segment = segment_of(no);
            let members =
                std::iter::from_fn(|| items.next_if(|item| id(item) >> SEGMENT_BITS == no));
            if let Some(entry) = reuse(self.out, segment) {
                members.for_each(drop);
                self.entries.push(entry);
                continue;
            }
            let start = self.out.len();
            self.out.extend_from_slice(&[0; 8]);
            let mut mask = 0u64;
            for item in members {
                mask |= 1 << (id(item) & ID_MASK);
                encode(self.out, item);
            }
            self.out[start..start + 8].copy_from_slice(&mask.to_le_bytes());
            let bytes = &self.out[start..];
            let at = Extent {
                ts: self.ts,
                offset: start as u64,
                len: bytes.len() as u64,
            };
            self.entries.push(Entry {
                segment,
                base: Part {
                    at,
                    sum: bulk_sum64(bytes),
                },
                patch: None,
            });
        }
    }
}

/// The payload of a snapshot file whose footer matches, and the format
/// version its header names.
fn sealed(file: &[u8]) -> Option<(&[u8], u8)> {
    let (payload, footer) = file.split_at_checked(file.len().checked_sub(8)?)?;
    if bulk_sum64(payload) != u64::from_le_bytes(footer.try_into().ok()?) {
        return None;
    }
    let mut pos = 0;
    if varint::read_u32(payload, &mut pos)? != MAGIC {
        return None;
    }
    Some((payload, *payload.get(pos)?))
}

/// The format version of a snapshot file whose footer matches: what names
/// a file of another version, which [`open`] refuses.
pub fn version(file: &[u8]) -> Option<u8> {
    sealed(file).map(|(_, version)| version)
}

/// Checks a snapshot file's footer and reads its manifest: the top level,
/// and the runs the file holds inline. `None` when the footer does not
/// match, the version is not [`VERSION`], or the manifest is malformed:
/// runs or entries out of order, an empty extent, an inline part whose
/// bytes do not match its sum, a patch on a relationship segment or one no
/// later than its base. Referenced bytes are not read: [`decode`] reads and
/// checks them.
pub fn open(file: &[u8]) -> Option<Manifest> {
    let (payload, version) = sealed(file)?;
    if version != VERSION {
        return None;
    }
    let mut pos = 0;
    varint::read_u32(payload, &mut pos)?;
    pos += 1;
    let ts = varint::read_u64(payload, &mut pos)?;
    let body_start = pos as u64;
    let (rest, at) = payload.split_at_checked(payload.len().checked_sub(8)?)?;
    let top_at = usize::try_from(u64::from_le_bytes(at.try_into().ok()?)).ok()?;
    if (top_at as u64) < body_start || top_at > rest.len() {
        return None;
    }
    // Segments, patches and runs: what an inline extent may name.
    let body = Body {
        bytes: rest.get(..top_at)?,
        start: body_start,
    };
    pos = top_at;
    let nodes = varint::read_u64(rest, &mut pos)?;
    let total = nodes.checked_add(varint::read_u64(rest, &mut pos)?)?;
    // Every run takes at least four bytes (tag, back, offset, len): a count
    // past that is garbage, and must not size an allocation.
    if total > (rest.len() - pos) as u64 / 4 {
        return None;
    }
    let mut runs: Vec<Run> = Vec::with_capacity(total as usize);
    for i in 0..total {
        let tag = varint::read_u64(rest, &mut pos)?;
        // A run past the last id's would wrap its segments' numbers.
        if tag > u64::MAX >> (SEGMENT_BITS + RUN_BITS) {
            return None;
        }
        let first = if i < nodes {
            Segment::Node(tag << RUN_BITS)
        } else {
            Segment::Rel(tag << RUN_BITS)
        };
        if runs.last().is_some_and(|r| r.first >= first) {
            return None;
        }
        let (back, at) = read_extent(rest, &mut pos, ts)?;
        let run = if back == 0 {
            let bytes = body.get(at)?;
            Run {
                first,
                at: Part {
                    at,
                    sum: bulk_sum64(bytes),
                },
                entries: Some(read_run(first, ts, bytes, Some(&body))?),
            }
        } else {
            Run {
                first,
                at: Part {
                    at,
                    sum: read_sum(rest, &mut pos)?,
                },
                entries: None,
            }
        };
        runs.push(run);
    }
    (pos == rest.len()).then_some(Manifest { ts, runs })
}

/// The bytes of a file that its inline extents may name.
struct Body<'a> {
    /// The payload up to the top level.
    bytes: &'a [u8],
    /// Where the header ends.
    start: u64,
}

impl Body<'_> {
    fn get(&self, at: Extent) -> Option<&[u8]> {
        if at.offset < self.start {
            return None;
        }
        slice(self.bytes, at.offset, at.len)
    }
}

/// `back offset len` at `pos`, counting back from the file at `ts`: `back`
/// and the extent it names, which is never empty.
fn read_extent(bytes: &[u8], pos: &mut usize, ts: Timestamp) -> Option<(u64, Extent)> {
    let back = varint::read_u64(bytes, pos)?;
    let offset = varint::read_u64(bytes, pos)?;
    let len = varint::read_u64(bytes, pos)?;
    let at = Extent {
        ts: ts.checked_sub(back)?,
        offset,
        len,
    };
    (len > 0).then_some((back, at))
}

fn read_sum(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let sum = bytes.get(*pos..pos.checked_add(8)?)?;
    *pos += 8;
    Some(u64::from_le_bytes(sum.try_into().ok()?))
}

/// The entries of the run named by `first`, held inline by the file at
/// `ts` as `bytes`. With `own`, the body of that file, each part inline in
/// it must lie in the body and match its sum; without, the parts are
/// checked when they are read.
fn read_run(first: Segment, ts: Timestamp, bytes: &[u8], own: Option<&Body>) -> Option<Vec<Entry>> {
    let mut pos = 0;
    let part = |pos: &mut usize| {
        let (back, at) = read_extent(bytes, pos, ts)?;
        let sum = read_sum(bytes, pos)?;
        if let Some(body) = own.filter(|_| back == 0) {
            if bulk_sum64(body.get(at)?) != sum {
                return None;
            }
        }
        Some(Part { at, sum })
    };
    // Entries are ascending within the run: at most 64.
    let mut entries: Vec<Entry> = Vec::with_capacity((bytes.len() / 12).min(1 << RUN_BITS));
    while pos < bytes.len() {
        let tag = varint::read_u64(bytes, &mut pos)?;
        if tag >> 1 > RUN_MASK {
            return None;
        }
        let segment = first.with_no(first.no() | tag >> 1);
        if entries.last().is_some_and(|e| e.segment >= segment) {
            return None;
        }
        let base = part(&mut pos)?;
        let patch = match (tag & 1, segment) {
            (0, _) => None,
            (_, Segment::Node(_)) => {
                let patch = part(&mut pos)?;
                if patch.at.ts <= base.at.ts {
                    return None;
                }
                Some(patch)
            }
            (_, Segment::Rel(_)) => return None,
        };
        entries.push(Entry {
            segment,
            base,
            patch,
        });
    }
    Some(entries)
}

/// Relationship segments in memory, by the bytes they stand for (see the
/// module doc): those earlier loads decoded, and those the writer lent from
/// the graph it encoded them from. A chunk is held weakly: it is found here
/// for as long as some graph holds it unchanged. A decoded chunk was checked
/// against its sum when it was decoded, a lent one is what those bytes were
/// encoded from; a load that finds either here does not read the bytes.
pub struct SharedSegments {
    inner: Mutex<Held>,
}

impl Default for SharedSegments {
    fn default() -> Self {
        SharedSegments {
            inner: Mutex::new(Rank::SharedSegments, Held::default()),
        }
    }
}

#[derive(Default)]
struct Held {
    chunks: HashMap<Source, WeakRelChunk>,
    /// `chunks.len()` after the last sweep of dead entries.
    swept: usize,
}

impl SharedSegments {
    /// The chunk of each of `entries` that is held, in their order.
    fn find(&self, entries: &[&Entry]) -> Vec<Option<RelChunk>> {
        let held = self.inner.lock();
        entries
            .iter()
            .map(|e| match e.segment {
                Segment::Rel(_) => held.chunks.get(&e.source())?.upgrade(),
                Segment::Node(_) => None,
            })
            .collect()
    }

    /// Offers the chunks of `loan` to later loads. Call it once the file
    /// `loan` was taken for is durable and indexed: only then do loads name
    /// its bytes.
    pub fn lend(&self, loan: Loan) {
        self.keep(loan.0);
    }

    fn keep(&self, chunks: impl IntoIterator<Item = (Source, WeakRelChunk)>) {
        let mut held = self.inner.lock();
        for (source, chunk) in chunks {
            held.chunks.insert(source, chunk);
        }
        // A dead entry costs a few dozen bytes: sweep them out whenever the
        // map has doubled since the last sweep.
        if held.chunks.len() > 2 * held.swept.max(64) {
            held.chunks.retain(|_, chunk| !chunk.is_dead());
            held.swept = held.chunks.len();
        }
    }

    /// How many segments some graph still holds.
    #[cfg(test)]
    fn held(&self) -> usize {
        let held = self.inner.lock();
        held.chunks.values().filter(|c| !c.is_dead()).count()
    }
}

/// The relationship chunks of the graph a snapshot file was encoded from
/// whose bytes the file holds inline, held weakly, each under the bytes it
/// was encoded to: what [`SharedSegments::lend`] offers to later loads.
pub struct Loan(Vec<(Source, WeakRelChunk)>);

impl Loan {
    /// Takes the chunks of `graph` that the file of `manifest` holds inline.
    /// `graph` must be the graph `manifest` was [`encode`]d from, at its
    /// timestamp: a chunk changed since would stand for bytes it does not
    /// decode from. (Changing one later is safe: see [`lpg::RelChunk`].)
    /// Referenced segments are left out: the write that held them inline
    /// lent them, or the load that decoded them kept them.
    pub fn new(manifest: &Manifest, graph: &Graph) -> Loan {
        let inline = manifest.entries().filter(|e| e.base.at.ts == manifest.ts);
        let chunks = inline.filter_map(|e| match e.segment {
            Segment::Rel(no) => Some((e.source(), graph.rel_chunk(no)?.downgrade())),
            Segment::Node(_) => None,
        });
        Loan(chunks.collect())
    }
}

/// A decoded snapshot and what its segments cost.
#[derive(Debug)]
pub struct Decoded {
    /// The graph at the file's timestamp.
    pub graph: Graph,
    /// The file's manifest, resolved.
    pub manifest: Manifest,
    /// Segments decoded from bytes.
    pub decoded: usize,
    /// Relationship segments taken from [`SharedSegments`].
    pub shared: usize,
    /// Each node segment the file patches, with the mask of the nodes its
    /// patch lists ([`Segment::of_node`]).
    pub patched: Vec<(Segment, u64)>,
}

/// Referenced bytes read from their files: the extents asked for, and
/// their bytes one after the other.
struct Fetched {
    extents: Vec<Extent>,
    /// Where each extent's bytes start in `bytes`.
    starts: Vec<usize>,
    bytes: Vec<u8>,
}

impl Fetched {
    /// Asks `read` once for every extent that covers `needed`, ranges of
    /// one file at most `FETCH_GAP` bytes apart read as one.
    fn read(
        needed: impl Iterator<Item = Extent>,
        read: &mut impl FnMut(Extent, &mut Vec<u8>) -> Option<()>,
    ) -> Result<Fetched, Fault> {
        let extents = merge(needed, FETCH_GAP);
        let mut bytes = Vec::new();
        let mut starts = Vec::with_capacity(extents.len());
        for e in &extents {
            let start = bytes.len();
            starts.push(start);
            read(*e, &mut bytes)
                .filter(|()| (bytes.len() - start) as u64 == e.len)
                .ok_or(Fault::Reference(e.ts))?;
        }
        Ok(Fetched {
            extents,
            starts,
            bytes,
        })
    }

    /// The bytes of `part`, which must match its sum.
    fn get(&self, part: &Part) -> Result<&[u8], Fault> {
        let at = part.at;
        // The extent that covers `at`: the last one starting at or before it.
        let key = (at.ts, at.offset);
        let i = self.extents.partition_point(|e| (e.ts, e.offset) <= key);
        i.checked_sub(1)
            .and_then(|i| Some((self.extents.get(i)?, *self.starts.get(i)? as u64)))
            .and_then(|(e, start)| {
                let offset = start.checked_add(at.offset.checked_sub(e.offset)?)?;
                slice(&self.bytes, offset, at.len)
            })
            .filter(|b| bulk_sum64(b) == part.sum)
            .ok_or(Fault::Reference(at.ts))
    }
}

/// `manifest` with every referenced run read and its entries filled in;
/// `read` as [`decode`] takes it. A run that is not read, does not match
/// its sum or does not parse is a [`Fault::Reference`] to the file that
/// holds it.
fn resolve(
    manifest: &Manifest,
    read: &mut impl FnMut(Extent, &mut Vec<u8>) -> Option<()>,
) -> Result<Manifest, Fault> {
    let unresolved = |r: &&Run| r.entries.is_none();
    let needed = manifest.runs.iter().filter(unresolved).map(|r| r.at.at);
    let fetched = Fetched::read(needed, read)?;
    let mut out = manifest.clone();
    for run in out.runs.iter_mut().filter(|r| r.entries.is_none()) {
        let holder = run.at.at.ts;
        let bytes = fetched.get(&run.at)?;
        let entries = read_run(run.first, holder, bytes, None).ok_or(Fault::Reference(holder))?;
        run.entries = Some(entries);
    }
    Ok(out)
}

/// Decodes the graph of the snapshot file `file`, whose manifest is
/// `manifest`. The runs it references are resolved first, then the
/// segments are fetched: a relationship segment that `shared` holds is
/// taken from there; every other segment is decoded from bytes, and the
/// relationship ones are added to `shared` once the whole graph has
/// decoded. `read` is asked once for every extent that fetches the
/// referenced bytes still needed, in order by file and offset (runs first,
/// then segments), to append the extent's bytes to the buffer it is given;
/// every referenced range must match its sum. An extent covers the needed
/// ranges of one file that lie at most `FETCH_GAP` bytes apart, and the
/// bytes between them.
pub fn decode(
    manifest: &Manifest,
    file: &[u8],
    shared: &SharedSegments,
    mut read: impl FnMut(Extent, &mut Vec<u8>) -> Option<()>,
) -> Result<Decoded, Fault> {
    let manifest = resolve(manifest, &mut read)?;
    let entries: Vec<&Entry> = manifest.entries().collect();
    let held = shared.find(&entries);
    let needed = entries.iter().zip(&held);
    let needed = needed
        .filter(|(_, h)| h.is_none())
        .flat_map(|(e, _)| e.parts());
    let needed = needed.filter(|p| p.at.ts != manifest.ts).map(|p| p.at);
    let fetched = Fetched::read(needed, &mut read)?;
    // The bytes of a part, checked against its sum when they come from
    // another file.
    let bytes_of = |part: &Part| {
        if part.at.ts == manifest.ts {
            return slice(file, part.at.offset, part.at.len).ok_or(Fault::Corrupt);
        }
        fetched.get(part)
    };
    let mut graph = Graph::new();
    let (mut decoded, mut reused, mut patched) = (0, 0, Vec::new());
    let mut fresh = Vec::new();
    let mut chunks = Vec::new();
    for (entry, held) in entries.iter().zip(held) {
        let chunk = match (held, entry.segment) {
            (Some(chunk), _) => {
                reused += 1;
                chunk
            }
            (None, Segment::Node(no)) => {
                decoded += 1;
                let base = bytes_of(&entry.base)?;
                let patch = entry.patch.as_ref().map(bytes_of).transpose()?;
                decode_nodes(&mut graph, &mut patched, no, base, patch).ok_or(Fault::Corrupt)?;
                continue;
            }
            (None, Segment::Rel(no)) => {
                decoded += 1;
                let chunk = decode_rels(no, bytes_of(&entry.base)?).ok_or(Fault::Corrupt)?;
                fresh.push((entry.source(), chunk.downgrade()));
                chunk
            }
        };
        chunks.push(chunk);
    }
    // All at once: every adjacency list is allocated once, at its size.
    graph
        .insert_rel_chunks(&chunks)
        .map_err(|_| Fault::Corrupt)?;
    shared.keep(fresh);
    // They borrow `manifest`, which the result takes.
    drop(entries);
    Ok(Decoded {
        graph,
        manifest,
        decoded,
        shared: reused,
        patched,
    })
}

fn slice(bytes: &[u8], offset: u64, len: u64) -> Option<&[u8]> {
    let start = usize::try_from(offset).ok()?;
    bytes.get(start..start.checked_add(usize::try_from(len).ok()?)?)
}

/// The `(id, body)` records of the bytes of one segment or patch of
/// segment `no`: one body for each bit of its member mask, ascending. A
/// `None` item ends them when a body does not decode, the mask is missing
/// or 0, or bytes follow the last member's body.
fn records(no: u64, bytes: &[u8]) -> impl Iterator<Item = Option<(u64, RecordBody)>> + '_ {
    let (mask, bodies) = match bytes.split_first_chunk() {
        Some((mask, bodies)) => (u64::from_le_bytes(*mask), bodies),
        None => (0, bytes),
    };
    let (mut bits, mut pos, mut done) = (mask, 0, false);
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        if bits == 0 {
            done = true;
            return (mask == 0 || pos != bodies.len()).then_some(None);
        }
        let id = no << SEGMENT_BITS | u64::from(bits.trailing_zeros());
        bits &= bits - 1;
        Some(RecordBody::decode(bodies, &mut pos).map(|body| (id, body)))
    })
}

/// Inserts the nodes of node segment `no` into `graph`: those of `base`,
/// each in the state `patch` gives it when `patch` lists it, and those only
/// `patch` lists; a node `patch` deletes is left out. The nodes `patch`
/// lists join `patched`.
fn decode_nodes(
    graph: &mut Graph,
    patched: &mut Vec<(Segment, u64)>,
    no: u64,
    base: &[u8],
    patch: Option<&[u8]>,
) -> Option<()> {
    let patch = match patch {
        Some(bytes) => records(no, bytes)
            .map(|record| match record? {
                (id, RecordBody::NodeFull { labels, props }) => {
                    Some((id, Some(Node::new(NodeId::new(id), labels, props))))
                }
                (id, RecordBody::NodeDeleted) => Some((id, None)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?,
        None => Vec::new(),
    };
    if !patch.is_empty() {
        let mask = patch
            .iter()
            .fold(0, |mask, (id, _)| mask | 1 << (id & ID_MASK));
        patched.push((Segment::Node(no), mask));
    }
    let mut patch = patch.into_iter().peekable();
    let mut insert = |node: Option<Node>| node.map_or(Some(()), |n| graph.insert_node(n).ok());
    for record in records(no, base) {
        let (id, RecordBody::NodeFull { labels, props }) = record? else {
            return None;
        };
        while let Some((_, node)) = patch.next_if(|(p, _)| *p < id) {
            insert(node)?;
        }
        match patch.next_if(|(p, _)| *p == id) {
            Some((_, node)) => insert(node)?,
            None => insert(Some(Node::new(NodeId::new(id), labels, props)))?,
        }
    }
    patch.try_for_each(|(_, node)| insert(node))
}

/// The relationships of relationship segment `no`, as one chunk.
fn decode_rels(no: u64, bytes: &[u8]) -> Option<RelChunk> {
    let mut rels = Vec::with_capacity(1 << SEGMENT_BITS);
    for record in records(no, bytes) {
        let (
            id,
            RecordBody::RelFull {
                src,
                tgt,
                label,
                props,
            },
        ) = record?
        else {
            return None;
        };
        rels.push(Relationship::new(RelId::new(id), src, tgt, label, props));
    }
    // Sparse ids leave segments nearly empty.
    rels.shrink_to_fit();
    RelChunk::new(rels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::{PropertyValue, StrId, Update};

    /// 200 nodes and 400 relationships: 4 node and 7 relationship segments.
    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..200u64 {
            g.apply(&Update::AddNode {
                id: NodeId::new(i),
                labels: vec![StrId::new((i % 3) as u32)],
                props: vec![(StrId::new(9), PropertyValue::Int(i as i64))],
            })
            .unwrap();
        }
        for i in 0..400u64 {
            g.apply(&Update::AddRel {
                id: RelId::new(i),
                src: NodeId::new(i % 200),
                tgt: NodeId::new((i * 7) % 200),
                label: Some(StrId::new(5)),
                props: vec![(StrId::new(1), PropertyValue::Float(i as f64 / 2.0))],
            })
            .unwrap();
        }
        g
    }

    /// Writes the segments `dirty` names whole and references the rest.
    fn rewrite(dirty: &[Segment]) -> impl Fn(Segment) -> Change + '_ {
        |s| {
            if dirty.contains(&s) {
                Change::Any
            } else {
                Change::None
            }
        }
    }

    /// Decodes `file` with its references answered from `earlier`, sharing
    /// what `shared` holds; also returns how many bytes were read.
    fn load_with(
        file: &[u8],
        earlier: &[(Timestamp, &[u8])],
        shared: &SharedSegments,
    ) -> Result<(Decoded, usize), Fault> {
        let manifest = open(file).ok_or(Fault::Corrupt)?;
        let mut read = 0;
        let decoded = decode(&manifest, file, shared, |e, buf| {
            let (_, bytes) = earlier.iter().find(|(ts, _)| *ts == e.ts)?;
            let bytes = slice(bytes, e.offset, e.len)?;
            buf.extend_from_slice(bytes);
            read += bytes.len();
            Some(())
        })?;
        Ok((decoded, read))
    }

    /// Decodes `file` with its references answered from `earlier`.
    fn load(file: &[u8], earlier: &[(Timestamp, &[u8])]) -> Result<Graph, Fault> {
        Ok(load_with(file, earlier, &SharedSegments::default())?
            .0
            .graph)
    }

    #[test]
    fn standalone_roundtrip() {
        let g = sample_graph();
        let (file, manifest) = encode(&g, 5, None, |_| Change::Any);
        assert_eq!(manifest.entries().count(), 4 + 7);
        assert_eq!(manifest.runs(), (2, 0));
        assert!(manifest.extents().is_empty());
        let back = load(&file, &[]).unwrap();
        assert!(g.same_as(&back));
        back.check_consistency().unwrap();
        let empty = Graph::new();
        let (file, _) = encode(&empty, 1, None, |_| Change::Any);
        assert_eq!(load(&file, &[]).unwrap().node_count(), 0);
    }

    #[test]
    fn segments_name_their_members_by_mask() {
        // A partial segment of ids 0..10, and ids at the edges of a segment
        // and of the one-, two- and three-byte varints: 63, 64, 2^14, 2^21.
        let ids = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 1 << 14, 1 << 21];
        let mut g = Graph::new();
        for id in ids {
            g.apply(&Update::AddNode {
                id: NodeId::new(id),
                labels: vec![],
                props: vec![],
            })
            .unwrap();
        }
        for (rel, &src) in ids.iter().enumerate() {
            g.apply(&Update::AddRel {
                id: RelId::new(ids[ids.len() - 1 - rel]),
                src: NodeId::new(src),
                tgt: NodeId::new(63),
                label: None,
                props: vec![],
            })
            .unwrap();
        }
        let (file, manifest) = encode(&g, 7, None, |_| Change::Any);
        let segments: Vec<Segment> = manifest.entries().map(|e| e.segment).collect();
        let (node, rel) = (Segment::Node, Segment::Rel);
        let expect = [
            node(0),
            node(1),
            node(1 << 8),
            node(1 << 15),
            rel(0),
            rel(1),
            rel(1 << 8),
            rel(1 << 15),
        ];
        assert_eq!(segments, expect);
        // Each segment is its mask, then one body per member: an empty node
        // body is three bytes (header, no labels, no properties).
        let masks = [((1 << 10) - 1) | (1 << 63), 1, 1, 1];
        for (e, mask) in manifest.entries().zip(masks) {
            let bytes = slice(&file, e.base.at.offset, e.base.at.len).unwrap();
            assert_eq!(bytes[..8], u64::to_le_bytes(mask), "{:?}", e.segment);
            assert_eq!(bytes.len(), 8 + 3 * mask.count_ones() as usize);
        }
        let back = load(&file, &[]).unwrap();
        assert!(back.same_as(&g));
        back.check_consistency().unwrap();
        // A relationship segment's mask with one member more than it has
        // bodies, sealed under its sum: the file still opens, and does not
        // decode.
        let mut entries: Vec<Entry> = manifest.entries().copied().collect();
        let rels = &mut entries[4].base;
        let mut body = file[..manifest.runs[0].at.at.offset as usize].to_vec();
        body[rels.at.offset as usize + 1] |= 1 << 2;
        rels.sum = bulk_sum64(slice(&body, rels.at.offset, rels.at.len).unwrap());
        let (bad, _) = seal(body, 7, &entries, None);
        assert!(open(&bad).is_some());
        assert_eq!(load(&bad, &[]).err(), Some(Fault::Corrupt));
        // The same bytes under the old sum do not open.
        entries[4].base.sum = manifest.entries().nth(4).unwrap().base.sum;
        let body = bad[..manifest.runs[0].at.at.offset as usize].to_vec();
        assert!(open(&seal(body, 7, &entries, None).0).is_none());
    }

    #[test]
    fn clean_segments_are_referenced_one_hop() {
        let g1 = sample_graph();
        let (f1, m1) = encode(&g1, 10, None, |_| Change::Any);
        // Touch node 70 (node segment 1) and relationship 300 (segment 4).
        let mut g2 = g1.clone();
        let touched = [
            Update::SetNodeProp {
                id: NodeId::new(70),
                key: StrId::new(2),
                value: PropertyValue::Bool(true),
            },
            Update::DeleteRel {
                id: RelId::new(300),
            },
        ];
        g2.apply_all(&touched).unwrap();
        let dirty: Vec<Segment> = touched.iter().map(|u| Segment::of(u.entity())).collect();
        let (f2, m2) = encode(&g2, 20, Some(&m1), rewrite(&dirty));
        assert!(
            f2.len() * 4 < f1.len(),
            "{} vs {} bytes",
            f2.len(),
            f1.len()
        );
        assert_eq!(m2.sources(), vec![10]);
        // Segments 0 of nodes and 0..=3 of relationships are one range of f1.
        assert_eq!(m2.extents().len(), 3);
        assert!(load(&f2, &[(10, &f1)]).unwrap().same_as(&g2));

        // A third file copies f2's references to f1 rather than pointing at
        // f2, which holds those bytes only by reference.
        let (f3, m3) = encode(&g2, 30, Some(&m2), |_| Change::None);
        assert_eq!(m3.sources(), vec![10, 20]);
        assert!(load(&f3, &[(10, &f1), (20, &f2)]).unwrap().same_as(&g2));
        // A referenced file that changed under the reference is refused.
        let mut bad = f1.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 1;
        assert_eq!(
            load(&f3, &[(10, &bad), (20, &f2)]).err(),
            Some(Fault::Reference(10))
        );
        assert_eq!(load(&f3, &[(20, &f2)]).err(), Some(Fault::Reference(10)));
    }

    /// The anchor of [`sample_graph`] at 10 and, at 20, the file that
    /// rewrites node segment 1 and relationship segment 4 and references the
    /// rest: `(f1, f2, g2)`.
    fn referencing_pair() -> (Vec<u8>, Vec<u8>, Graph) {
        let g1 = sample_graph();
        let (f1, m1) = encode(&g1, 10, None, |_| Change::Any);
        let mut g2 = g1.clone();
        g2.apply(&Update::SetNodeProp {
            id: NodeId::new(70),
            key: StrId::new(2),
            value: PropertyValue::Bool(true),
        })
        .unwrap();
        g2.apply(&Update::DeleteRel {
            id: RelId::new(300),
        })
        .unwrap();
        let dirty = [Segment::Node(1), Segment::Rel(4)];
        let (f2, _) = encode(&g2, 20, Some(&m1), rewrite(&dirty));
        (f1, f2, g2)
    }

    #[test]
    fn loads_share_the_relationship_segments_their_files_share() {
        let (f1, f2, g2) = referencing_pair();
        let shared = SharedSegments::default();
        let (a, _) = load_with(&f1, &[], &shared).unwrap();
        assert_eq!((a.decoded, a.shared), (11, 0));
        assert_eq!(shared.held(), 7);
        // f2 references six of f1's seven relationship segments: they come
        // from memory, and of f1 only the node segments are read (and what
        // lies between them, when that is at most FETCH_GAP bytes).
        let (b, read) = load_with(&f2, &[(10, &f1)], &shared).unwrap();
        assert_eq!((b.decoded, b.shared), (5, 6));
        assert!(b.graph.same_as(&g2));
        b.graph.check_consistency().unwrap();
        let m2 = open(&f2).unwrap();
        let referenced: u64 = m2.extents().iter().map(|e| e.len).sum();
        let nodes: u64 = m2
            .entries()
            .filter(|e| matches!(e.segment, Segment::Node(_)) && e.base.at.ts != m2.ts)
            .map(|e| e.base.at.len)
            .sum();
        assert!(
            (nodes..nodes + FETCH_GAP).contains(&(read as u64)),
            "{read}"
        );
        assert!(read * 2 < referenced as usize, "{read} of {referenced}");
        // Four node chunks and relationship segment 4 are all they do not
        // share.
        assert_eq!(b.graph.chunks_diverged_from(&a.graph), 5);
        assert_eq!(shared.held(), 8);

        // Held weakly: once no graph holds them, everything is decoded again.
        drop((a, b));
        assert_eq!(shared.held(), 0);
        let (c, read) = load_with(&f2, &[(10, &f1)], &shared).unwrap();
        assert_eq!((c.decoded, c.shared), (11, 0));
        // Every referenced range of f1, and the gaps of at most FETCH_GAP
        // bytes between them.
        let plan = merge(m2.extents().into_iter(), FETCH_GAP);
        assert_eq!(read as u64, plan.iter().map(|e| e.len).sum::<u64>());
        assert!(read as u64 - referenced <= FETCH_GAP * plan.len() as u64);
    }

    #[test]
    fn a_load_reads_over_small_gaps_and_around_large_ones() {
        let e = |ts, offset, len| Extent { ts, offset, len };
        let ranges = [
            e(1, 0, 10),
            e(1, 10 + FETCH_GAP, 5),
            e(1, 20 + 2 * FETCH_GAP, 5),
            e(2, 0, 3),
            e(1, 12, 1),
        ];
        // The manifest's extents stay exact: only touching ranges merge.
        assert_eq!(
            merge(ranges.into_iter(), 0),
            [
                e(1, 0, 10),
                e(1, 12, 1),
                e(1, 10 + FETCH_GAP, 5),
                e(1, 20 + 2 * FETCH_GAP, 5),
                e(2, 0, 3)
            ]
        );
        // A load reads across a gap of up to FETCH_GAP bytes within a file.
        assert_eq!(
            merge(ranges.into_iter(), FETCH_GAP),
            [
                e(1, 0, 15 + FETCH_GAP),
                e(1, 20 + 2 * FETCH_GAP, 5),
                e(2, 0, 3)
            ]
        );
    }

    #[test]
    fn a_graph_that_changes_a_shared_chunk_keeps_the_change_to_itself() {
        let (f1, f2, g2) = referencing_pair();
        let shared = SharedSegments::default();
        let (mut a, _) = load_with(&f1, &[], &shared).unwrap();
        let (b, _) = load_with(&f2, &[(10, &f1)], &shared).unwrap();
        let set = |rel: u64| Update::SetRelProp {
            id: RelId::new(rel),
            key: StrId::new(3),
            value: PropertyValue::Int(-1),
        };
        // Segment 0 is held by both graphs: `a` changes a copy of it.
        a.graph.apply(&set(5)).unwrap();
        assert!(b.graph.same_as(&g2), "the other holder is untouched");
        let (c, _) = load_with(&f2, &[(10, &f1)], &shared).unwrap();
        assert_eq!(c.shared, 7);
        assert!(c.graph.same_as(&g2));
        drop((b, c));
        // Of f2's relationship segments `a` alone holds 1–3, 5 and 6 now.
        // Changing segment 1 in place takes it away from what loads find.
        a.graph.apply(&set(70)).unwrap();
        let (d, _) = load_with(&f2, &[(10, &f1)], &shared).unwrap();
        assert_eq!(d.shared, 4);
        assert!(d.graph.same_as(&g2));
    }

    #[test]
    fn a_load_takes_what_the_writer_lent_until_the_writer_changes_it() {
        let (f1, f2, g2) = referencing_pair();
        let mut g1 = sample_graph();
        let shared = SharedSegments::default();
        shared.lend(Loan::new(&open(&f1).unwrap(), &g1));
        // Every relationship segment comes from the writer's graph.
        let (a, read) = load_with(&f1, &[], &shared).unwrap();
        assert_eq!((a.decoded, a.shared, read), (4, 7, 0));
        assert!(a.graph.same_as(&g1));
        a.graph.check_consistency().unwrap();
        assert_eq!(a.graph.chunks_diverged_from(&g1), 4);
        // f2 holds relationship segment 4 inline and lends it from g2.
        let m2 = open(&f2).unwrap();
        let loan = Loan::new(&m2, &g2);
        assert_eq!(loan.0.len(), 1);
        shared.lend(loan);
        let (b, _) = load_with(&f2, &[(10, &f1)], &shared).unwrap();
        assert_eq!((b.decoded, b.shared), (4, 7));
        assert!(b.graph.same_as(&g2));
        drop((a, b));
        // Changed where nobody else holds it: the chunk is not found again.
        g1.apply(&Update::SetRelProp {
            id: RelId::new(5),
            key: StrId::new(3),
            value: PropertyValue::Int(-1),
        })
        .unwrap();
        let (c, _) = load_with(&f1, &[], &shared).unwrap();
        assert_eq!((c.decoded, c.shared), (5, 6));
        assert!(c.graph.same_as(&sample_graph()));
    }

    /// Sets a property on node `id`.
    fn touch(id: u64) -> Update {
        Update::SetNodeProp {
            id: NodeId::new(id),
            key: StrId::new(2),
            value: PropertyValue::Bool(true),
        }
    }

    #[test]
    fn a_touched_node_segment_gets_a_cumulative_patch_until_it_is_too_big() {
        let g1 = sample_graph();
        let (f1, m1) = encode(&g1, 10, None, |_| Change::Any);
        // Node 70 changes and node 100 goes, both in segment 1.
        let mut g2 = g1.clone();
        let mut gone: Vec<RelId> = g2
            .relationships(NodeId::new(100), lpg::Direction::Both)
            .collect();
        // A self-loop is listed in both directions.
        gone.sort_unstable();
        gone.dedup();
        let gone: Vec<Update> = gone
            .into_iter()
            .map(|id| Update::DeleteRel { id })
            .collect();
        g2.apply_all(&gone).unwrap();
        g2.apply_all(&[
            touch(70),
            Update::DeleteNode {
                id: NodeId::new(100),
            },
        ])
        .unwrap();
        let rels: Vec<Segment> = gone.iter().map(|u| Segment::of(u.entity())).collect();
        // Patches segment 1 with `ids` and rewrites `rels`.
        let changes = |ids: &[u64], rels: &[Segment]| {
            let rels = rels.to_vec();
            let mask = ids.iter().map(|&id| Segment::of_node(NodeId::new(id)).1);
            let mask = mask.fold(0, |m, bit| m | bit);
            move |s: Segment| match s {
                Segment::Node(1) => Change::Nodes(mask),
                s if rels.contains(&s) => Change::Any,
                _ => Change::None,
            }
        };
        let (f2, m2) = encode(&g2, 20, Some(&m1), changes(&[70, 100], &rels));
        assert!(m2.patched(Segment::Node(1)) && !m2.patched(Segment::Node(0)));
        let inline = m2.inline();
        assert_eq!((inline.node_bytes, inline.patches), (0, 1));
        assert!(inline.patch_bytes < 32, "{inline:?}");
        assert_eq!(m2.sources(), vec![10]);
        let (d2, _) = load_with(&f2, &[(10, &f1)], &SharedSegments::default()).unwrap();
        assert!(d2.graph.same_as(&g2));
        d2.graph.check_consistency().unwrap();
        assert_eq!(d2.patched, vec![(Segment::Node(1), 1 << 6 | 1 << 36)]);

        // An untouched file copies both references: it holds nothing of
        // node segment 1 and names the patch where f2 holds it.
        let (f3, m3) = encode(&g2, 30, Some(&m2), |_| Change::None);
        assert!(m3.patched(Segment::Node(1)));
        assert_eq!(m3.inline(), Inline::default());
        assert_eq!(m3.sources(), vec![10, 20]);
        let earlier: [(Timestamp, &[u8]); 2] = [(10, &f1), (20, &f2)];
        assert!(load(&f3, &earlier).unwrap().same_as(&g2));
        // Losing the patch loses the file.
        assert_eq!(load(&f3, &earlier[..1]).err(), Some(Fault::Reference(20)));

        // Node 100 comes back and node 127 changes: the next patch lists all
        // three.
        let mut g4 = g2.clone();
        g4.apply(&Update::AddNode {
            id: NodeId::new(100),
            labels: vec![],
            props: vec![],
        })
        .unwrap();
        g4.apply(&touch(127)).unwrap();
        let (f4, m4) = encode(&g4, 40, Some(&m3), changes(&[70, 100, 127], &[]));
        assert_eq!(m4.inline().patches, 1);
        let (d4, _) = load_with(&f4, &earlier, &SharedSegments::default()).unwrap();
        assert!(d4.graph.same_as(&g4));
        let mask = 1 << 6 | 1 << 36 | 1 << 63;
        assert_eq!(d4.patched, vec![(Segment::Node(1), mask)]);

        // Past half the base's bytes the segment is written whole.
        let (f5, m5) = encode(&g4, 50, Some(&m4), changes(&Vec::from_iter(64..128), &[]));
        assert!(!m5.patched(Segment::Node(1)));
        let inline = m5.inline();
        assert_eq!(inline.patches, 0);
        assert!(inline.node_bytes > 200, "{inline:?}");
        assert!(load(&f5, &earlier).unwrap().same_as(&g4));
    }

    /// The file at ts 30 with one entry, of `segment`: a base that holds
    /// nodes 0 and 1, at ts `base_ts`, and `patch` as its patch at ts
    /// `patch_ts`. The file holds both at the offsets the entry names, so a
    /// referenced part reads from the file itself standing in for its source.
    fn patched_file(
        base_ts: Timestamp,
        patch_ts: Timestamp,
        segment: Segment,
        patch: &[u8],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u32(&mut out, MAGIC);
        out.push(VERSION);
        varint::write_u64(&mut out, 30);
        let mut base = 0b11u64.to_le_bytes().to_vec();
        for _ in [0u64, 1] {
            encode_node_full(&mut base, &[], &[]);
        }
        let mut part = |bytes: &[u8], ts| {
            let at = Extent {
                ts,
                offset: out.len() as u64,
                len: bytes.len() as u64,
            };
            out.extend_from_slice(bytes);
            Part {
                at,
                sum: bulk_sum64(bytes),
            }
        };
        let base = part(&base, base_ts);
        let patch = Some(part(patch, patch_ts));
        seal(
            out,
            30,
            &[Entry {
                segment,
                base,
                patch,
            }],
            None,
        )
        .0
    }

    /// A patch of `bodies` whose member mask is `mask`.
    fn patch_bytes(mask: u64, bodies: &[RecordBody]) -> Vec<u8> {
        let mut out = mask.to_le_bytes().to_vec();
        for body in bodies {
            body.encode(&mut out);
        }
        out
    }

    #[test]
    fn malformed_patches_are_refused() {
        let full = || RecordBody::NodeFull {
            labels: vec![StrId::new(1)],
            props: vec![],
        };
        // Node 1 changes, node 5 goes and node 7 is new.
        let mask = 1 << 1 | 1 << 5 | 1 << 7;
        let good = patch_bytes(mask, &[full(), RecordBody::NodeDeleted, full()]);
        let file = patched_file(20, 30, Segment::Node(0), &good);
        let m = open(&file).expect("the well-formed file opens");
        assert!(m.patched(Segment::Node(0)));
        let d = load_with(&file, &[(20, &file)], &SharedSegments::default()).unwrap();
        let g = d.0.graph;
        let ids: Vec<u64> = g.nodes().map(|n| n.id.raw()).collect();
        assert_eq!(ids, [0, 1, 7]);
        assert_eq!(
            g.node(NodeId::new(1)).unwrap().labels,
            vec![StrId::new(1)].into()
        );
        assert_eq!(d.0.patched, vec![(Segment::Node(0), mask)]);

        // The patch must come later than its base.
        assert!(open(&patched_file(30, 30, Segment::Node(0), &good)).is_none());
        assert!(open(&patched_file(20, 20, Segment::Node(0), &good)).is_none());
        assert!(open(&patched_file(30, 20, Segment::Node(0), &good)).is_none());
        // A relationship segment carries no patch.
        assert!(open(&patched_file(20, 30, Segment::Rel(0), &good)).is_none());

        let refused = [
            // A mask whose popcount is not the number of bodies.
            patch_bytes(1 << 1 | 1 << 5, &[full()]),
            patch_bytes(1 << 5, &[full(), RecordBody::NodeDeleted]),
            patch_bytes(0, &[full()]),
            // A patch that lists nothing, and one cut inside its mask.
            patch_bytes(0, &[]),
            patch_bytes(1, &[full()])[..4].to_vec(),
            // Bodies a node patch does not hold.
            patch_bytes(1, &[RecordBody::RelDeleted]),
            patch_bytes(
                1,
                &[RecordBody::RelFull {
                    src: NodeId::new(0),
                    tgt: NodeId::new(1),
                    label: None,
                    props: vec![],
                }],
            ),
            patch_bytes(1, &[RecordBody::NodeDelta(Default::default())]),
        ];
        for (i, patch) in refused.iter().enumerate() {
            let file = patched_file(20, 30, Segment::Node(0), patch);
            assert!(
                open(&file).is_some(),
                "patch {i}: the manifest is well-formed"
            );
            let read = load(&file, &[(20, &file)]);
            assert_eq!(read.err(), Some(Fault::Corrupt), "patch {i}");
        }
    }

    /// `n` nodes and no relationships.
    fn nodes(n: u64) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.apply(&Update::AddNode {
                id: NodeId::new(i),
                labels: vec![],
                props: vec![(StrId::new(9), PropertyValue::Int(i as i64))],
            })
            .unwrap();
        }
        g
    }

    /// The bytes of a file that are neither segment nor patch.
    fn manifest_bytes(file: &[u8]) -> u64 {
        file.len() as u64 - open(file).unwrap().inline().segment_bytes()
    }

    #[test]
    fn unchanged_runs_are_referenced_one_hop_and_checked() {
        // Three node runs: segments 0..64, 64..128 and 128..130.
        let g1 = nodes(130 * 64);
        let (f1, m1) = encode(&g1, 10, None, |_| Change::Any);
        assert_eq!(m1.runs(), (3, 0));
        // f2 patches segment 1 (run 0): runs 1 and 2 are f1's.
        let mut g2 = g1.clone();
        g2.apply(&touch(70)).unwrap();
        let patch_one = |no| {
            move |s: Segment| match s {
                Segment::Node(n) if n == no => Change::Nodes(1 << (70 % 64)),
                _ => Change::None,
            }
        };
        let (f2, m2) = encode(&g2, 20, Some(&m1), patch_one(1));
        assert_eq!(m2.runs(), (1, 2));
        // f3 changes nothing: it copies every run reference, to f2 for run
        // 0 and to f1 for runs 1 and 2, and writes the top level alone.
        let (f3, m3) = encode(&g2, 30, Some(&m2), |_| Change::None);
        assert_eq!(m3.runs(), (0, 3));
        assert_eq!(m3.sources(), vec![10, 20]);
        let top = manifest_bytes(&f3);
        assert!(top < 80, "{top} B");
        assert!(top * 10 < manifest_bytes(&f2), "{top} B");
        let open3 = open(&f3).unwrap();
        assert_eq!(open3.runs(), (0, 3));
        assert_eq!(open3.sources(), vec![10, 20], "the run holders");
        let earlier: [(Timestamp, &[u8]); 2] = [(10, &f1), (20, &f2)];
        let d3 = load_with(&f3, &earlier, &SharedSegments::default())
            .unwrap()
            .0;
        assert!(d3.graph.same_as(&g2));
        // Resolved, the manifest also names the segments its runs hold.
        assert_eq!(d3.manifest.entries().count(), 130);
        assert!(d3.manifest.patched(Segment::Node(1)));
        assert_eq!(d3.manifest.extents().len(), m3.extents().len());

        // A byte of run 0 where f2 holds it: f3 is refused, by f2.
        let run0 = m2.runs[0].at.at;
        assert_eq!(run0.ts, 20);
        let mut bad = f2.clone();
        bad[(run0.offset + run0.len / 2) as usize] ^= 0x10;
        let earlier_bad: [(Timestamp, &[u8]); 2] = [(10, &f1), (20, &bad)];
        assert_eq!(load(&f3, &earlier_bad).err(), Some(Fault::Reference(20)));
        assert_eq!(load(&f3, &earlier[..1]).err(), Some(Fault::Reference(20)));
        // A segment a referenced run names is checked where its file holds
        // it, although that file's footer is never read.
        let seg = m1.find(Segment::Node(100)).unwrap().base.at;
        let mut bad = f1.clone();
        bad[(seg.offset + seg.len / 2) as usize] ^= 0x10;
        let earlier_bad: [(Timestamp, &[u8]); 2] = [(10, &bad), (20, &f2)];
        assert_eq!(load(&f3, &earlier_bad).err(), Some(Fault::Reference(10)));

        // A segment that leaves a run makes it inline, and so does one that
        // joins it: the run's entries are not the previous file's.
        let mut g4 = g2.clone();
        let gone: Vec<Update> = (128 * 64..129 * 64)
            .map(|id| Update::DeleteNode {
                id: NodeId::new(id),
            })
            .collect();
        g4.apply_all(&gone).unwrap();
        let (f4, m4) = encode(&g4, 40, Some(&m3), |_| Change::None);
        assert_eq!(m4.runs(), (1, 2));
        assert_eq!(m4.inline(), Inline::default());
        let earlier: [(Timestamp, &[u8]); 2] = [(10, &f1), (20, &f2)];
        assert!(load(&f4, &earlier).unwrap().same_as(&g4));
        let mut g5 = g4.clone();
        g5.apply(&Update::AddNode {
            id: NodeId::new(128 * 64),
            labels: vec![],
            props: vec![],
        })
        .unwrap();
        let joined = |s: Segment| match s {
            Segment::Node(128) => Change::Any,
            _ => Change::None,
        };
        let (f5, m5) = encode(&g5, 50, Some(&m4), joined);
        assert_eq!(m5.runs(), (1, 2));
        let earlier: [(Timestamp, &[u8]); 3] = [(10, &f1), (20, &f2), (40, &f4)];
        assert!(load(&f5, &earlier).unwrap().same_as(&g5));
    }

    #[test]
    fn corruption_detected() {
        let g = sample_graph();
        let (file, _) = encode(&g, 3, None, |_| Change::Any);
        let mut bad = file.clone();
        bad[0] ^= 0xFF;
        assert!(open(&bad).is_none());
        assert!(open(&file[..file.len() - 3]).is_none());
        let mut padded = file.clone();
        padded.push(7);
        assert!(open(&padded).is_none());
    }
}
