//! Snapshot files for TimeStore (Sec. 4.3: "snapshots are stored on disk, and
//! references to the files are maintained in a second B+Tree indexed by
//! time").
//!
//! A snapshot file is *logically* full — its manifest names every entity of
//! the graph at its timestamp — and *physically* incremental: the bytes of a
//! segment no update touched since the previous snapshot are not written
//! again but referenced where an earlier file holds them.
//!
//! # Layout (version 2)
//!
//! ```text
//! file     := payload footer:u64le                 footer = bulk_sum64(payload)
//! payload  := header body manifest manifest_at:u64le
//! header   := magic:varint version:u8 ts:varint
//! body     := the bytes of this file's inline segments, in manifest order
//! manifest := node_segments:varint rel_segments:varint entry*
//! entry    := segment:varint back:varint offset:varint len:varint [sum:u64le]
//! segment  := (id:varint NodeFull | RelFull)*      ascending id, Fig. 3 bodies
//! ```
//!
//! A **segment** is the nodes, or the relationships, whose ids agree above
//! the low six bits: at most 64 entities. The manifest lists every non-empty
//! node segment, then every non-empty relationship segment, ascending. An
//! entry with `back = 0` is *inline*: its bytes are at `offset` in this file.
//! An entry with `back > 0` is a **reference**: the file at `ts − back` holds
//! the bytes inline at `offset`, and `sum` is their `bulk_sum64`. References
//! are backward (`back` is unsigned, so a file cannot name itself or a later
//! one) and one hop (the writer copies an earlier file's reference instead of
//! pointing at it), so a file depends only on earlier files, and on each of
//! them directly.
//!
//! Nodes precede relationships so decoding can insert through the
//! constraint-checking [`lpg::Graph`].
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
use lpg::{EntityId, Graph, Node, NodeId, RelChunk, RelId, Relationship, Timestamp, WeakRelChunk};
use parking_lot::Mutex;
use std::collections::HashMap;
use vfs::bulk_sum64;

const MAGIC: u32 = 0x4149_5053; // "AIPS"
const VERSION: u8 = 2;
/// A segment holds the entities whose ids agree above this many low bits.
const SEGMENT_BITS: u32 = 6;
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

/// One segment and where its bytes are.
#[derive(Clone, Copy, Debug)]
struct Entry {
    segment: Segment,
    at: Extent,
    sum: u64,
}

/// The bytes an entry names: its segment, where they are and their sum.
/// Every file that references a segment names the bytes the file holding it
/// inline does, so this is what two loads of different files can share.
type Source = (Segment, Extent, u64);

impl Entry {
    fn source(&self) -> Source {
        (self.segment, self.at, self.sum)
    }
}

/// `extents` by file, then offset, ranges that touch or overlap merged into
/// one.
fn merge(extents: impl Iterator<Item = Extent>) -> Vec<Extent> {
    let mut refs: Vec<Extent> = extents.collect();
    refs.sort_unstable();
    let mut out: Vec<Extent> = Vec::with_capacity(refs.len());
    for r in refs {
        match out.last_mut() {
            Some(last) if last.ts == r.ts && r.offset <= last.offset.saturating_add(last.len) => {
                let end = r.offset.saturating_add(r.len);
                last.len = last.len.max(end - last.offset);
            }
            _ => out.push(r),
        }
    }
    out
}

/// Where the bytes of every segment of one snapshot file are.
#[derive(Clone, Debug)]
pub struct Manifest {
    ts: Timestamp,
    /// Ascending by segment.
    entries: Vec<Entry>,
}

impl Manifest {
    /// The timestamp of the file.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// The earlier files this one references, ascending.
    pub fn sources(&self) -> Vec<Timestamp> {
        let mut out: Vec<Timestamp> = self.references().map(|e| e.at.ts).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The reads that fetch every referenced byte: by file, then offset,
    /// ranges that touch or overlap merged into one.
    pub fn extents(&self) -> Vec<Extent> {
        merge(self.references().map(|e| e.at))
    }

    fn references(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter().filter(move |e| e.at.ts != self.ts)
    }

    fn find(&self, segment: Segment) -> Option<&Entry> {
        self.entries
            .binary_search_by_key(&segment, |e| e.segment)
            .ok()
            .and_then(|i| self.entries.get(i))
    }
}

/// Why a snapshot did not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The file's own bytes: structure or entities.
    Corrupt,
    /// Bytes referenced in the file at this timestamp: unreadable, short,
    /// or not matching their sum.
    Reference(Timestamp),
}

/// Encodes `graph` as the snapshot file at `ts`. A segment that `prev` lists
/// and `dirty` does not name is written as a reference to where `prev` says
/// its bytes are; every other segment is written inline. With no `prev` the
/// file stands alone. Returns the sealed file and its manifest.
///
/// The caller vouches that a segment `dirty` does not name holds the same
/// entities as at `prev`'s timestamp: nothing here compares contents.
pub fn encode(
    graph: &Graph,
    ts: Timestamp,
    prev: Option<&Manifest>,
    dirty: impl Fn(Segment) -> bool,
) -> (Vec<u8>, Manifest) {
    let mut out = Vec::new();
    varint::write_u32(&mut out, MAGIC);
    out.push(VERSION);
    varint::write_u64(&mut out, ts);
    let reuse = |segment: Segment| {
        prev.filter(|m| m.ts < ts && !dirty(segment))
            .and_then(|m| m.find(segment))
            .copied()
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
    let manifest_at = out.len() as u64;
    let nodes = entries
        .iter()
        .filter(|e| matches!(e.segment, Segment::Node(_)))
        .count();
    varint::write_u64(&mut out, nodes as u64);
    varint::write_u64(&mut out, (entries.len() - nodes) as u64);
    for e in &entries {
        let (Segment::Node(no) | Segment::Rel(no)) = e.segment;
        let back = ts - e.at.ts;
        varint::write_u64(&mut out, no);
        varint::write_u64(&mut out, back);
        varint::write_u64(&mut out, e.at.offset);
        varint::write_u64(&mut out, e.at.len);
        if back > 0 {
            out.extend_from_slice(&e.sum.to_le_bytes());
        }
    }
    out.extend_from_slice(&manifest_at.to_le_bytes());
    let footer = bulk_sum64(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    (out, Manifest { ts, entries })
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
        reuse: impl Fn(Segment) -> Option<Entry>,
        encode: impl Fn(&mut Vec<u8>, &T),
    ) {
        let mut items = items.peekable();
        while let Some(no) = items.peek().map(|item| id(item) >> SEGMENT_BITS) {
            let segment = segment_of(no);
            let members =
                std::iter::from_fn(|| items.next_if(|item| id(item) >> SEGMENT_BITS == no));
            if let Some(entry) = reuse(segment) {
                members.for_each(drop);
                self.entries.push(entry);
                continue;
            }
            let start = self.out.len();
            for item in members {
                varint::write_u64(self.out, id(item));
                encode(self.out, item);
            }
            let bytes = &self.out[start..];
            self.entries.push(Entry {
                segment,
                at: Extent {
                    ts: self.ts,
                    offset: start as u64,
                    len: bytes.len() as u64,
                },
                sum: bulk_sum64(bytes),
            });
        }
    }
}

/// Checks a snapshot file's footer and reads its manifest. `None` when the
/// footer does not match, the version is not this one, or the manifest is
/// malformed. Referenced bytes are not read: [`decode`] checks them.
pub fn open(file: &[u8]) -> Option<Manifest> {
    let (payload, footer) = file.split_at_checked(file.len().checked_sub(8)?)?;
    if bulk_sum64(payload) != u64::from_le_bytes(footer.try_into().ok()?) {
        return None;
    }
    let mut pos = 0;
    if varint::read_u32(payload, &mut pos)? != MAGIC || *payload.get(pos)? != VERSION {
        return None;
    }
    pos += 1;
    let ts = varint::read_u64(payload, &mut pos)?;
    let body_start = pos;
    let (rest, at) = payload.split_at_checked(payload.len().checked_sub(8)?)?;
    let manifest_at = usize::try_from(u64::from_le_bytes(at.try_into().ok()?)).ok()?;
    if manifest_at < body_start || manifest_at > rest.len() {
        return None;
    }
    let body = rest.get(..manifest_at)?;
    pos = manifest_at;
    let nodes = varint::read_u64(rest, &mut pos)?;
    let total = nodes.checked_add(varint::read_u64(rest, &mut pos)?)?;
    // Every entry takes at least four bytes: a count past that is garbage,
    // and must not size an allocation.
    if total > (rest.len() - pos) as u64 / 4 {
        return None;
    }
    let mut entries: Vec<Entry> = Vec::with_capacity(total as usize);
    for i in 0..total {
        let no = varint::read_u64(rest, &mut pos)?;
        let segment = if i < nodes {
            Segment::Node(no)
        } else {
            Segment::Rel(no)
        };
        let back = varint::read_u64(rest, &mut pos)?;
        let offset = varint::read_u64(rest, &mut pos)?;
        let len = varint::read_u64(rest, &mut pos)?;
        if len == 0 || entries.last().is_some_and(|e| e.segment >= segment) {
            return None;
        }
        let sum = if back == 0 {
            if offset < body_start as u64 {
                return None;
            }
            bulk_sum64(slice(body, offset, len)?)
        } else {
            let sum = rest.get(pos..pos.checked_add(8)?)?;
            pos += 8;
            u64::from_le_bytes(sum.try_into().ok()?)
        };
        let at = Extent {
            ts: ts.checked_sub(back)?,
            offset,
            len,
        };
        entries.push(Entry { segment, at, sum });
    }
    (pos == rest.len()).then_some(Manifest { ts, entries })
}

/// Relationship segments in memory, by the bytes they stand for (see the
/// module doc): those earlier loads decoded, and those the writer lent from
/// the graph it encoded them from. A chunk is held weakly: it is found here
/// for as long as some graph holds it unchanged. A decoded chunk was checked
/// against its sum when it was decoded, a lent one is what those bytes were
/// encoded from; a load that finds either here does not read the bytes.
#[derive(Default)]
pub struct SharedSegments {
    inner: Mutex<Held>,
}

#[derive(Default)]
struct Held {
    chunks: HashMap<Source, WeakRelChunk>,
    /// `chunks.len()` after the last sweep of dead entries.
    swept: usize,
}

impl SharedSegments {
    /// The chunk of each of `entries` that is held, in their order.
    fn find(&self, entries: &[Entry]) -> Vec<Option<RelChunk>> {
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
        let inline = manifest.entries.iter().filter(|e| e.at.ts == manifest.ts);
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
    /// Segments decoded from bytes.
    pub decoded: usize,
    /// Relationship segments taken from [`SharedSegments`].
    pub shared: usize,
}

/// Decodes the graph of the snapshot file `file`, whose manifest is
/// `manifest`. A relationship segment that `shared` holds is taken from
/// there; every other segment is decoded from bytes, and the relationship
/// ones are added to `shared` once the whole graph has decoded. `read` is
/// asked once for every extent that fetches the referenced bytes still
/// needed ([`Manifest::extents`] when nothing is shared), in that order, to
/// append the extent's bytes to the buffer it is given; every referenced
/// range must match its sum.
pub fn decode(
    manifest: &Manifest,
    file: &[u8],
    shared: &SharedSegments,
    mut read: impl FnMut(Extent, &mut Vec<u8>) -> Option<()>,
) -> Result<Decoded, Fault> {
    let held = shared.find(&manifest.entries);
    let needed = manifest.entries.iter().zip(&held);
    let needed = needed.filter(|(e, h)| h.is_none() && e.at.ts != manifest.ts);
    let extents = merge(needed.map(|(e, _)| e.at));
    // Every referenced byte still needed in one buffer, extent after extent.
    let mut fetched = Vec::new();
    let mut starts = Vec::with_capacity(extents.len());
    for e in &extents {
        let start = fetched.len();
        starts.push(start);
        read(*e, &mut fetched)
            .filter(|()| (fetched.len() - start) as u64 == e.len)
            .ok_or(Fault::Reference(e.ts))?;
    }
    // The bytes of an entry that is not held, checked against its sum when
    // they come from another file.
    let bytes_of = |entry: &Entry| {
        let at = entry.at;
        if at.ts == manifest.ts {
            return slice(file, at.offset, at.len).ok_or(Fault::Corrupt);
        }
        // The extent that covers `at`: the last one starting at or before it.
        let key = (at.ts, at.offset);
        let i = extents.partition_point(|e| (e.ts, e.offset) <= key);
        i.checked_sub(1)
            .and_then(|i| Some((extents.get(i)?, *starts.get(i)? as u64)))
            .and_then(|(e, start)| {
                let offset = start.checked_add(at.offset.checked_sub(e.offset)?)?;
                slice(&fetched, offset, at.len)
            })
            .filter(|b| bulk_sum64(b) == entry.sum)
            .ok_or(Fault::Reference(at.ts))
    };
    let mut out = Decoded {
        graph: Graph::new(),
        decoded: 0,
        shared: 0,
    };
    let mut fresh = Vec::new();
    let mut chunks = Vec::new();
    for (entry, held) in manifest.entries.iter().zip(held) {
        let chunk = match (held, entry.segment) {
            (Some(chunk), _) => {
                out.shared += 1;
                chunk
            }
            (None, Segment::Node(no)) => {
                out.decoded += 1;
                decode_nodes(&mut out.graph, no, bytes_of(entry)?).ok_or(Fault::Corrupt)?;
                continue;
            }
            (None, Segment::Rel(no)) => {
                out.decoded += 1;
                let chunk = decode_rels(no, bytes_of(entry)?).ok_or(Fault::Corrupt)?;
                fresh.push((entry.source(), chunk.downgrade()));
                chunk
            }
        };
        chunks.push(chunk);
    }
    // All at once: every adjacency list is allocated once, at its size.
    out.graph
        .insert_rel_chunks(&chunks)
        .map_err(|_| Fault::Corrupt)?;
    shared.keep(fresh);
    Ok(out)
}

fn slice(bytes: &[u8], offset: u64, len: u64) -> Option<&[u8]> {
    let start = usize::try_from(offset).ok()?;
    bytes.get(start..start.checked_add(usize::try_from(len).ok()?)?)
}

/// The `(id, body)` records of one segment's bytes, whose ids must ascend
/// and all belong to segment `no`.
fn records(no: u64, bytes: &[u8]) -> impl Iterator<Item = Option<(u64, RecordBody)>> + '_ {
    let mut pos = 0;
    let mut last = None;
    std::iter::from_fn(move || {
        (pos < bytes.len()).then(|| {
            let id = varint::read_u64(bytes, &mut pos)?;
            let ascends = last.is_none_or(|last| last < id);
            last = Some(id);
            let body = RecordBody::decode(bytes, &mut pos)?;
            (ascends && id >> SEGMENT_BITS == no).then_some((id, body))
        })
    })
}

/// Inserts the nodes of node segment `no`.
fn decode_nodes(graph: &mut Graph, no: u64, bytes: &[u8]) -> Option<()> {
    for record in records(no, bytes) {
        let (id, RecordBody::NodeFull { labels, props }) = record? else {
            return None;
        };
        graph
            .insert_node(Node::new(NodeId::new(id), labels, props))
            .ok()?;
    }
    Some(())
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
        let (file, manifest) = encode(&g, 5, None, |_| true);
        assert_eq!(manifest.entries.len(), 4 + 7);
        assert!(manifest.extents().is_empty());
        let back = load(&file, &[]).unwrap();
        assert!(g.same_as(&back));
        back.check_consistency().unwrap();
        let empty = Graph::new();
        let (file, _) = encode(&empty, 1, None, |_| true);
        assert_eq!(load(&file, &[]).unwrap().node_count(), 0);
    }

    #[test]
    fn clean_segments_are_referenced_one_hop() {
        let g1 = sample_graph();
        let (f1, m1) = encode(&g1, 10, None, |_| true);
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
        let (f2, m2) = encode(&g2, 20, Some(&m1), |s| dirty.contains(&s));
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
        let (f3, m3) = encode(&g2, 30, Some(&m2), |_| false);
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
        let (f1, m1) = encode(&g1, 10, None, |_| true);
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
        let (f2, _) = encode(&g2, 20, Some(&m1), |s| dirty.contains(&s));
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
        // from memory, and of f1 only the node segments are read.
        let (b, read) = load_with(&f2, &[(10, &f1)], &shared).unwrap();
        assert_eq!((b.decoded, b.shared), (5, 6));
        assert!(b.graph.same_as(&g2));
        b.graph.check_consistency().unwrap();
        let m2 = open(&f2).unwrap();
        let referenced: u64 = m2.extents().iter().map(|e| e.len).sum();
        let nodes: u64 = m2
            .references()
            .filter(|e| matches!(e.segment, Segment::Node(_)))
            .map(|e| e.at.len)
            .sum();
        assert_eq!(read as u64, nodes);
        assert!(nodes * 2 < referenced, "{nodes} of {referenced}");
        // Four node chunks and relationship segment 4 are all they do not
        // share.
        assert_eq!(b.graph.chunks_diverged_from(&a.graph), 5);
        assert_eq!(shared.held(), 8);

        // Held weakly: once no graph holds them, everything is decoded again.
        drop((a, b));
        assert_eq!(shared.held(), 0);
        let (c, read) = load_with(&f2, &[(10, &f1)], &shared).unwrap();
        assert_eq!((c.decoded, c.shared), (11, 0));
        assert_eq!(read as u64, referenced);
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

    #[test]
    fn corruption_detected() {
        let g = sample_graph();
        let (file, _) = encode(&g, 3, None, |_| true);
        let mut bad = file.clone();
        bad[0] ^= 0xFF;
        assert!(open(&bad).is_none());
        assert!(open(&file[..file.len() - 3]).is_none());
        let mut padded = file.clone();
        padded.push(7);
        assert!(open(&padded).is_none());
    }
}
