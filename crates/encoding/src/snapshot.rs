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

use crate::record::{encode_node_full, encode_rel_full, RecordBody};
use crate::varint;
use lpg::{EntityId, Graph, Node, NodeId, RelId, Relationship, Timestamp};
use vfs::bulk_sum64;

const MAGIC: u32 = 0x4149_5053; // "AIPS"
const VERSION: u8 = 2;
/// A segment holds the entities whose ids agree above this many low bits.
const SEGMENT_BITS: u32 = 6;

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
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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
        let mut refs: Vec<Extent> = self.references().map(|e| e.at).collect();
        refs.sort_unstable();
        let mut out: Vec<Extent> = Vec::with_capacity(refs.len());
        for r in refs {
            match out.last_mut() {
                Some(last)
                    if last.ts == r.ts && r.offset <= last.offset.saturating_add(last.len) =>
                {
                    let end = r.offset.saturating_add(r.len);
                    last.len = last.len.max(end - last.offset);
                }
                _ => out.push(r),
            }
        }
        out
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

/// Decodes the graph of the snapshot file `file`, whose manifest is
/// `manifest`. `read` is asked once for every extent of
/// [`Manifest::extents`], in that order, to append the extent's bytes to the
/// buffer it is given; every referenced range must match its sum.
pub fn decode(
    manifest: &Manifest,
    file: &[u8],
    mut read: impl FnMut(Extent, &mut Vec<u8>) -> Option<()>,
) -> Result<Graph, Fault> {
    let extents = manifest.extents();
    // Every referenced byte in one buffer, extent after extent.
    let mut fetched = Vec::new();
    let mut starts = Vec::with_capacity(extents.len());
    for e in &extents {
        let start = fetched.len();
        starts.push(start);
        read(*e, &mut fetched)
            .filter(|()| (fetched.len() - start) as u64 == e.len)
            .ok_or(Fault::Reference(e.ts))?;
    }
    let mut graph = Graph::new();
    for entry in &manifest.entries {
        let at = entry.at;
        let bytes = if at.ts == manifest.ts {
            slice(file, at.offset, at.len).ok_or(Fault::Corrupt)?
        } else {
            // The extent that covers `at`: the last one starting at or
            // before it.
            let key = (at.ts, at.offset);
            let i = extents.partition_point(|e| (e.ts, e.offset) <= key);
            let bytes = i
                .checked_sub(1)
                .and_then(|i| Some((extents.get(i)?, *starts.get(i)? as u64)))
                .and_then(|(e, start)| {
                    let offset = start.checked_add(at.offset.checked_sub(e.offset)?)?;
                    slice(&fetched, offset, at.len)
                })
                .filter(|b| bulk_sum64(b) == entry.sum);
            bytes.ok_or(Fault::Reference(at.ts))?
        };
        decode_segment(&mut graph, entry.segment, bytes).ok_or(Fault::Corrupt)?;
    }
    Ok(graph)
}

fn slice(bytes: &[u8], offset: u64, len: u64) -> Option<&[u8]> {
    let start = usize::try_from(offset).ok()?;
    bytes.get(start..start.checked_add(usize::try_from(len).ok()?)?)
}

/// Inserts the entities of one segment's bytes, which must ascend by id and
/// all belong to `segment`.
fn decode_segment(graph: &mut Graph, segment: Segment, bytes: &[u8]) -> Option<()> {
    let mut pos = 0;
    let mut last = None;
    while pos < bytes.len() {
        let id = varint::read_u64(bytes, &mut pos)?;
        if last.is_some_and(|last| last >= id) {
            return None;
        }
        last = Some(id);
        match (segment, RecordBody::decode(bytes, &mut pos)?) {
            (Segment::Node(no), RecordBody::NodeFull { labels, props })
                if id >> SEGMENT_BITS == no =>
            {
                graph
                    .insert_node(Node::new(NodeId::new(id), labels, props))
                    .ok()?;
            }
            (
                Segment::Rel(no),
                RecordBody::RelFull {
                    src,
                    tgt,
                    label,
                    props,
                },
            ) if id >> SEGMENT_BITS == no => {
                graph
                    .insert_rel(Relationship::new(RelId::new(id), src, tgt, label, props))
                    .ok()?;
            }
            _ => return None,
        }
    }
    Some(())
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

    /// Decodes `file` with its references answered from `earlier`.
    fn load(file: &[u8], earlier: &[(Timestamp, &[u8])]) -> Result<Graph, Fault> {
        let manifest = open(file).ok_or(Fault::Corrupt)?;
        decode(&manifest, file, |e, buf| {
            let (_, bytes) = earlier.iter().find(|(ts, _)| *ts == e.ts)?;
            buf.extend_from_slice(slice(bytes, e.offset, e.len)?);
            Some(())
        })
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
