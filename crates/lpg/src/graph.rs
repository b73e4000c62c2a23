//! The in-memory LPG: the TimeStore's latest graph, every materialized
//! snapshot, the correctness oracle of the property tests, and the validator
//! that enforces the Sec. 3 constraints on update sequences.
//!
//! # Layout
//!
//! Two id-ordered tables, one of nodes *with their adjacency lists* and one
//! of relationships. A table is a **spine** of `(chunk_no, Arc<chunk>)`
//! entries sorted by `chunk_no`, over **chunks**: the sorted `Vec` of the
//! entities whose `id >> CHUNK_BITS` equals `chunk_no`, at most 64 of them,
//! each chunk behind its own `Arc`. A chunk that loses its last entity leaves
//! the spine, so no chunk is ever empty. The spine is cut into **pages** of
//! at most 512 entries, so that opening a chunk between two others moves at
//! most one page of it. Each page's entries sit behind an `Arc` of their
//! own too, so clones share whole pages.
//!
//! # What things cost
//!
//! * An entity is one fixed-size value in its chunk: a relationship 64 B, a
//!   node 88 B with the header of its adjacency list and its out-degree.
//!   Its one property and up to two labels sit inside it
//!   ([`crate::PropBag`], [`crate::LabelSet`]); only a second property, a
//!   third label or an array value allocates.
//! * A node's adjacency list is one heap block: its outgoing ids, then its
//!   incoming ids. Adding an outgoing id shifts the incoming part by one
//!   slot (a `memmove` of in-degree × 8 B); deleting a relationship
//!   searches the part it is in. [`Graph::insert_rel_chunks`] allocates
//!   each list it touches once, at exactly its new length; updates grow a
//!   list the way a `Vec` grows.
//! * [`Graph::heap_size`] charges these sizes, 8 B per adjacency slot
//!   allocated and 56 B per chunk, which is what the structures hold and
//!   not the allocator's overhead on top: 100 k one-property relationships
//!   over 14 k nodes, built by updates, charge 9.9 MB and grow the resident
//!   set by 10.5 MB.
//! * `clone()` copies the list of pages: one pointer bump per page (4 for
//!   the ≈ 1 800 chunks of 100 k relationships), no spine entry and no
//!   entity. This is the "CoW snapshot copy" of Sec. 5.2.
//! * A mutation `Arc::make_mut`s the page and the chunk it lands in. While
//!   a clone is alive that copies one page (≤ 512 pointers) and ≤ 64
//!   entities; otherwise nothing. So a writer that finds its version held by
//!   a reader pays one page and one chunk per touched chunk, not the spine.
//!   Changing a node touches 1 chunk, adding or deleting a relationship ≤ 3
//!   (its own and its two endpoints'). A rejected update copies nothing.
//!   [`Graph::chunks_diverged_from`] counts the chunks two graphs no longer
//!   share, skipping the pages they still share.
//! * Graphs that are not clones of each other can share relationship
//!   chunks too: [`Graph::rel_chunk`] hands one out by pointer, and
//!   [`Graph::insert_rel_chunks`] adds [`RelChunk`]s by pointer and only
//!   fills in the endpoints' adjacency lists. Snapshot loading uses them to
//!   hold a segment that several snapshot files reference once, and to
//!   take a segment from the latest graph when that still holds what the
//!   file holds. A chunk is never changed where it is shared: a mutation
//!   `make_mut`s it, which copies it while another graph or [`RelChunk`]
//!   holds it and otherwise detaches every [`WeakRelChunk`] from it. (Node
//!   chunks carry adjacency lists, which depend on the rest of the graph,
//!   so they are not shared this way.)
//! * Lookup searches for the page, in it for the chunk, in it for the
//!   entity. Each search first probes the slot the key occupies when ids are
//!   dense from 0 (capped at the tail, where appends land) and only falls
//!   back to a binary search when that misses.
//!
//! # Ordering
//!
//! [`Graph::nodes`], [`Graph::rels`] and [`Graph::nodes_after`] ascend by
//! id; callers rely on it (snapshot files, paginated scans). Each direction
//! of an adjacency list keeps insertion order.
//!
//! # Dense and sparse ids
//!
//! Ids are chosen by the client (`WriteTxn::add_node(id)`, `CREATE (n {id: …})`);
//! nothing allocates them. The layout is at its best for what the evaluation
//! datasets and the harnesses use, ids counted up from 0: every chunk full,
//! every lookup answered by its first probes, and a chunk opened right after
//! a full one allocated at its final size. (Any other chunk starts with one
//! slot and doubles. Growing every chunk by doubling left four freed blocks
//! per chunk behind and a heap fragmented enough to slow unrelated
//! allocation-heavy code by ≈ 5 %.)
//!
//! Ids far apart (hashes, `0`, `2^32`, `u64::MAX`) land in chunks of their
//! own: one `Arc`, one small `Vec` and one spine entry per entity, which
//! [`Graph::heap_size`] charges (≈ 1.6× the bytes per node); a lookup that is
//! two binary searches and two more pointers to follow (≈ 5× a hash map's
//! once nothing is cached); a clone that bumps one pointer per entity (what
//! copying a hash map cost). Loading costs the same in any id order: an
//! insert moves at most one page of the spine, not the spine. `figures ids`
//! measures all four under ids counted up, counted down, strided and random.
//!
//! This is the compute-efficient in-memory LPG of Sec. 5.2 (nodes,
//! relationships, incoming and outgoing id lists, copy-on-write snapshots).
//! Its sparse→dense id remap for vector-backed algorithms is `algo::Csr`.

use crate::bag::PropBag;
use crate::entity::{Node, Relationship};
use crate::error::{GraphError, Result};
use crate::ids::{Direction, NodeId, RelId};
use crate::update::Update;
use crate::value::PropertyValue;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};

/// A chunk holds the entities whose ids agree above this many low bits.
pub const CHUNK_BITS: u32 = 6;
/// The most entities a chunk can hold.
const CHUNK_LEN: usize = 1 << CHUNK_BITS;
/// The most chunks a page of the spine can hold.
const PAGE_LEN: usize = 512;

/// Position of `key` in `run`, whose keys ascend strictly, or where it would
/// go. `guess` is the slot that holds `key` when ids are dense (capped at the
/// tail); it is probed first and only a miss pays for a binary search, of
/// the side `key` is on.
fn seek<T>(
    run: &[T],
    guess: u64,
    key: u64,
    key_of: impl Fn(&T) -> u64,
) -> std::result::Result<usize, usize> {
    let Some(last) = run.len().checked_sub(1) else {
        return Err(0);
    };
    let guess = usize::try_from(guess).map_or(last, |g| g.min(last));
    match key_of(&run[guess]).cmp(&key) {
        Ordering::Equal => Ok(guess),
        Ordering::Greater => run[..guess].binary_search_by_key(&key, key_of),
        Ordering::Less => {
            let right = guess + 1;
            run[right..]
                .binary_search_by_key(&key, key_of)
                .map(|i| i + right)
                .map_err(|i| i + right)
        }
    }
}

trait Keyed {
    fn key(&self) -> u64;
}

impl Keyed for Relationship {
    fn key(&self) -> u64 {
        self.id.raw()
    }
}

/// A node and the ids of its incident relationships, in one list: the
/// outgoing ids, then the incoming ids, each part in insertion order. One
/// list rather than two saves a `Vec` header per node and a heap block per
/// node with relationships both ways.
#[derive(Clone, Debug)]
struct NodeSlot {
    node: Node,
    /// `adj[..n_out]` are outgoing, `adj[n_out..]` incoming.
    adj: Vec<RelId>,
    n_out: usize,
}

impl NodeSlot {
    fn new(node: Node) -> Self {
        NodeSlot {
            node,
            adj: Vec::new(),
            n_out: 0,
        }
    }

    /// `(outgoing, incoming)`.
    fn lists(&self) -> (&[RelId], &[RelId]) {
        self.adj.split_at(self.n_out)
    }

    /// Appends to the outgoing part, which shifts the incoming part by one
    /// slot.
    fn push_out(&mut self, id: RelId) {
        self.adj.insert(self.n_out, id);
        self.n_out += 1;
    }

    fn push_in(&mut self, id: RelId) {
        self.adj.push(id);
    }

    fn remove_out(&mut self, id: RelId) {
        if let Some(i) = self.lists().0.iter().position(|r| *r == id) {
            self.adj.remove(i);
            self.n_out -= 1;
        }
    }

    fn remove_in(&mut self, id: RelId) {
        let (out, inc) = self.lists();
        if let Some(i) = inc.iter().position(|r| *r == id) {
            self.adj.remove(out.len() + i);
        }
    }
}

impl Keyed for NodeSlot {
    fn key(&self) -> u64 {
        self.node.id.raw()
    }
}

type Chunk<T> = (u64, Arc<Vec<T>>);

/// A run of the spine. Never empty.
#[derive(Clone, Debug)]
struct Page<T> {
    /// `chunks[0].0`, kept here so that finding a page reads no page.
    first: u64,
    /// Shared by the clones that have not changed this page since.
    chunks: Arc<Vec<Chunk<T>>>,
}

/// Where an absent id would go in a [`Table`]: its page, and either the
/// chunk that has room for it with the index in that chunk (`Ok`) or the
/// index in the page a new chunk for it takes (`Err`).
#[derive(Clone, Copy)]
struct Vacancy {
    page: usize,
    at: std::result::Result<(usize, usize), usize>,
}

/// An id-ordered table of copy-on-write chunks (see the module doc).
#[derive(Clone, Debug)]
struct Table<T> {
    pages: Vec<Page<T>>,
    len: usize,
}

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table {
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Keyed + Clone> Table<T> {
    /// The page chunk `no` is in or would go to: the last one that starts at
    /// or before `no` (0 if none does).
    fn seek_page(&self, no: u64) -> usize {
        let starts_by = |page: &Page<T>| page.first <= no;
        let last = self.pages.len().saturating_sub(1);
        let guess = usize::try_from(no / PAGE_LEN as u64).map_or(last, |g| g.min(last));
        let hit = self.pages.get(guess).is_some_and(starts_by)
            && !self.pages.get(guess + 1).is_some_and(starts_by);
        if hit {
            guess
        } else {
            self.pages.partition_point(starts_by).saturating_sub(1)
        }
    }

    fn seek_chunk(chunks: &[Chunk<T>], no: u64) -> std::result::Result<usize, usize> {
        seek(chunks, no % PAGE_LEN as u64, no, |(n, _)| *n)
    }

    fn seek_in(chunk: &[T], id: u64) -> std::result::Result<usize, usize> {
        seek(chunk, id % CHUNK_LEN as u64, id, T::key)
    }

    /// `Ok((page, index in the page, index in the chunk))` of `id`, or
    /// `Err` with where it would go (see [`Vacancy`]).
    fn locate(&self, id: u64) -> std::result::Result<(usize, usize, usize), Vacancy> {
        let no = id >> CHUNK_BITS;
        let p = self.seek_page(no);
        let Some(page) = self.pages.get(p) else {
            return Err(Vacancy {
                page: p,
                at: Err(0),
            });
        };
        match Self::seek_chunk(&page.chunks, no) {
            Ok(c) => match Self::seek_in(&page.chunks[c].1, id) {
                Ok(i) => Ok((p, c, i)),
                Err(i) => Err(Vacancy {
                    page: p,
                    at: Ok((c, i)),
                }),
            },
            Err(c) => Err(Vacancy {
                page: p,
                at: Err(c),
            }),
        }
    }

    /// `(page, index in the page, index in the chunk)` of `id`.
    fn find(&self, id: u64) -> Option<(usize, usize, usize)> {
        self.locate(id).ok()
    }

    fn get(&self, id: u64) -> Option<&T> {
        let (p, c, i) = self.find(id)?;
        self.pages[p].chunks[c].1.get(i)
    }

    /// Copies the page and the chunk of `id` if they are shared — and only
    /// if `id` exists.
    fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let at = self.find(id)?;
        self.at_mut(at)
    }

    /// The entity [`Self::locate`] found at `(p, c, i)`, copying its page
    /// and chunk if they are shared.
    fn at_mut(&mut self, (p, c, i): (usize, usize, usize)) -> Option<&mut T> {
        let chunks = Arc::make_mut(&mut self.pages.get_mut(p)?.chunks);
        Arc::make_mut(&mut chunks.get_mut(c)?.1).get_mut(i)
    }

    /// `false` (and nothing copied) when the id is taken.
    fn insert(&mut self, item: T) -> bool {
        match self.locate(item.key()) {
            Ok(_) => false,
            Err(vacancy) => {
                self.insert_at(vacancy, item);
                true
            }
        }
    }

    /// Puts `item` where [`Self::locate`] said its id would go.
    fn insert_at(&mut self, Vacancy { page: p, at }: Vacancy, item: T) {
        let no = item.key() >> CHUNK_BITS;
        let c = match at {
            Ok((c, i)) => {
                let chunks = Arc::make_mut(&mut self.pages[p].chunks);
                Arc::make_mut(&mut chunks[c].1).insert(i, item);
                self.len += 1;
                return;
            }
            Err(c) => c,
        };
        // A chunk opened right after a full one continues a dense run of ids
        // and will fill up: give it its final size now rather than by
        // doubling (see the module doc).
        let dense = c.checked_sub(1).is_some_and(|prev| {
            let (prev, chunk) = &self.pages[p].chunks[prev];
            prev + 1 == no && chunk.len() == CHUNK_LEN
        });
        let mut chunk = Vec::with_capacity(if dense { CHUNK_LEN } else { 1 });
        chunk.push(item);
        self.open(p, c, no, Arc::new(chunk));
    }

    /// Adds `chunk`, whose entities all belong to chunk `no`, as it is:
    /// shared with whoever else holds it. Does nothing when the table has
    /// chunk `no` already.
    fn insert_chunk(&mut self, no: u64, chunk: Arc<Vec<T>>) {
        let p = self.seek_page(no);
        let at = self
            .pages
            .get(p)
            .map_or(Err(0), |page| Self::seek_chunk(&page.chunks, no));
        if let Err(c) = at {
            self.open(p, c, no, chunk);
        }
    }

    /// Puts `chunk`, numbered `no`, at index `c` of page `p` (where
    /// `seek_chunk` said it goes; a new page when there is none), splitting
    /// the page when it overflows.
    fn open(&mut self, p: usize, c: usize, no: u64, chunk: Arc<Vec<T>>) {
        self.len += chunk.len();
        let Some(page) = self.pages.get_mut(p) else {
            self.pages.push(Page {
                first: no,
                chunks: Arc::new(vec![(no, chunk)]),
            });
            return;
        };
        let chunks = Arc::make_mut(&mut page.chunks);
        chunks.insert(c, (no, chunk));
        page.first = chunks[0].0;
        if chunks.len() > PAGE_LEN {
            // An append leaves a full page behind it (ids counting up fill
            // every page), anything else halves the page.
            let cut = if c == PAGE_LEN {
                PAGE_LEN
            } else {
                PAGE_LEN / 2
            };
            let chunks = chunks.split_off(cut);
            let first = chunks[0].0;
            self.pages.insert(
                p + 1,
                Page {
                    first,
                    chunks: Arc::new(chunks),
                },
            );
        }
    }

    /// The chunk numbered `no`.
    fn chunk(&self, no: u64) -> Option<&Arc<Vec<T>>> {
        let chunks = &self.pages.get(self.seek_page(no))?.chunks;
        let c = Self::seek_chunk(chunks, no).ok()?;
        Some(&chunks[c].1)
    }

    fn remove(&mut self, id: u64) -> bool {
        let Some((p, c, i)) = self.find(id) else {
            return false;
        };
        let page = &mut self.pages[p];
        if page.chunks[c].1.len() > 1 {
            Arc::make_mut(&mut Arc::make_mut(&mut page.chunks)[c].1).remove(i);
        } else if page.chunks.len() > 1 {
            let chunks = Arc::make_mut(&mut page.chunks);
            chunks.remove(c);
            page.first = chunks[0].0;
        } else {
            self.pages.remove(p);
        }
        self.len -= 1;
        true
    }

    /// The spine, page after page.
    fn chunks(&self) -> impl Iterator<Item = &Chunk<T>> {
        self.pages.iter().flat_map(|page| page.chunks.iter())
    }

    /// Ascending by id, starting after `after`.
    fn iter_after(&self, after: Option<u64>) -> impl Iterator<Item = &T> {
        // Where the scan starts: page, chunk in it, entity in that.
        let (p, c, i) = after.map_or((0, 0, 0), |id| {
            let no = id >> CHUNK_BITS;
            let p = self.seek_page(no);
            let chunks = self.pages.get(p).map_or(&[][..], |page| &page.chunks[..]);
            match Self::seek_chunk(chunks, no) {
                Ok(c) => match Self::seek_in(&chunks[c].1, id) {
                    Ok(i) => (p, c, i + 1),
                    Err(i) => (p, c, i),
                },
                Err(c) => (p, c, 0),
            }
        });
        let mut chunks = self
            .pages
            .get(p..)
            .unwrap_or_default()
            .iter()
            .flat_map(|page| page.chunks.iter())
            .skip(c);
        let head = chunks.next().map_or(&[][..], |(_, chunk)| &chunk[i..]);
        head.iter()
            .chain(chunks.flat_map(|(_, chunk)| chunk.iter()))
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.iter_after(None)
    }

    /// Chunks of `self` that `other` does not hold the very same copy of.
    /// A page both hold the same copy of is skipped unread.
    fn diverged_from(&self, other: &Self) -> usize {
        self.pages
            .iter()
            .filter(|page| {
                !other
                    .pages
                    .get(other.seek_page(page.first))
                    .is_some_and(|theirs| Arc::ptr_eq(&theirs.chunks, &page.chunks))
            })
            .flat_map(|page| page.chunks.iter())
            .filter(|(no, chunk)| !other.chunk(*no).is_some_and(|c| Arc::ptr_eq(c, chunk)))
            .count()
    }

    /// What the chunks cost beyond their entities: a spine entry each, and
    /// the two counters and the `Vec` header behind the `Arc`. Next to
    /// nothing for dense ids, as much as a small entity for sparse ones.
    /// (A page's own `Arc`, ≤ 48 bytes per ≤ 512 chunks, is left out.)
    fn overhead(&self) -> usize {
        let per_chunk = std::mem::size_of::<Chunk<T>>()
            + std::mem::size_of::<Vec<T>>()
            + 2 * std::mem::size_of::<usize>();
        self.chunks().count() * per_chunk
    }

    /// The layout invariants of the module doc.
    fn well_formed(&self) -> bool {
        let pages_ok = self.pages.iter().all(|page| {
            page.chunks.len() <= PAGE_LEN
                && page.chunks.first().is_some_and(|(no, _)| *no == page.first)
        });
        let spine_ascends = self
            .chunks()
            .zip(self.chunks().skip(1))
            .all(|(a, b)| a.0 < b.0);
        let chunks_ok = self.chunks().all(|(no, chunk)| {
            !chunk.is_empty()
                && chunk.iter().all(|e| e.key() >> CHUNK_BITS == *no)
                && chunk.windows(2).all(|w| w[0].key() < w[1].key())
        });
        let total: usize = self.chunks().map(|(_, chunk)| chunk.len()).sum();
        pages_ok && spine_ascends && chunks_ok && total == self.len
    }
}

/// One chunk of a relationship table as graphs share it: up to 64
/// relationships whose ids agree above the low [`CHUNK_BITS`] bits,
/// ascending by id, behind one `Arc`. [`Graph::insert_rel_chunks`] adds it
/// without copying, so every graph it is added to holds the same bytes. A
/// graph that later changes one of them copies the chunk first; the other
/// graphs and any [`WeakRelChunk`] keep the unchanged one.
#[derive(Clone, Debug)]
pub struct RelChunk {
    no: u64,
    rels: Arc<Vec<Relationship>>,
}

/// A [`RelChunk`] that does not keep its relationships alive.
#[derive(Clone, Debug)]
pub struct WeakRelChunk {
    no: u64,
    rels: Weak<Vec<Relationship>>,
}

impl RelChunk {
    /// `None` when `rels` is empty, does not ascend strictly by id, or spans
    /// two chunks.
    pub fn new(rels: Vec<Relationship>) -> Option<RelChunk> {
        let no = rels.first()?.id.raw() >> CHUNK_BITS;
        let one_chunk = rels.last()?.id.raw() >> CHUNK_BITS == no;
        let ascending = rels.windows(2).all(|w| w[0].id < w[1].id);
        (one_chunk && ascending).then(|| RelChunk {
            no,
            rels: Arc::new(rels),
        })
    }

    /// The relationships, ascending by id.
    pub fn rels(&self) -> &[Relationship] {
        &self.rels
    }

    /// A handle that finds this chunk for as long as some graph or
    /// `RelChunk` still holds it unchanged.
    pub fn downgrade(&self) -> WeakRelChunk {
        WeakRelChunk {
            no: self.no,
            rels: Arc::downgrade(&self.rels),
        }
    }
}

impl WeakRelChunk {
    /// The chunk, unless nothing holds it any more.
    pub fn upgrade(&self) -> Option<RelChunk> {
        Some(RelChunk {
            no: self.no,
            rels: self.rels.upgrade()?,
        })
    }

    /// Whether [`Self::upgrade`] would find nothing.
    pub fn is_dead(&self) -> bool {
        self.rels.strong_count() == 0
    }
}

/// A consistent labeled property graph `G = (V, E)`, structurally shared
/// between its clones (see the module doc).
#[derive(Clone, Default, Debug)]
pub struct Graph {
    nodes: Table<NodeSlot>,
    rels: Table<Relationship>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes `|V|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len
    }

    /// Number of relationships `|E|`.
    pub fn rel_count(&self) -> usize {
        self.rels.len
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.raw()).map(|s| &s.node)
    }

    /// Relationship lookup.
    pub fn rel(&self, id: RelId) -> Option<&Relationship> {
        self.rels.get(id.raw())
    }

    /// Whether `id` is present.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.nodes.find(id.raw()).is_some()
    }

    /// Whether `id` is present.
    pub fn has_rel(&self, id: RelId) -> bool {
        self.rels.find(id.raw()).is_some()
    }

    /// Iterates over all nodes in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes_after(None)
    }

    /// Iterates in ascending id order over the nodes whose id is greater
    /// than `after` (all of them for `None`): resumes a scan without
    /// visiting what precedes the cursor.
    pub fn nodes_after(&self, after: Option<NodeId>) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter_after(after.map(NodeId::raw))
            .map(|s| &s.node)
    }

    /// Iterates over all relationships in ascending id order.
    pub fn rels(&self) -> impl Iterator<Item = &Relationship> {
        self.rels.iter()
    }

    /// `node`'s outgoing and incoming ids as `dir` selects them (an empty
    /// slice for the other direction, and both for a missing node).
    fn lists(&self, node: NodeId, dir: Direction) -> (&[RelId], &[RelId]) {
        let (out, inc) = self
            .nodes
            .get(node.raw())
            .map_or((&[][..], &[][..]), NodeSlot::lists);
        (
            if dir.includes_out() { out } else { &[] },
            if dir.includes_in() { inc } else { &[] },
        )
    }

    /// The relationship ids incident to `node` in the given direction, lent
    /// from its adjacency list: outgoing first, then incoming, each in
    /// insertion order. For `Both`, self-loops appear twice (once per
    /// direction), matching the degree semantics used by the evaluation
    /// datasets.
    pub fn relationships(&self, node: NodeId, dir: Direction) -> impl Iterator<Item = RelId> + '_ {
        let (out, inc) = self.lists(node, dir);
        out.iter().chain(inc).copied()
    }

    /// The degree of `node` in the given direction.
    pub fn degree(&self, node: NodeId, dir: Direction) -> usize {
        let (out, inc) = self.lists(node, dir);
        out.len() + inc.len()
    }

    /// Neighbour node ids (deduplicated) of `node`.
    pub fn neighbours(&self, node: NodeId, dir: Direction) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .relationships(node, dir)
            .filter_map(|rid| self.rel(rid))
            .filter_map(|r| r.other_end(node))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Adds an owned node (the `AddNode` constraint: its id must be free).
    /// On error the graph is unchanged.
    pub fn insert_node(&mut self, node: Node) -> Result<()> {
        let id = node.id;
        if self.nodes.insert(NodeSlot::new(node)) {
            Ok(())
        } else {
            Err(GraphError::NodeExists(id))
        }
    }

    /// Adds an owned relationship (the `AddRel` constraints: its id must be
    /// free and both endpoints present). On error the graph is unchanged.
    pub fn insert_rel(&mut self, rel: Relationship) -> Result<()> {
        let (id, src, tgt) = (rel.id, rel.src, rel.tgt);
        // Every lookup first, so that a failed insert changes nothing; then
        // each entity is written where its one lookup found it.
        let Err(vacancy) = self.rels.locate(id.raw()) else {
            return Err(GraphError::RelExists(id));
        };
        let endpoint = |node: NodeId| {
            self.nodes
                .find(node.raw())
                .ok_or(GraphError::EndpointMissing { rel: id, node })
        };
        let (src_at, tgt_at) = (endpoint(src)?, endpoint(tgt)?);
        self.rels.insert_at(vacancy, rel);
        if let Some(s) = self.nodes.at_mut(src_at) {
            s.push_out(id);
        }
        if let Some(s) = self.nodes.at_mut(tgt_at) {
            s.push_in(id);
        }
        Ok(())
    }

    /// Chunk `no` of the relationship table, shared rather than copied (see
    /// [`RelChunk`]); `None` when the graph holds no relationship of it.
    pub fn rel_chunk(&self, no: u64) -> Option<RelChunk> {
        Some(RelChunk {
            no,
            rels: self.rels.chunk(no)?.clone(),
        })
    }

    /// Adds every relationship of `chunks` at once, sharing each chunk
    /// rather than copying it (see [`RelChunk`]). Each relationship must
    /// satisfy the `AddRel` constraints, and no chunk's id range may be held
    /// by the graph already or by an earlier chunk of `chunks`. On error the
    /// graph is unchanged.
    ///
    /// The result equals inserting the relationships one by one in the
    /// order given, adjacency order included, but each endpoint's list
    /// grows once, to exactly the size it needs: what a snapshot load
    /// leaves behind holds no spare capacity. All outgoing ids go in before
    /// any incoming one, so a graph without relationships moves no id.
    pub fn insert_rel_chunks(&mut self, chunks: &[RelChunk]) -> Result<()> {
        let mut seen = HashSet::with_capacity(chunks.len());
        let mut grow: HashMap<u64, usize> = HashMap::new();
        for chunk in chunks {
            let held = self.rels.chunk(chunk.no).map(|c| &c[..]);
            let earlier = (!seen.insert(chunk.no)).then(|| chunk.rels());
            if let Some(taken) = held.or(earlier).and_then(<[_]>::first) {
                return Err(GraphError::RelExists(taken.id));
            }
            for r in chunk.rels() {
                for node in [r.src, r.tgt] {
                    if !self.has_node(node) {
                        return Err(GraphError::EndpointMissing { rel: r.id, node });
                    }
                    *grow.entry(node.raw()).or_default() += 1;
                }
            }
        }
        // In id order: the lists are allocated in the order the nodes sit,
        // the same way every time.
        let mut grow: Vec<(u64, usize)> = grow.into_iter().collect();
        grow.sort_unstable();
        for (node, n) in grow {
            if let Some(s) = self.nodes.get_mut(node) {
                s.adj.reserve_exact(n);
            }
        }
        for chunk in chunks {
            self.rels.insert_chunk(chunk.no, chunk.rels.clone());
        }
        let rels = || chunks.iter().flat_map(RelChunk::rels);
        for r in rels() {
            if let Some(s) = self.nodes.get_mut(r.src.raw()) {
                s.push_out(r.id);
            }
        }
        for r in rels() {
            if let Some(s) = self.nodes.get_mut(r.tgt.raw()) {
                s.push_in(r.id);
            }
        }
        Ok(())
    }

    fn node_mut(&mut self, id: NodeId) -> Result<&mut Node> {
        self.nodes
            .get_mut(id.raw())
            .map(|s| &mut s.node)
            .ok_or(GraphError::NodeNotFound(id))
    }

    fn rel_mut(&mut self, id: RelId) -> Result<&mut Relationship> {
        self.rels
            .get_mut(id.raw())
            .ok_or(GraphError::RelNotFound(id))
    }

    /// Applies one update, enforcing every Sec. 3 constraint. On error the
    /// graph is unchanged.
    pub fn apply(&mut self, op: &Update) -> Result<()> {
        match op {
            Update::AddNode { id, labels, props } => {
                self.insert_node(Node::new(*id, labels.clone(), props.clone()))?;
            }
            Update::DeleteNode { id } => {
                let slot = self
                    .nodes
                    .get(id.raw())
                    .ok_or(GraphError::NodeNotFound(*id))?;
                if !slot.adj.is_empty() {
                    return Err(GraphError::NodeHasRelationships(*id));
                }
                self.nodes.remove(id.raw());
            }
            Update::AddRel {
                id,
                src,
                tgt,
                label,
                props,
            } => {
                self.insert_rel(Relationship::new(*id, *src, *tgt, *label, props.clone()))?;
            }
            Update::DeleteRel { id } => {
                let rel = self.rel(*id).ok_or(GraphError::RelNotFound(*id))?;
                let (src, tgt) = (rel.src, rel.tgt);
                self.rels.remove(id.raw());
                if let Some(s) = self.nodes.get_mut(src.raw()) {
                    s.remove_out(*id);
                }
                if let Some(s) = self.nodes.get_mut(tgt.raw()) {
                    s.remove_in(*id);
                }
            }
            Update::SetNodeProp { id, key, value } => {
                self.node_mut(*id)?.props.set(*key, value.clone());
            }
            Update::RemoveNodeProp { id, key } => {
                self.node_mut(*id)?.props.remove(*key);
            }
            Update::AddLabel { id, label } => {
                self.node_mut(*id)?.labels.insert(*label);
            }
            Update::RemoveLabel { id, label } => {
                self.node_mut(*id)?.labels.remove(*label);
            }
            Update::SetRelProp { id, key, value } => {
                self.rel_mut(*id)?.props.set(*key, value.clone());
            }
            Update::RemoveRelProp { id, key } => {
                self.rel_mut(*id)?.props.remove(*key);
            }
        }
        Ok(())
    }

    /// Applies a batch of updates, stopping at the first error.
    pub fn apply_all<'a, I>(&mut self, ops: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a Update>,
    {
        for op in ops {
            self.apply(op)?;
        }
        Ok(())
    }

    /// Verifies structural consistency: the chunk tables are well formed,
    /// every relationship endpoint exists and adjacency lists mirror the
    /// relationship table. Used in tests and after recovery.
    pub fn check_consistency(&self) -> Result<()> {
        if !self.nodes.well_formed() || !self.rels.well_formed() {
            return Err(GraphError::Storage("chunk table out of order".into()));
        }
        for r in self.rels() {
            for node in [r.src, r.tgt] {
                if !self.has_node(node) {
                    return Err(GraphError::EndpointMissing { rel: r.id, node });
                }
            }
            let out_ok = self.lists(r.src, Direction::Outgoing).0.contains(&r.id);
            let in_ok = self.lists(r.tgt, Direction::Incoming).1.contains(&r.id);
            if !out_ok || !in_ok {
                return Err(GraphError::Storage(format!(
                    "adjacency desync for relationship {}",
                    r.id
                )));
            }
        }
        let (out_total, in_total) = self.nodes.iter().fold((0, 0), |(o, i), s| {
            let (out, inc) = s.lists();
            (o + out.len(), i + inc.len())
        });
        if out_total != self.rel_count() || in_total != self.rel_count() {
            return Err(GraphError::Storage("dangling adjacency entries".into()));
        }
        Ok(())
    }

    /// Estimated in-memory footprint in bytes (Table 3 accounting): 88 B
    /// per node (its slot: the node, its adjacency list's header and its
    /// out-degree), 64 B per relationship, what either allocates beyond
    /// that (a second property, a third label, an array), 8 B per slot an
    /// adjacency list has allocated, and 56 B per chunk. A loaded graph's
    /// lists hold exactly their entries; one grown by updates also holds
    /// its spare capacity, which is charged too. Chunks shared with other
    /// graphs are counted in full.
    pub fn heap_size(&self) -> usize {
        let beside = std::mem::size_of::<NodeSlot>() - std::mem::size_of::<Node>();
        let nodes: usize = self
            .nodes
            .iter()
            .map(|s| s.node.heap_size() + beside + s.adj.capacity() * std::mem::size_of::<RelId>())
            .sum();
        let rels: usize = self.rels().map(Relationship::heap_size).sum();
        nodes + rels + self.nodes.overhead() + self.rels.overhead()
    }

    /// The number of chunks of `self` that are not shared with `other`: what
    /// the updates separating two clones had to copy or create. Pointer
    /// comparison only — O(chunks), no entity is read.
    pub fn chunks_diverged_from(&self, other: &Graph) -> usize {
        self.nodes.diverged_from(&other.nodes) + self.rels.diverged_from(&other.rels)
    }

    /// Structural equality of the node and relationship sets (adjacency
    /// order, which depends on update order, is ignored); used by tests that
    /// compare store reconstructions against this oracle. Floats compare by
    /// their bits, so a graph holding a NaN is the same as itself; query
    /// equality (`PartialEq`) is left as IEEE has it.
    pub fn same_as(&self, other: &Graph) -> bool {
        self.node_count() == other.node_count()
            && self.rel_count() == other.rel_count()
            && self.nodes().zip(other.nodes()).all(|(a, b)| {
                a.id == b.id && a.labels == b.labels && same_props(&a.props, &b.props)
            })
            && self.rels().zip(other.rels()).all(|(a, b)| {
                (a.id, a.src, a.tgt, a.label) == (b.id, b.src, b.tgt, b.label)
                    && same_props(&a.props, &b.props)
            })
    }
}

/// Whether two property bags hold the same keys and values, floats compared
/// by their bits (see [`Graph::same_as`]).
fn same_props(a: &PropBag, b: &PropBag) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((ka, va), (kb, vb))| {
            ka == kb
                && match (va, vb) {
                    (PropertyValue::Float(x), PropertyValue::Float(y)) => {
                        x.to_bits() == y.to_bits()
                    }
                    (PropertyValue::FloatArray(x), PropertyValue::FloatArray(y)) => {
                        x.len() == y.len()
                            && x.iter()
                                .zip(y.iter())
                                .all(|(x, y)| x.to_bits() == y.to_bits())
                    }
                    _ => va == vb,
                }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StrId;
    use crate::value::PropertyValue;

    fn nid(i: u64) -> NodeId {
        NodeId::new(i)
    }
    fn rid(i: u64) -> RelId {
        RelId::new(i)
    }

    fn add_node(id: u64) -> Update {
        Update::AddNode {
            id: nid(id),
            labels: vec![],
            props: vec![],
        }
    }

    fn add_rel(id: u64, src: u64, tgt: u64) -> Update {
        Update::AddRel {
            id: rid(id),
            src: nid(src),
            tgt: nid(tgt),
            label: None,
            props: vec![],
        }
    }

    #[test]
    fn insert_constraints() {
        let mut g = Graph::new();
        g.apply(&add_node(1)).unwrap();
        assert_eq!(g.apply(&add_node(1)), Err(GraphError::NodeExists(nid(1))));
        assert!(matches!(
            g.apply(&add_rel(1, 1, 2)),
            Err(GraphError::EndpointMissing { .. })
        ));
        g.apply(&add_node(2)).unwrap();
        g.apply(&add_rel(1, 1, 2)).unwrap();
        assert_eq!(
            g.apply(&add_rel(1, 1, 2)),
            Err(GraphError::RelExists(rid(1)))
        );
        g.check_consistency().unwrap();
    }

    #[test]
    fn a_failed_insert_rel_copies_nothing() {
        let mut g = Graph::new();
        g.apply_all([&add_node(1), &add_node(2), &add_rel(1, 1, 2)])
            .unwrap();
        let before = g.clone();
        // Each fails after some lookups succeeded: the id is free and the
        // source is there, but the target is not; or the id is taken.
        assert_eq!(
            g.apply(&add_rel(2, 1, 9)),
            Err(GraphError::EndpointMissing {
                rel: rid(2),
                node: nid(9)
            })
        );
        assert_eq!(
            g.apply(&add_rel(1, 9, 9)),
            Err(GraphError::RelExists(rid(1)))
        );
        assert_eq!(g.chunks_diverged_from(&before), 0);
        assert!(g.same_as(&before));
        // A self-loop finds its one endpoint twice.
        g.apply(&add_rel(3, 2, 2)).unwrap();
        assert_eq!(g.degree(nid(2), Direction::Both), 3);
        g.check_consistency().unwrap();
    }

    #[test]
    fn delete_constraints() {
        let mut g = Graph::new();
        g.apply_all([&add_node(1), &add_node(2), &add_rel(1, 1, 2)])
            .unwrap();
        // Cannot delete a node with incident relationships.
        assert_eq!(
            g.apply(&Update::DeleteNode { id: nid(1) }),
            Err(GraphError::NodeHasRelationships(nid(1)))
        );
        g.apply(&Update::DeleteRel { id: rid(1) }).unwrap();
        g.apply(&Update::DeleteNode { id: nid(1) }).unwrap();
        assert_eq!(
            g.apply(&Update::DeleteNode { id: nid(1) }),
            Err(GraphError::NodeNotFound(nid(1)))
        );
        g.check_consistency().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.rel_count(), 0);
    }

    #[test]
    fn adjacency_and_neighbours() {
        let mut g = Graph::new();
        g.apply_all([
            &add_node(1),
            &add_node(2),
            &add_node(3),
            &add_rel(10, 1, 2),
            &add_rel(11, 1, 3),
            &add_rel(12, 3, 1),
        ])
        .unwrap();
        assert_eq!(g.degree(nid(1), Direction::Outgoing), 2);
        assert_eq!(g.degree(nid(1), Direction::Incoming), 1);
        assert_eq!(g.degree(nid(1), Direction::Both), 3);
        assert_eq!(g.neighbours(nid(1), Direction::Both), vec![nid(2), nid(3)]);
        assert_eq!(g.neighbours(nid(2), Direction::Outgoing), vec![]);
        assert_eq!(g.neighbours(nid(2), Direction::Incoming), vec![nid(1)]);
    }

    #[test]
    fn self_loop_counts_twice_in_both() {
        let mut g = Graph::new();
        g.apply_all([&add_node(1), &add_rel(5, 1, 1)]).unwrap();
        assert_eq!(g.degree(nid(1), Direction::Both), 2);
        assert_eq!(g.neighbours(nid(1), Direction::Both), vec![nid(1)]);
    }

    #[test]
    fn property_and_label_updates() {
        let mut g = Graph::new();
        g.apply(&add_node(1)).unwrap();
        g.apply(&Update::SetNodeProp {
            id: nid(1),
            key: StrId::new(0),
            value: PropertyValue::Int(42),
        })
        .unwrap();
        g.apply(&Update::AddLabel {
            id: nid(1),
            label: StrId::new(1),
        })
        .unwrap();
        let n = g.node(nid(1)).unwrap();
        assert_eq!(n.prop(StrId::new(0)), Some(&PropertyValue::Int(42)));
        assert!(n.has_label(StrId::new(1)));
        g.apply(&Update::RemoveNodeProp {
            id: nid(1),
            key: StrId::new(0),
        })
        .unwrap();
        g.apply(&Update::RemoveLabel {
            id: nid(1),
            label: StrId::new(1),
        })
        .unwrap();
        let n = g.node(nid(1)).unwrap();
        assert_eq!(n.prop(StrId::new(0)), None);
        assert!(!n.has_label(StrId::new(1)));
    }

    /// One node per chunk, enough of them for the spine to split into
    /// pages, inserted in orders that append, prepend and land in the
    /// middle.
    #[test]
    fn spine_pages_split_and_drain_in_any_id_order() {
        let n = 4 * PAGE_LEN as u64 + 7;
        let id = |i: u64| i << CHUNK_BITS;
        let scrambled = |i: u64| i * 7919 % n; // a permutation: 7919 is prime, n smaller
        let orders: [&dyn Fn(u64) -> u64; 3] = [&|i| i, &|i| n - 1 - i, &scrambled];
        for order in orders {
            let mut g = Graph::new();
            for i in 0..n {
                g.apply(&add_node(id(order(i)))).unwrap();
                assert!(g.apply(&add_node(id(order(i)))).is_err());
            }
            g.check_consistency().unwrap();
            assert!(g.nodes.pages.len() >= 4, "the spine split");
            assert!(g.nodes().map(|n| n.id.raw()).eq((0..n).map(id)));
            for cursor in [
                0,
                id(PAGE_LEN as u64) - 1,
                id(PAGE_LEN as u64),
                id(n - 1),
                u64::MAX,
            ] {
                let rest = g.nodes_after(Some(nid(cursor))).map(|n| n.id.raw());
                assert!(
                    rest.eq((0..n).map(id).filter(|i| *i > cursor)),
                    "after {cursor}"
                );
            }
            assert!(!g.has_node(nid(id(n))) && !g.has_node(nid(1)));
            let kept = g.clone();
            for i in 0..n {
                g.apply(&Update::DeleteNode {
                    id: nid(id(order(i))),
                })
                .unwrap();
                if i % 97 == 0 {
                    g.check_consistency().unwrap();
                }
            }
            assert!(g.nodes.pages.is_empty(), "no empty page is left behind");
            assert_eq!(kept.node_count() as u64, n);
            kept.check_consistency().unwrap();
        }
    }

    #[test]
    fn heap_size_charges_sparse_ids_their_chunks() {
        let mut dense = Graph::new();
        let mut sparse = Graph::new();
        for i in 0..640 {
            dense.apply(&add_node(i)).unwrap();
            sparse.apply(&add_node(i << 32)).unwrap();
        }
        // 10 chunks against 640.
        assert!(sparse.heap_size() >= dense.heap_size() + 630 * 56);
    }

    #[test]
    fn one_property_relationships_charge_no_spill() {
        let weighted = |weight: bool| {
            let mut g = Graph::new();
            g.apply(&add_node(0)).unwrap();
            for i in 0..1_000 {
                let props =
                    Vec::from_iter(weight.then(|| (StrId::new(0), PropertyValue::Float(0.5))));
                g.apply(&Update::AddRel {
                    id: rid(i),
                    src: nid(0),
                    tgt: nid(0),
                    label: Some(StrId::new(1)),
                    props,
                })
                .unwrap();
            }
            g
        };
        // The weight sits inside the relationship: 1 000 of them cost what
        // 1 000 relationships without a property do, and no more.
        assert_eq!(weighted(true).heap_size(), weighted(false).heap_size());
        let rels: usize = weighted(true).rels().map(Relationship::heap_size).sum();
        assert_eq!(rels, 1_000 * std::mem::size_of::<Relationship>());
    }

    #[test]
    fn node_slot_stays_small() {
        assert!(std::mem::size_of::<NodeSlot>() <= 88);
    }

    /// A node without relationships is charged its slot; every adjacency
    /// slot allocated is charged 8 B, and a bulk load allocates none spare.
    #[test]
    fn heap_size_charges_slots_and_allocated_entries() {
        let mut g = Graph::new();
        g.apply_all([&add_node(0), &add_node(1), &add_node(2)])
            .unwrap();
        let chunk = |rels: Vec<Relationship>| RelChunk::new(rels).unwrap();
        let rel = |id, src, tgt| Relationship::new(rid(id), nid(src), nid(tgt), None, vec![]);
        let chunks = [
            chunk(vec![rel(0, 0, 1), rel(1, 0, 0), rel(2, 1, 0)]),
            chunk(vec![rel(64, 0, 1), rel(65, 2, 0)]),
        ];
        g.insert_rel_chunks(&chunks).unwrap();
        for (id, len) in [(0, 6), (1, 3), (2, 1)] {
            let slot = g.nodes.get(id).unwrap();
            assert_eq!((slot.adj.len(), slot.adj.capacity()), (len, len));
        }
        assert!(g
            .relationships(nid(0), Direction::Both)
            .eq([0, 1, 64, 1, 2, 65].map(rid)));
        // 1 node chunk and 2 relationship chunks.
        assert_eq!(g.heap_size(), 3 * 88 + 5 * 64 + 10 * 8 + 3 * 56);
        // Growing by updates leaves spare capacity, which is charged.
        let before = g.heap_size();
        g.apply(&add_rel(3, 2, 2)).unwrap();
        let grown = g.nodes.get(2).unwrap().adj.capacity();
        assert!(grown > 3, "spare capacity");
        assert_eq!(g.heap_size(), before + 64 + (grown - 1) * 8);
    }

    /// A chunk handed out is the graph's own; a later change to the graph
    /// never reaches it, and a change nobody else sees kills its weak
    /// handles instead of changing what they find.
    #[test]
    fn rel_chunks_handed_out_never_change() {
        let mut g = Graph::new();
        g.apply_all([
            &add_node(0),
            &add_node(1),
            &add_rel(0, 0, 1),
            &add_rel(70, 1, 0),
        ])
        .unwrap();
        assert!(g.rel_chunk(2).is_none());
        let chunk = g.rel_chunk(0).unwrap();
        assert!(Arc::ptr_eq(&chunk.rels, g.rels.chunk(0).unwrap()));
        let mut h = Graph::new();
        h.apply_all([&add_node(0), &add_node(1)]).unwrap();
        h.insert_rel_chunks(std::slice::from_ref(&chunk)).unwrap();
        assert_eq!(h.rels.diverged_from(&g.rels), 0);
        let set = |id| Update::SetRelProp {
            id: rid(id),
            key: StrId::new(0),
            value: PropertyValue::Int(1),
        };
        // Held by `h` and `chunk`: the change copies it.
        g.apply(&set(0)).unwrap();
        assert_eq!(chunk.rels()[0].prop(StrId::new(0)), None);
        assert_eq!(h.rel(rid(0)).unwrap().prop(StrId::new(0)), None);
        // Held by `g` alone: the change moves it out, the handle dies.
        let weak = g.rel_chunk(1).unwrap().downgrade();
        assert!(weak.upgrade().is_some());
        g.apply(&set(70)).unwrap();
        assert!(weak.is_dead() && weak.upgrade().is_none());
    }

    #[test]
    fn same_as_detects_differences() {
        let mut a = Graph::new();
        let mut b = Graph::new();
        a.apply(&add_node(1)).unwrap();
        b.apply(&add_node(1)).unwrap();
        assert!(a.same_as(&b));
        b.apply(&Update::SetNodeProp {
            id: nid(1),
            key: StrId::new(0),
            value: PropertyValue::Int(1),
        })
        .unwrap();
        assert!(!a.same_as(&b));
    }

    #[test]
    fn same_as_compares_floats_by_bits() {
        let key = StrId::new(0);
        let with = |node: f64, rel: f64| {
            let mut g = Graph::new();
            g.apply_all([&add_node(1), &add_node(2), &add_rel(1, 1, 2)])
                .unwrap();
            g.apply(&Update::SetNodeProp {
                id: nid(1),
                key,
                value: PropertyValue::Float(node),
            })
            .unwrap();
            g.apply(&Update::SetRelProp {
                id: rid(1),
                key,
                value: PropertyValue::FloatArray(vec![1.0, rel].into()),
            })
            .unwrap();
            g
        };
        let nan = with(f64::NAN, f64::NAN);
        assert!(nan.same_as(&nan));
        assert!(nan.same_as(&nan.clone()));
        assert!(nan.same_as(&with(f64::NAN, f64::NAN)));
        assert!(!nan.same_as(&with(1.0, f64::NAN)));
        assert!(!nan.same_as(&with(f64::NAN, 1.0)));
        assert!(!with(0.0, 1.0).same_as(&with(-0.0, 1.0)));
        // Query equality stays IEEE: NaN equals nothing, 0.0 equals -0.0.
        let node = |g: &Graph| g.node(nid(1)).unwrap().props.get(key).cloned();
        assert_ne!(node(&nan), node(&nan));
        assert_eq!(node(&with(0.0, 1.0)), node(&with(-0.0, 1.0)));
    }
}
