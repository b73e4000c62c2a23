//! The `dblp100k` data set and the four workloads' operation lists, all made
//! from the seed. The program under test sees only the generated commits and
//! the generated queries.

use lpg::{Graph, NodeId, PropertyValue, StrId, Timestamp, Update};
use query::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// String ids. The interner is rebuilt empty at every open (it holds the two
/// application-time keys as 0 and 1, which the generator's label and
/// relationship type alias), so the harness interns these names in this
/// order after each open to keep ids stable across reopen.
pub const INTERNED: [&str; 4] = ["weight", "rank", "touched", "Client"];
pub const KEY_RANK: StrId = StrId(3);
pub const KEY_TOUCHED: StrId = StrId(4);
pub const LABEL_CLIENT: StrId = StrId(5);

/// Updates per ingest commit.
const BATCH: usize = 1000;
/// Rounds of `SetNodeProp` over the hot nodes, spread over history.
const ROUNDS: usize = 16;

/// Ids of nodes created by `mixed_rw` start here, clear of generated ids.
pub const CREATE_BASE: u64 = 10_000_000;

/// How big everything is. `FULL` is the benchmark; `SMOKE` is a quick pass
/// over the same code for the package's test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Relationships in the generated DBLP-shaped graph.
    pub edges: u64,
    /// Entities in the hot set (that many nodes and that many relationships).
    pub hot: usize,
    /// Page-cache pages of the LineageStore and of the TimeStore index.
    pub cache_pages: usize,
    /// Operations of each workload checked against the oracle.
    pub checked_ops: [usize; 4],
    /// Operations per call level in the traced pass, per workload.
    pub traced_ops: [usize; 4],
    /// Distinct read operations each connection cycles through in a timed
    /// window, per workload (`mixed_rw`'s reader follows the writer instead).
    pub cycle_ops: [usize; 4],
    /// Times the data is set up in a timed run; `setup_s` is the lower
    /// decile of the times.
    pub setups: usize,
    /// Warm-up before a measured window, seconds.
    pub warmup_s: f64,
}

pub const FULL: Sizes = Sizes {
    edges: 100_000,
    hot: 512,
    cache_pages: 512,
    checked_ops: [200, 200, 24, 200],
    traced_ops: [4000, 240, 24, 1200],
    cycle_ops: [1024, 256, 24, 0],
    setups: 3,
    warmup_s: 1.0,
};

pub const SMOKE: Sizes = Sizes {
    edges: 20_000,
    hot: 128,
    cache_pages: 128,
    checked_ops: [60, 60, 6, 60],
    traced_ops: [300, 30, 6, 120],
    cycle_ops: [128, 16, 4, 0],
    setups: 1,
    warmup_s: 0.3,
};

/// The four workloads, in the fixed order they run in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointHot,
    Expand2Hop,
    GlobalAsOf,
    MixedRw,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointHot,
        Workload::Expand2Hop,
        Workload::GlobalAsOf,
        Workload::MixedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointHot => "point_hot",
            Workload::Expand2Hop => "expand_2hop",
            Workload::GlobalAsOf => "global_asof",
            Workload::MixedRw => "mixed_rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn mutates(self) -> bool {
        self == Workload::MixedRw
    }
}

/// The generated history: commits in timestamp order and what the harness
/// needs to know about them to generate queries that cannot fail.
pub struct Dataset {
    pub seed: u64,
    pub commits: Vec<(Timestamp, Vec<Update>)>,
    /// Commit timestamp from which node `i` exists.
    pub node_created: Vec<Timestamp>,
    /// Commit timestamp from which relationship `i` exists.
    pub rel_created: Vec<Timestamp>,
    pub hot_nodes: Vec<u64>,
    pub hot_rels: Vec<u64>,
    /// Start nodes of `expand_2hop`: see [`expand_starts`].
    pub expand_starts: Vec<u64>,
    /// Last commit timestamp of the history.
    pub end_ts: Timestamp,
    pub updates: u64,
    /// Encoded bytes of every update (the user's data).
    pub user_bytes: u64,
    /// The graph after the last commit, by naive replay.
    pub final_graph: Graph,
}

/// Encoded size of one update as a log record: the unit of "user bytes".
pub fn encoded_len(ts: Timestamp, op: &Update) -> u64 {
    let mut buf = Vec::new();
    encoding::LogRecord::from_update(ts, op).encode(&mut buf);
    buf.len() as u64
}

impl Dataset {
    /// DBLP shape scaled to `sizes.edges` relationships, cut into commits of
    /// [`BATCH`] updates, with [`ROUNDS`] commits of `SetNodeProp`
    /// over the hot nodes spread evenly between them, so that delta chains
    /// longer than the materialisation threshold exist all along history.
    pub fn generate(seed: u64, sizes: &Sizes) -> Dataset {
        let spec = workload::datasets::by_name("DBLP").expect("DBLP is a Table 3 data set");
        let w = workload::generate(spec.scaled(sizes.edges as f64 / spec.rels as f64), seed);
        let mut node_created = vec![0; w.node_count as usize];
        let mut rel_created = vec![0; w.rel_ids.len()];
        let mut node_order = Vec::with_capacity(node_created.len());
        let mut base: Vec<(Timestamp, Vec<Update>)> = Vec::new();
        for (ts, ops) in w.batches(BATCH) {
            for op in &ops {
                match op {
                    Update::AddNode { id, .. } => {
                        node_created[id.raw() as usize] = ts;
                        node_order.push(id.raw());
                    }
                    Update::AddRel { id, .. } => rel_created[id.raw() as usize] = ts,
                    _ => {}
                }
            }
            base.push((ts, ops));
        }
        let hot_nodes: Vec<u64> = node_order.iter().copied().take(sizes.hot).collect();
        let hot_rels: Vec<u64> = (0..sizes.hot.min(rel_created.len()) as u64).collect();
        // The first round follows the commit that creates the last hot node.
        let hot_ready = hot_nodes
            .iter()
            .map(|&n| node_created[n as usize])
            .max()
            .unwrap_or(0);
        let first = base
            .iter()
            .position(|(ts, _)| *ts >= hot_ready)
            .unwrap_or(0);
        let span = base.len() - first;
        let mut commits = Vec::with_capacity(base.len() + ROUNDS);
        let mut round = 0;
        let next_ts: Vec<Timestamp> = base.iter().skip(1).map(|(ts, _)| *ts).collect();
        for (i, (ts, ops)) in base.into_iter().enumerate() {
            commits.push((ts, ops));
            while round < ROUNDS
                && i >= first
                && (i - first) >= round * span / ROUNDS
                && next_ts
                    .get(i)
                    .is_none_or(|&next| commits.last().expect("just pushed").0 + 1 < next)
            {
                let set = hot_nodes
                    .iter()
                    .map(|&id| Update::SetNodeProp {
                        id: NodeId::new(id),
                        key: KEY_RANK,
                        value: PropertyValue::Int(round as i64),
                    })
                    .collect();
                // Base commits are about `batch` ticks apart, so ts + 1 + k
                // is free; several rounds may follow the last commit.
                let prev = commits.last().expect("just pushed").0;
                commits.push((prev + 1, set));
                round += 1;
            }
        }
        let mut final_graph = Graph::new();
        let mut updates = 0;
        let mut user_bytes = 0;
        for (ts, ops) in &commits {
            for op in ops {
                final_graph
                    .apply(op)
                    .expect("generated history is consistent");
                user_bytes += encoded_len(*ts, op);
            }
            updates += ops.len() as u64;
        }
        let end_ts = commits.last().map_or(0, |(ts, _)| *ts);
        let expand_starts = expand_starts(&final_graph, node_created.len());
        Dataset {
            seed,
            commits,
            node_created,
            rel_created,
            hot_nodes,
            hot_rels,
            expand_starts,
            end_ts,
            updates,
            user_bytes,
            final_graph,
        }
    }

    pub fn node_count(&self) -> u64 {
        self.node_created.len() as u64
    }
}

/// Nodes whose two-hop outgoing neighbourhood in the final graph holds
/// between 2.8 % and 5.6 % of all nodes — 400 to 800 nodes at full size,
/// about one node in eleven of the DBLP shape. Expanding from them costs
/// dozens of index range scans each, and about the same from one to the
/// next, so the workload's median does not hang on how many hubs a seed
/// happens to draw.
fn expand_starts(graph: &Graph, nodes: usize) -> Vec<u64> {
    let out: Vec<Vec<usize>> = (0..nodes as u64)
        .map(|n| {
            graph
                .neighbours(NodeId::new(n), lpg::Direction::Outgoing)
                .into_iter()
                .map(|m| m.raw() as usize)
                .collect()
        })
        .collect();
    let mut seen_by = vec![usize::MAX; nodes];
    let mut starts = Vec::new();
    for (s, first) in out.iter().enumerate() {
        seen_by[s] = s;
        let mut reached = 0;
        let mut visit = |m: usize, reached: &mut usize| {
            if seen_by[m] != s {
                seen_by[m] = s;
                *reached += 1;
            }
        };
        for &m in first {
            visit(m, &mut reached);
        }
        for &m in first {
            for &k in &out[m] {
                visit(k, &mut reached);
            }
        }
        if (nodes * 28 / 1000..=nodes * 56 / 1000).contains(&reached) {
            starts.push(s as u64);
        }
    }
    assert!(!starts.is_empty(), "the DBLP shape has nodes in the band");
    starts
}

/// What one operation asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `… AS OF t MATCH (n) WHERE id(n) = $id RETURN n`
    NodeAt,
    /// `… AS OF t MATCH ()-[r]->() WHERE id(r) = $id RETURN r`
    RelAt,
    /// `… AS OF t MATCH (n)-[*2]->(m) WHERE id(n) = $id RETURN id(m)`
    Expand2,
    /// `… AS OF t MATCH (n) RETURN count(n)`
    CountAt,
    /// `MATCH (n) WHERE id(n) = $id RETURN n` at the latest time
    NodeLatest,
    /// `MATCH (n)-[r]->(m) WHERE id(n) = $id RETURN id(m)` at the latest time
    Hop1Latest,
    /// `CREATE (n:Client {_id: …})`
    Create,
    /// `MATCH (n) WHERE id(n) = $id SET n.touched = $i`
    SetTouched,
}

impl OpKind {
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::Create | OpKind::SetTouched)
    }
}

/// One generated operation: what it means and the query text sent.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: OpKind,
    pub id: u64,
    /// `AS OF` time; unused by the latest-time kinds and by writes.
    pub t: Timestamp,
    /// The value a `SetTouched` writes.
    pub value: i64,
    pub text: String,
    pub params: Vec<(String, Value)>,
}

impl Op {
    fn new(kind: OpKind, id: u64, t: Timestamp, value: i64) -> Op {
        let as_of = format!("USE GDB FOR SYSTEM_TIME AS OF {t} ");
        let id_param = || vec![("id".to_string(), Value::Int(id as i64))];
        let (text, params) = match kind {
            OpKind::NodeAt => (as_of + "MATCH (n) WHERE id(n) = $id RETURN n", id_param()),
            OpKind::RelAt => (
                as_of + "MATCH ()-[r]->() WHERE id(r) = $id RETURN r",
                id_param(),
            ),
            OpKind::Expand2 => (
                as_of + "MATCH (n)-[*2]->(m) WHERE id(n) = $id RETURN id(m)",
                id_param(),
            ),
            OpKind::CountAt => (as_of + "MATCH (n) RETURN count(n)", vec![]),
            OpKind::NodeLatest => ("MATCH (n) WHERE id(n) = $id RETURN n".into(), id_param()),
            OpKind::Hop1Latest => (
                "MATCH (n)-[r]->(m) WHERE id(n) = $id RETURN id(m)".into(),
                id_param(),
            ),
            OpKind::Create => (format!("CREATE (n:Client {{_id: {id}}})"), vec![]),
            OpKind::SetTouched => {
                let mut params = id_param();
                params.push(("i".to_string(), Value::Int(value)));
                (
                    "MATCH (n) WHERE id(n) = $id SET n.touched = $i".into(),
                    params,
                )
            }
        };
        Op {
            kind,
            id,
            t,
            value,
            text,
            params,
        }
    }

    /// A latest-time point read of node `id`.
    pub fn read_latest(id: u64) -> Op {
        Op::new(OpKind::NodeLatest, id, 0, 0)
    }

    /// The update a write operation commits.
    pub fn as_update(&self) -> Option<Update> {
        match self.kind {
            OpKind::Create => Some(Update::AddNode {
                id: NodeId::new(self.id),
                labels: vec![LABEL_CLIENT],
                props: vec![],
            }),
            OpKind::SetTouched => Some(Update::SetNodeProp {
                id: NodeId::new(self.id),
                key: KEY_TOUCHED,
                value: PropertyValue::Int(self.value),
            }),
            _ => None,
        }
    }
}

fn mix(seed: u64, salt: u64) -> u64 {
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).gen()
}

/// The `j`-th write of `mixed_rw`: a pure function of the seed, so reader
/// and writer agree on it without talking. Even writes create a node, odd
/// ones set a property on a generated node.
pub fn write_op(data: &Dataset, j: u64) -> Op {
    if j.is_multiple_of(2) {
        Op::new(OpKind::Create, CREATE_BASE + j, 0, 0)
    } else {
        let target = mix(data.seed, j) % data.node_count();
        Op::new(OpKind::SetTouched, target, 0, j as i64)
    }
}

/// A read of `mixed_rw`: half point reads, half one-hop expansions, on nodes
/// written within the last 64 writes before `progress`.
fn mixed_read_op(data: &Dataset, rng: &mut SmallRng, progress: u64) -> Op {
    let recent = |rng: &mut SmallRng| progress - 1 - rng.gen_range(0..progress.min(64));
    if progress == 0 {
        let id = rng.gen_range(0..data.node_count());
        return Op::new(OpKind::NodeLatest, id, 0, 0);
    }
    if rng.gen::<f64>() < 0.5 {
        Op::new(OpKind::NodeLatest, write_op(data, recent(rng)).id, 0, 0)
    } else {
        // Created nodes have no relationships: expand from a `SET` target.
        let j = recent(rng) | 1;
        Op::new(OpKind::Hop1Latest, write_op(data, j).id, 0, 0)
    }
}

/// `global_asof`'s times come in blocks of this many: the timed window's
/// list is one block.
const ASOF_BLOCK: usize = 24;

/// One block of `global_asof` times, as shares of history, in random order.
/// What a whole-graph read costs depends on where in history it falls (the
/// graph grows) and on how far past the nearest snapshot (the updates to
/// replay), and the two differ by a factor of ten over the history. So both
/// are stratified: one time falls in each `n`-th of history, and within
/// their `n`-ths the times sit at `n` evenly spaced offsets, dealt out at
/// random (an `n`-th is about one snapshot interval). Any block then costs
/// about the same, whichever times a seed draws.
fn stratified_shares(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    let shuffle = |v: &mut Vec<usize>, rng: &mut SmallRng| {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
    };
    let mut offsets: Vec<usize> = (0..n).collect();
    shuffle(&mut offsets, rng);
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, rng);
    order
        .into_iter()
        .map(|i| (i as f64 + (offsets[i] as f64 + rng.gen::<f64>()) / n as f64) / n as f64)
        .collect()
}

/// The operation stream of one connection of one workload.
pub struct OpGen<'a> {
    data: &'a Dataset,
    workload: Workload,
    rng: SmallRng,
    /// What is left of `global_asof`'s current block of times.
    shares: Vec<f64>,
}

impl<'a> OpGen<'a> {
    pub fn new(data: &'a Dataset, workload: Workload, conn: u64) -> OpGen<'a> {
        let salt = 0xA10F + 16 * workload.index() as u64 + conn;
        OpGen {
            data,
            workload,
            rng: SmallRng::seed_from_u64(mix(data.seed, salt)),
            shares: Vec::new(),
        }
    }

    /// The next read. `progress` is how many writes `mixed_rw`'s writer has
    /// had acknowledged; the read-only workloads ignore it.
    pub fn next_read(&mut self, progress: u64) -> Op {
        let d = self.data;
        let rng = &mut self.rng;
        match self.workload {
            Workload::PointHot => {
                // Times are uniform over the entity's life, so every lookup
                // finds a version.
                if rng.gen::<f64>() < 0.5 {
                    let id = d.hot_nodes[rng.gen_range(0..d.hot_nodes.len())];
                    let t = rng.gen_range(d.node_created[id as usize]..=d.end_ts);
                    Op::new(OpKind::NodeAt, id, t, 0)
                } else {
                    let id = d.hot_rels[rng.gen_range(0..d.hot_rels.len())];
                    let t = rng.gen_range(d.rel_created[id as usize]..=d.end_ts);
                    Op::new(OpKind::RelAt, id, t, 0)
                }
            }
            Workload::Expand2Hop => {
                // A time uniform in the second half of history, and a start
                // node uniform over the moderately large ones alive then.
                let t = rng.gen_range(d.end_ts / 2..=d.end_ts);
                loop {
                    let id = d.expand_starts[rng.gen_range(0..d.expand_starts.len())];
                    if d.node_created[id as usize] <= t {
                        return Op::new(OpKind::Expand2, id, t, 0);
                    }
                }
            }
            Workload::GlobalAsOf => {
                if self.shares.is_empty() {
                    self.shares = stratified_shares(rng, ASOF_BLOCK);
                }
                let share = self.shares.pop().expect("just refilled");
                let first = d.commits.first().map_or(1, |(ts, _)| *ts);
                let t = first + (share * (d.end_ts - first) as f64) as Timestamp;
                Op::new(OpKind::CountAt, 0, t, 0)
            }
            Workload::MixedRw => mixed_read_op(d, rng, progress),
        }
    }
}

/// The distinct reads connection `conn` cycles through in a timed window.
/// `progress` is the number of writes acknowledged before the window.
pub fn cycle_ops(
    data: &Dataset,
    workload: Workload,
    conn: u64,
    n: usize,
    progress: u64,
) -> Vec<Op> {
    let mut gen = OpGen::new(data, workload, conn);
    (0..n).map(|_| gen.next_read(progress)).collect()
}

/// The single-client operation list used by the output check and the traced
/// pass: `n` operations starting at write index `first_write`. `mixed_rw`
/// alternates write, read; the others only read.
pub fn single_client_ops(
    data: &Dataset,
    workload: Workload,
    n: usize,
    first_write: u64,
) -> Vec<Op> {
    let mut gen = OpGen::new(data, workload, 0);
    let mut writes = first_write;
    (0..n)
        .map(|i| {
            if workload.mutates() && i % 2 == 0 {
                writes += 1;
                write_op(data, writes - 1)
            } else {
                gen.next_read(writes)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sizes {
        Sizes {
            edges: 3000,
            hot: 32,
            ..SMOKE
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Dataset::generate(5, &tiny());
        let b = Dataset::generate(5, &tiny());
        let c = Dataset::generate(6, &tiny());
        assert_eq!(a.commits, b.commits);
        assert_ne!(a.commits, c.commits);
        for w in Workload::ALL {
            let texts = |d: &Dataset| -> Vec<(String, Vec<(String, Value)>)> {
                single_client_ops(d, w, 50, 0)
                    .into_iter()
                    .map(|o| (o.text, o.params))
                    .collect()
            };
            assert_eq!(texts(&a), texts(&b), "{}", w.name());
            assert_ne!(texts(&a), texts(&c), "{}", w.name());
        }
    }

    #[test]
    fn asof_times_are_stratified_both_ways() {
        let n = 24;
        let shares = stratified_shares(&mut SmallRng::seed_from_u64(9), n);
        let mut strata: Vec<usize> = shares.iter().map(|s| (s * n as f64) as usize).collect();
        let mut offsets: Vec<usize> = shares
            .iter()
            .map(|s| ((s * n as f64).fract() * n as f64) as usize)
            .collect();
        assert_ne!(strata, (0..n).collect::<Vec<_>>(), "in random order");
        strata.sort_unstable();
        offsets.sort_unstable();
        assert_eq!(strata, (0..n).collect::<Vec<_>>());
        assert_eq!(offsets, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn history_is_ordered_and_deepened() {
        let sizes = tiny();
        let d = Dataset::generate(1, &sizes);
        assert!(d.commits.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(d.hot_nodes.len(), sizes.hot);
        let rank = d
            .final_graph
            .node(NodeId::new(d.hot_nodes[0]))
            .and_then(|n| n.prop(KEY_RANK).cloned());
        assert_eq!(rank, Some(PropertyValue::Int(ROUNDS as i64 - 1)));
        let rounds = d
            .commits
            .iter()
            .filter(|(_, ops)| matches!(ops[0], Update::SetNodeProp { .. }))
            .count();
        assert_eq!(rounds, ROUNDS);
        assert!(d.user_bytes > d.updates);
    }

    #[test]
    fn generated_reads_name_entities_that_exist() {
        let d = Dataset::generate(3, &tiny());
        for w in [Workload::PointHot, Workload::Expand2Hop] {
            for op in single_client_ops(&d, w, 300, 0) {
                let created = match op.kind {
                    OpKind::RelAt => d.rel_created[op.id as usize],
                    _ => d.node_created[op.id as usize],
                };
                assert!(created <= op.t && op.t <= d.end_ts);
            }
        }
        let mixed = single_client_ops(&d, Workload::MixedRw, 40, 10);
        assert!(mixed.iter().step_by(2).all(|o| o.kind.is_write()));
        assert!(mixed.iter().skip(1).step_by(2).all(|o| !o.kind.is_write()));
        assert_eq!(mixed[0].id, CREATE_BASE + 10);
    }
}
