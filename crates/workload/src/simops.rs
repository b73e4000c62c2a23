//! Deterministic commit scripts for the crash-consistency simulation
//! harness (`tests/sim_crash.rs`).
//!
//! [`commit_script`] turns a single `u64` seed into a sequence of commit
//! batches that is *valid by construction*: every update satisfies the LPG
//! constraints (nodes exist before incident relationships, deletions only
//! target childless entities) when the batches are applied in order. The
//! same seed always yields the same script, so a failing crash-simulation
//! run reproduces from its printed seed alone.

use lpg::{NodeId, PropertyValue, RelId, StrId, Update};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Shape of a generated commit script.
#[derive(Clone, Debug)]
pub struct SimOpsConfig {
    /// Number of commit batches to generate.
    pub commits: usize,
    /// Maximum updates per batch (each batch draws `1..=max`).
    pub ops_per_commit: usize,
    /// Interned `_app_start` key for bitemporal properties.
    pub app_start: StrId,
    /// Interned `_app_end` key for bitemporal properties.
    pub app_end: StrId,
    /// Interned ordinary property key.
    pub key: StrId,
    /// Interned label.
    pub label: StrId,
}

/// Generator state: the graph as it will exist after every update emitted
/// so far, tracked just precisely enough to never emit an invalid update.
struct Model {
    next_node: u64,
    next_rel: u64,
    live_nodes: Vec<NodeId>,
    live_rels: Vec<RelId>,
    degree: HashMap<NodeId, usize>,
    endpoints: HashMap<RelId, (NodeId, NodeId)>,
}

impl Model {
    fn pick_node(&self, rng: &mut SmallRng) -> NodeId {
        self.live_nodes[rng.gen_range(0..self.live_nodes.len())]
    }

    fn pick_rel(&self, rng: &mut SmallRng) -> RelId {
        self.live_rels[rng.gen_range(0..self.live_rels.len())]
    }
}

/// Generates `cfg.commits` valid commit batches from `seed`.
pub fn commit_script(seed: u64, cfg: &SimOpsConfig) -> Vec<Vec<Update>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = Model {
        next_node: 0,
        next_rel: 0,
        live_nodes: Vec::new(),
        live_rels: Vec::new(),
        degree: HashMap::new(),
        endpoints: HashMap::new(),
    };
    let mut script = Vec::with_capacity(cfg.commits);
    for _ in 0..cfg.commits {
        let n_ops = rng.gen_range(1..=cfg.ops_per_commit.max(1));
        let mut batch = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            batch.push(next_op(&mut rng, &mut m, cfg));
        }
        script.push(batch);
    }
    script
}

/// Multiplies every node and relationship id of `script` by `stride`.
///
/// Scripts count ids up from 0, so a few dozen entities share one or two of
/// the 64-id chunks `lpg::Graph` and snapshot files are cut into; spread by
/// a stride above 1 they span many, and a snapshot can share some with the
/// one before it and rewrite others.
pub fn spread_ids(mut script: Vec<Vec<Update>>, stride: u64) -> Vec<Vec<Update>> {
    let node = |id: &mut NodeId| *id = NodeId::new(id.raw() * stride);
    let rel = |id: &mut RelId| *id = RelId::new(id.raw() * stride);
    for u in script.iter_mut().flatten() {
        match u {
            Update::AddNode { id, .. }
            | Update::DeleteNode { id }
            | Update::SetNodeProp { id, .. }
            | Update::RemoveNodeProp { id, .. }
            | Update::AddLabel { id, .. }
            | Update::RemoveLabel { id, .. } => node(id),
            Update::AddRel { id, src, tgt, .. } => {
                rel(id);
                node(src);
                node(tgt);
            }
            Update::DeleteRel { id }
            | Update::SetRelProp { id, .. }
            | Update::RemoveRelProp { id, .. } => rel(id),
        }
    }
    script
}

/// Emits one valid update and folds it into the model.
fn next_op(rng: &mut SmallRng, m: &mut Model, cfg: &SimOpsConfig) -> Update {
    // Weighted op mix; structural choices fall back to AddNode whenever the
    // graph is too small for them.
    let roll = rng.gen_range(0u32..100);
    if m.live_nodes.len() < 2 || roll < 20 {
        let id = NodeId::new(m.next_node);
        m.next_node += 1;
        m.live_nodes.push(id);
        m.degree.insert(id, 0);
        let labels = if rng.gen_range(0u32..2) == 0 {
            vec![cfg.label]
        } else {
            vec![]
        };
        return Update::AddNode {
            id,
            labels,
            props: vec![(cfg.key, PropertyValue::Int(rng.gen_range(0..1000)))],
        };
    }
    match roll {
        20..=39 => {
            // AddRel between two live nodes (self-loops allowed upstream,
            // but keep endpoints distinct for readability).
            let src = m.pick_node(rng);
            let mut tgt = m.pick_node(rng);
            if tgt == src {
                tgt = m.live_nodes[(m.live_nodes.iter().position(|&n| n == src).unwrap_or(0) + 1)
                    % m.live_nodes.len()];
            }
            let id = RelId::new(m.next_rel);
            m.next_rel += 1;
            m.live_rels.push(id);
            m.endpoints.insert(id, (src, tgt));
            *m.degree.entry(src).or_insert(0) += 1;
            *m.degree.entry(tgt).or_insert(0) += 1;
            Update::AddRel {
                id,
                src,
                tgt,
                label: Some(cfg.label),
                props: vec![(cfg.key, PropertyValue::Int(rng.gen_range(0..1000)))],
            }
        }
        40..=59 => {
            // Plain node property churn.
            let id = m.pick_node(rng);
            Update::SetNodeProp {
                id,
                key: cfg.key,
                value: PropertyValue::Int(rng.gen_range(0..1000)),
            }
        }
        60..=74 => {
            // Bitemporal annotation: a valid application-time interval.
            let id = m.pick_node(rng);
            let start = rng.gen_range(0i64..500);
            let (key, value) = if rng.gen_range(0u32..2) == 0 {
                (cfg.app_start, PropertyValue::Int(start))
            } else {
                (
                    cfg.app_end,
                    PropertyValue::Int(start + rng.gen_range(1i64..500)),
                )
            };
            Update::SetNodeProp { id, key, value }
        }
        75..=84 if !m.live_rels.is_empty() => {
            let id = m.pick_rel(rng);
            Update::SetRelProp {
                id,
                key: cfg.key,
                value: PropertyValue::Int(rng.gen_range(0..1000)),
            }
        }
        85..=89 if !m.live_rels.is_empty() => {
            // DeleteRel: always valid for a live relationship.
            let idx = rng.gen_range(0..m.live_rels.len());
            let id = m.live_rels.swap_remove(idx);
            if let Some((src, tgt)) = m.endpoints.remove(&id) {
                if let Some(d) = m.degree.get_mut(&src) {
                    *d = d.saturating_sub(1);
                }
                if let Some(d) = m.degree.get_mut(&tgt) {
                    *d = d.saturating_sub(1);
                }
            }
            Update::DeleteRel { id }
        }
        90..=93 => {
            // DeleteNode: only nodes without incident relationships.
            let isolated: Vec<NodeId> = m
                .live_nodes
                .iter()
                .copied()
                .filter(|n| m.degree.get(n).copied().unwrap_or(0) == 0)
                .collect();
            if isolated.is_empty() {
                let id = m.pick_node(rng);
                return Update::AddLabel {
                    id,
                    label: cfg.label,
                };
            }
            let id = isolated[rng.gen_range(0..isolated.len())];
            m.live_nodes.retain(|&n| n != id);
            m.degree.remove(&id);
            Update::DeleteNode { id }
        }
        _ => {
            let id = m.pick_node(rng);
            if rng.gen_range(0u32..2) == 0 {
                Update::AddLabel {
                    id,
                    label: cfg.label,
                }
            } else {
                Update::RemoveNodeProp { id, key: cfg.key }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpg::Graph;

    fn cfg() -> SimOpsConfig {
        SimOpsConfig {
            commits: 120,
            ops_per_commit: 6,
            app_start: StrId::new(0),
            app_end: StrId::new(1),
            key: StrId::new(2),
            label: StrId::new(3),
        }
    }

    #[test]
    fn scripts_are_valid_by_construction() {
        for seed in 0..8u64 {
            let script = commit_script(seed, &cfg());
            assert_eq!(script.len(), 120);
            let mut g = Graph::new();
            for batch in &script {
                assert!(!batch.is_empty());
                for u in batch {
                    g.apply(u).unwrap();
                }
            }
            g.check_consistency().unwrap();
        }
    }

    #[test]
    fn scripts_are_deterministic_per_seed() {
        let a = commit_script(7, &cfg());
        let b = commit_script(7, &cfg());
        let c = commit_script(8, &cfg());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn spread_scripts_stay_valid_and_span_many_chunks() {
        let script = spread_ids(commit_script(5, &cfg()), 29);
        let mut g = Graph::new();
        for u in script.iter().flatten() {
            g.apply(u).unwrap();
        }
        let mut chunks: Vec<(bool, u64)> = script
            .iter()
            .flatten()
            .map(|u| (u.entity().is_node(), u.entity().raw() >> 6))
            .collect();
        chunks.sort_unstable();
        chunks.dedup();
        assert!(chunks.len() >= 16, "{} chunks", chunks.len());
        assert!(script.iter().flatten().all(|u| u.entity().raw() % 29 == 0));
    }

    #[test]
    fn scripts_exercise_deletions() {
        let script = commit_script(3, &cfg());
        let flat: Vec<&Update> = script.iter().flatten().collect();
        assert!(flat.iter().any(|u| matches!(u, Update::DeleteRel { .. })));
        assert!(flat.iter().any(|u| matches!(u, Update::SetNodeProp { .. })));
    }
}
