//! Template/binding split for structural sharing of per-run graphs.
//!
//! Every run of the same workflow exports an OPM graph with the same
//! *shape*: the node ids, labels, edges and quality annotations are all
//! derived from the workflow definition; only the run id woven into the
//! ids plus a handful of volatile annotations (artifact value previews,
//! run status, retry counts) differ from run to run. [`extract`] splits
//! a graph into that run-agnostic *skeleton* — content-addressed by
//! [`content_hash`] so identical skeletons are stored once — and a
//! compact per-run [`Bindings`] record; [`rehydrate`] inverts the split
//! exactly.
//!
//! The split is **conservative**: `extract` verifies losslessness by
//! rehydrating its own output and comparing with the original, and
//! returns `None` whenever the roundtrip is not bit-perfect (run id
//! absent from the graph, a string that already contains the slot
//! marker, …). Callers fall back to materialized storage in that case,
//! so correctness never depends on the substitution heuristics.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::graph::OpmGraph;
use crate::model::{Account, Agent, Annotations, Artifact, NodeId, Process};

/// Marker substituted for the run id inside skeleton strings. Chosen to
/// be visibly artificial and vanishingly unlikely in real ids or labels;
/// [`extract`] refuses graphs that already contain it.
pub const RUN_SLOT: &str = "\u{ab}run\u{bb}"; // «run»

/// Annotation keys whose values are per-run, not workflow-derived: these
/// move from the skeleton into [`Bindings`] so that runs with different
/// inputs still share one skeleton.
pub const VOLATILE_KEYS: &[&str] = &["value", "run_id", "status", "attempts"];

/// Per-run residue of the template split: everything [`rehydrate`] needs
/// to reconstruct the exact original graph from a shared skeleton.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bindings {
    /// The run id substituted back into every [`RUN_SLOT`].
    pub run_id: String,
    /// Volatile annotations by *templated* node id (i.e. the id as it
    /// appears in the skeleton, slot marker included).
    #[serde(default)]
    pub annotations: BTreeMap<String, Annotations>,
}

/// A run-agnostic skeleton with its content address.
#[derive(Debug, Clone, PartialEq)]
pub struct Extracted {
    /// The shared skeleton (store once per distinct hash).
    pub skeleton: OpmGraph,
    /// Stable content address of the skeleton.
    pub hash: String,
    /// The per-run residue (store once per run).
    pub bindings: Bindings,
}

/// FNV-1a over bytes: stable across processes and platforms, so a
/// template hash names the same shape in every run that stores it.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Stable content address of a skeleton: FNV-1a over its canonical JSON
/// (all node maps are `BTreeMap`s, so serialization order is
/// deterministic), suffixed with the byte length to narrow collisions.
pub fn content_hash(skeleton: &OpmGraph) -> Option<String> {
    let bytes = serde_json::to_vec(skeleton).ok()?;
    Some(format!("{:016x}-{:x}", fnv1a(&bytes), bytes.len()))
}

/// Substitute every occurrence of `from` with `to` across all strings of
/// the graph: ids, labels, roles, accounts, annotation keys and values.
fn substitute(graph: &OpmGraph, from: &str, to: &str) -> OpmGraph {
    let sub = |s: &str| s.replace(from, to);
    let sub_anns = |anns: &Annotations| -> Annotations {
        anns.iter().map(|(k, v)| (sub(k), sub(v))).collect()
    };
    let mut out = OpmGraph::new();
    for a in graph.artifacts.values() {
        out.artifacts.insert(
            NodeId::new(sub(a.id.as_str())),
            Artifact {
                id: NodeId::new(sub(a.id.as_str())),
                label: sub(&a.label),
                annotations: sub_anns(&a.annotations),
            },
        );
    }
    for p in graph.processes.values() {
        out.processes.insert(
            NodeId::new(sub(p.id.as_str())),
            Process {
                id: NodeId::new(sub(p.id.as_str())),
                label: sub(&p.label),
                annotations: sub_anns(&p.annotations),
            },
        );
    }
    for ag in graph.agents.values() {
        out.agents.insert(
            NodeId::new(sub(ag.id.as_str())),
            Agent {
                id: NodeId::new(sub(ag.id.as_str())),
                label: sub(&ag.label),
                annotations: sub_anns(&ag.annotations),
            },
        );
    }
    for e in &graph.edges {
        let mut e2 = e.clone();
        e2.effect = NodeId::new(sub(e.effect.as_str()));
        e2.cause = NodeId::new(sub(e.cause.as_str()));
        e2.role = e.role.as_deref().map(sub);
        e2.accounts = e.accounts.iter().map(|a| Account::new(sub(&a.0))).collect();
        e2.annotations = sub_anns(&e.annotations);
        out.edges.push(e2);
    }
    out.accounts = graph
        .accounts
        .iter()
        .map(|a| Account::new(sub(&a.0)))
        .collect();
    out
}

/// Move [`VOLATILE_KEYS`] annotations out of every node into a bindings
/// map keyed by node id, leaving the graph's structural annotations.
fn strip_volatile(graph: &mut OpmGraph) -> BTreeMap<String, Annotations> {
    let mut moved: BTreeMap<String, Annotations> = BTreeMap::new();
    let mut strip = |id: &NodeId, anns: &mut Annotations| {
        let mut taken = Annotations::new();
        for key in VOLATILE_KEYS {
            if let Some(v) = anns.remove(*key) {
                taken.insert((*key).to_string(), v);
            }
        }
        if !taken.is_empty() {
            moved.insert(id.as_str().to_string(), taken);
        }
    };
    for a in graph.artifacts.values_mut() {
        strip(&a.id.clone(), &mut a.annotations);
    }
    for p in graph.processes.values_mut() {
        strip(&p.id.clone(), &mut p.annotations);
    }
    for ag in graph.agents.values_mut() {
        strip(&ag.id.clone(), &mut ag.annotations);
    }
    moved
}

/// Split `graph` into a run-agnostic skeleton and per-run bindings, or
/// `None` when the split would not be lossless (empty run id, run id not
/// present in the graph, slot marker already present, or any roundtrip
/// mismatch). The skeleton's annotations bindings are keyed by the
/// *templated* node ids, so two runs with identical structure hash to
/// the same skeleton even though their volatile values differ.
pub fn extract(graph: &OpmGraph, run_id: &str) -> Option<Extracted> {
    if run_id.is_empty() {
        return None;
    }
    let serialized = serde_json::to_string(graph).ok()?;
    if serialized.contains(RUN_SLOT) || !serialized.contains(run_id) {
        return None;
    }
    // Strip volatile annotations BEFORE substituting, so bindings keep
    // the original values verbatim (a `run_id` annotation's value is the
    // run id itself and must not be slot-substituted). Binding keys are
    // then templated to match the skeleton's ids.
    let mut work = graph.clone();
    let volatile = strip_volatile(&mut work);
    let skeleton = substitute(&work, run_id, RUN_SLOT);
    let bindings = Bindings {
        run_id: run_id.to_string(),
        annotations: volatile
            .into_iter()
            .map(|(id, anns)| (id.replace(run_id, RUN_SLOT), anns))
            .collect(),
    };
    // Conservative: a split that does not roundtrip bit-perfectly is no
    // split at all. Guards against pathological run ids (substrings of
    // structural strings) without needing to enumerate them.
    if rehydrate(&skeleton, &bindings) != *graph {
        return None;
    }
    let hash = content_hash(&skeleton)?;
    Some(Extracted {
        skeleton,
        hash,
        bindings,
    })
}

/// Reconstruct the full per-run graph from a shared skeleton and its
/// per-run bindings — the exact inverse of [`extract`].
pub fn rehydrate(skeleton: &OpmGraph, bindings: &Bindings) -> OpmGraph {
    let mut graph = substitute(skeleton, RUN_SLOT, &bindings.run_id);
    for (templated_id, anns) in &bindings.annotations {
        let id = NodeId::new(templated_id.replace(RUN_SLOT, &bindings.run_id));
        let target = graph
            .artifacts
            .get_mut(&id)
            .map(|a| &mut a.annotations)
            .or_else(|| graph.processes.get_mut(&id).map(|p| &mut p.annotations))
            .or_else(|| graph.agents.get_mut(&id).map(|ag| &mut ag.annotations));
        if let Some(target) = target {
            for (k, v) in anns {
                target.insert(k.clone(), v.clone());
            }
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    /// A graph shaped like the wfms exporter's output for `run`.
    fn run_graph(run: &str, value: &str) -> OpmGraph {
        let mut g = OpmGraph::new();
        g.add_artifact(
            Artifact::new(format!("a:{run}:in:x"), "workflow input x")
                .with_annotation("value", value)
                .with_annotation("Q(reputation)", "1"),
        );
        g.add_artifact(
            Artifact::new(format!("a:{run}:out:y"), "workflow output y")
                .with_annotation("value", value),
        );
        g.add_process(
            Process::new(format!("p:{run}:id"), "identity").with_annotation("attempts", "1"),
        );
        g.add_agent(
            Agent::new(format!("ag:{run}:engine"), "wfms engine")
                .with_annotation("run_id", run)
                .with_annotation("status", "succeeded"),
        );
        g.add_edge(Edge::used(
            format!("p:{run}:id").as_str().into(),
            format!("a:{run}:in:x").as_str().into(),
            Some("x"),
        ))
        .unwrap();
        g.add_edge(Edge::was_generated_by(
            format!("a:{run}:out:y").as_str().into(),
            format!("p:{run}:id").as_str().into(),
            Some("y"),
        ))
        .unwrap();
        g.add_edge(Edge::was_controlled_by(
            format!("p:{run}:id").as_str().into(),
            format!("ag:{run}:engine").as_str().into(),
            Some("engine"),
        ))
        .unwrap();
        g
    }

    #[test]
    fn extract_then_rehydrate_is_identity() {
        let g = run_graph("run-00aa-000001", "42");
        let ex = extract(&g, "run-00aa-000001").expect("extractable");
        assert_eq!(rehydrate(&ex.skeleton, &ex.bindings), g);
    }

    #[test]
    fn same_workflow_different_runs_share_one_skeleton() {
        let g1 = run_graph("run-00aa-000001", "42");
        let g2 = run_graph("run-77bb-000009", "1337");
        let e1 = extract(&g1, "run-00aa-000001").unwrap();
        let e2 = extract(&g2, "run-77bb-000009").unwrap();
        assert_eq!(e1.hash, e2.hash);
        assert_eq!(e1.skeleton, e2.skeleton);
        assert_ne!(e1.bindings, e2.bindings);
    }

    #[test]
    fn skeleton_contains_no_run_id_and_no_volatile_values() {
        let g = run_graph("run-00aa-000001", "secret-payload");
        let ex = extract(&g, "run-00aa-000001").unwrap();
        let json = serde_json::to_string(&ex.skeleton).unwrap();
        assert!(!json.contains("run-00aa-000001"));
        assert!(!json.contains("secret-payload"));
        assert!(json.contains(RUN_SLOT));
    }

    #[test]
    fn graphs_without_the_run_id_fall_back() {
        let g = run_graph("run-00aa-000001", "42");
        assert!(extract(&g, "some-other-run").is_none());
        assert!(extract(&g, "").is_none());
    }

    #[test]
    fn slot_marker_collision_falls_back() {
        let mut g = run_graph("run-00aa-000001", "42");
        g.add_artifact(Artifact::new(format!("a:weird:{RUN_SLOT}"), "collider"));
        assert!(extract(&g, "run-00aa-000001").is_none());
    }

    #[test]
    fn bindings_round_trip_through_serde() {
        let g = run_graph("run-00aa-000001", "42");
        let ex = extract(&g, "run-00aa-000001").unwrap();
        let json = serde_json::to_string(&ex.bindings).unwrap();
        let back: Bindings = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ex.bindings);
        assert_eq!(rehydrate(&ex.skeleton, &back), g);
    }

    #[test]
    fn structural_annotation_differences_change_the_hash() {
        let g1 = run_graph("run-00aa-000001", "42");
        let mut g2 = run_graph("run-77bb-000009", "42");
        g2.artifacts
            .iter_mut()
            .next()
            .unwrap()
            .1
            .annotations
            .insert("Q(accuracy)".into(), "0.9".into());
        let e1 = extract(&g1, "run-00aa-000001").unwrap();
        let e2 = extract(&g2, "run-77bb-000009").unwrap();
        assert_ne!(e1.hash, e2.hash);
    }
}
