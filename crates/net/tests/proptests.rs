//! Property-based tests of graph invariants under arbitrary operation
//! sequences and of the topology generators.

// Tests may panic freely; the workspace deny-lints target library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use digest_net::{topology, ChurnConfig, ChurnProcess, Graph, NodeId};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

/// An arbitrary mutation applied to a graph.
#[derive(Debug, Clone)]
enum Op {
    AddNode,
    RemoveNode(u32),
    AddEdge(u32, u32),
    RemoveEdge(u32, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::AddNode),
        (0u32..64).prop_map(Op::RemoveNode),
        (0u32..64, 0u32..64).prop_map(|(a, b)| Op::AddEdge(a, b)),
        (0u32..64, 0u32..64).prop_map(|(a, b)| Op::RemoveEdge(a, b)),
    ]
}

fn check_invariants(g: &Graph) {
    // Handshake lemma.
    let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
    assert_eq!(degree_sum, 2 * g.edge_count());
    // Adjacency symmetry, liveness, and simplicity.
    for v in g.nodes() {
        let nbs = g.neighbors(v);
        for &nb in nbs {
            assert!(g.contains(nb), "dangling neighbor");
            assert!(g.neighbors(nb).contains(&v), "asymmetric edge");
            assert_ne!(nb, v, "self-loop");
        }
        let mut sorted = nbs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), nbs.len(), "parallel edge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_invariants_hold_under_arbitrary_ops(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let mut g = Graph::new();
        for op in ops {
            match op {
                Op::AddNode => {
                    g.add_node();
                }
                Op::RemoveNode(i) => {
                    let _ = g.remove_node(NodeId(i));
                }
                Op::AddEdge(a, b) => {
                    let _ = g.add_edge(NodeId(a), NodeId(b));
                }
                Op::RemoveEdge(a, b) => {
                    let _ = g.remove_edge(NodeId(a), NodeId(b));
                }
            }
        }
        check_invariants(&g);
    }

    #[test]
    fn generated_topologies_are_connected_and_simple(
        seed in 0u64..1000,
        n in 10usize..120,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graphs = vec![
            topology::barabasi_albert(n, 2, &mut rng).unwrap(),
            topology::erdos_renyi(n, 0.05, &mut rng).unwrap(),
            topology::mesh(3, n / 3 + 1, false).unwrap(),
        ];
        for g in &graphs {
            prop_assert!(g.is_connected());
            check_invariants(g);
        }
    }

    #[test]
    fn churn_preserves_invariants_and_floor(
        seed in 0u64..1000,
        leave in 0.0f64..0.3,
        join in 0.0f64..3.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = topology::ring(20).unwrap();
        let churn = ChurnProcess::new(ChurnConfig {
            leave_prob: leave,
            join_rate: join,
            min_nodes: 5,
            ..Default::default()
        })
        .unwrap();
        for _ in 0..15 {
            churn.step(&mut g, &mut rng);
            prop_assert!(g.node_count() >= 5);
            prop_assert!(g.is_connected());
        }
        check_invariants(&g);
    }

    #[test]
    fn csr_matches_btreemap_reference_after_churn_burst(
        seed in 0u64..1000,
        bursts in 1usize..6,
    ) {
        // The flat CSR arena (bulk-loaded rows, relocations,
        // swap-removes, compaction) must agree with a naive BTreeMap
        // adjacency model on degrees and neighbor *sets* after arbitrary
        // churn, and compaction must leave every row exactly as it was.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = topology::barabasi_albert(60, 2, &mut rng).unwrap();
        let churn = ChurnProcess::new(ChurnConfig {
            attach_links: 2,
            min_nodes: 10,
            ..Default::default()
        })
        .unwrap();
        use rand::Rng;
        for _ in 0..bursts {
            // Mirror a leave/join burst through both representations by
            // replaying the graph's own structural outcome into the model.
            let leaves = rng.gen_range(0..20);
            let joins = rng.gen_range(0..20);
            churn.step_batch(&mut g, leaves, joins, &mut rng);
            let mut model: BTreeMap<NodeId, BTreeSet<NodeId>> = g
                .nodes()
                .map(|v| (v, g.neighbors(v).iter().copied().collect()))
                .collect();
            // Interleave direct edge toggles, applied to BOTH structures
            // independently — this is where divergence would show.
            let ids: Vec<NodeId> = g.nodes().collect();
            for _ in 0..40 {
                let a = ids[rng.gen_range(0..ids.len())];
                let b = ids[rng.gen_range(0..ids.len())];
                if a == b {
                    continue;
                }
                if g.has_edge(a, b) {
                    prop_assert!(g.remove_edge(a, b).unwrap());
                    model.get_mut(&a).unwrap().remove(&b);
                    model.get_mut(&b).unwrap().remove(&a);
                } else {
                    prop_assert!(g.add_edge(a, b).unwrap());
                    model.get_mut(&a).unwrap().insert(b);
                    model.get_mut(&b).unwrap().insert(a);
                }
            }
            // Compare: same live nodes, same degrees, same neighbor sets.
            let live: Vec<NodeId> = g.nodes().collect();
            prop_assert_eq!(live.len(), model.len());
            let mut edge_total = 0usize;
            for &v in &live {
                let reference = &model[&v];
                prop_assert_eq!(g.degree(v), reference.len(), "degree of {}", v);
                let actual: BTreeSet<NodeId> = g.neighbors(v).iter().copied().collect();
                prop_assert_eq!(actual.len(), g.degree(v), "parallel edge in row {}", v);
                prop_assert_eq!(&actual, reference, "neighbor set of {}", v);
                edge_total += reference.len();
            }
            prop_assert_eq!(edge_total, 2 * g.edge_count());
            // Forced compaction: rows keep their exact order, the arena
            // holds no garbage, and the bytes only shrink.
            let rows: Vec<Vec<NodeId>> = live.iter().map(|&v| g.neighbors(v).to_vec()).collect();
            let before = g.heap_bytes();
            g.compact();
            prop_assert!(g.heap_bytes() <= before);
            for (&v, row) in live.iter().zip(&rows) {
                prop_assert_eq!(g.neighbors(v), &row[..], "row {} after compaction", v);
                let (start, slots) = g.arena_row(v);
                prop_assert_eq!(slots, &row[..]);
                prop_assert!(start + slots.len() <= 2 * g.edge_count());
            }
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_step(seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = topology::barabasi_albert(40, 2, &mut rng).unwrap();
        let source = g.nodes().next().unwrap();
        let dist: std::collections::HashMap<NodeId, u32> =
            g.bfs_distances(source).unwrap().into_iter().collect();
        // Every node reached (connected), and adjacent nodes differ by ≤ 1.
        prop_assert_eq!(dist.len(), g.node_count());
        for v in g.nodes() {
            for &nb in g.neighbors(v) {
                let dv = dist[&v] as i64;
                let dn = dist[&nb] as i64;
                prop_assert!((dv - dn).abs() <= 1, "BFS not 1-Lipschitz over edges");
            }
        }
    }
}
