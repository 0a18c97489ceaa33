//! Node churn: the dynamic membership of `V`.
//!
//! Paper §II: "As nodes autonomously join and leave the network, the
//! member-set of `V`, and accordingly, that of `E` vary in time." The
//! evaluation contrasts a near-static network (weather stations) with a
//! churn-heavy one (SETI@home). This module provides a per-tick churn
//! process: every live node leaves with a configured probability, and a
//! configured expected number of new nodes join, attaching either
//! uniformly or preferentially (the latter preserves the power-law shape
//! under sustained churn).
//!
//! After processing leaves, the process optionally repairs partitions by
//! stitching stray components back to the giant component — modelling the
//! overlay's bootstrap/rejoin machinery, and preserving the paper's
//! standing assumption that the graph sampled by a walk is connected.

use crate::error::NetError;
use crate::graph::{Graph, NodeId};
use crate::Result;
use digest_telemetry::{registry as telemetry, Field};
use rand::Rng;

/// Configuration of the churn process.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Per-node, per-tick probability of leaving the network.
    pub leave_prob: f64,
    /// Expected number of joins per tick (fractional rates are realised
    /// by Bernoulli rounding).
    pub join_rate: f64,
    /// Number of links a joining node establishes (capped by the current
    /// network size).
    pub attach_links: usize,
    /// Attach preferentially by degree (true) or uniformly (false).
    pub preferential: bool,
    /// Never let leaves shrink the network below this size.
    pub min_nodes: usize,
    /// Re-connect stray components after leaves.
    pub repair_partitions: bool,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            leave_prob: 0.0,
            join_rate: 0.0,
            attach_links: 2,
            preferential: true,
            min_nodes: 3,
            repair_partitions: true,
        }
    }
}

/// One membership change produced by a churn step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new node joined the overlay.
    Joined(NodeId),
    /// An existing node left (its tuples are gone with it).
    Left(NodeId),
}

/// The churn process. Stateless apart from its configuration; determinism
/// comes from the caller's RNG.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    config: ChurnConfig,
}

impl ChurnProcess {
    /// Creates a churn process.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidTopology`] if `leave_prob ∉ [0, 1]`,
    /// `join_rate < 0`, or `attach_links == 0`.
    pub fn new(config: ChurnConfig) -> Result<Self> {
        if !(0.0..=1.0).contains(&config.leave_prob) {
            return Err(NetError::InvalidTopology {
                reason: "leave_prob must be in [0, 1]",
            });
        }
        if config.join_rate.is_nan() || config.join_rate < 0.0 || !config.join_rate.is_finite() {
            return Err(NetError::InvalidTopology {
                reason: "join_rate must be non-negative",
            });
        }
        if config.attach_links == 0 {
            return Err(NetError::InvalidTopology {
                reason: "attach_links must be positive",
            });
        }
        Ok(Self { config })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Advances the churn process one tick, mutating the graph and
    /// returning the membership events in application order.
    pub fn step<R: Rng + ?Sized>(&self, g: &mut Graph, rng: &mut R) -> Vec<ChurnEvent> {
        let mut events = Vec::new();
        let cfg = &self.config;

        // Leaves.
        if cfg.leave_prob > 0.0 {
            let candidates: Vec<NodeId> = g.nodes().collect();
            for id in candidates {
                if g.node_count() <= cfg.min_nodes {
                    break;
                }
                if rng.gen_bool(cfg.leave_prob) && g.remove_node(id).is_ok() {
                    events.push(ChurnEvent::Left(id));
                }
            }
        }

        // Joins. The clamp keeps the float-to-int cast in-range (join
        // rates are small; 1e9 is far beyond any usable overlay size).
        #[allow(clippy::cast_possible_truncation)]
        let mut joins = cfg.join_rate.floor().clamp(0.0, 1e9) as usize;
        let frac = cfg.join_rate - joins as f64;
        if frac > 0.0 && rng.gen_bool(frac) {
            joins += 1;
        }
        for _ in 0..joins {
            self.join(g, rng, &mut events);
        }

        if cfg.repair_partitions {
            repair(g, rng);
        }
        record(&events);
        events
    }

    /// Applies a churn *batch* of exactly `leaves` departures and `joins`
    /// arrivals — the event-driven entry point for million-node
    /// overlays. Where [`ChurnProcess::step`] scans every node per tick
    /// (O(N), fine at 10³–10⁴), the event loop pre-draws how many leave
    /// and join events are due and this method applies exactly that
    /// many: cost is O(due events), never O(N).
    ///
    /// Leaves pick uniform random live nodes (respecting `min_nodes`);
    /// joins attach `attach_links` edges each, preferentially by degree
    /// or uniformly per the config, exactly as in [`ChurnProcess::step`].
    /// Partition repair is intentionally *not* run here: at 10⁶ nodes a
    /// per-batch BFS would dwarf the batch itself, and walks restart
    /// from live origins, so stray components only bias (never wedge)
    /// an estimate.
    pub fn step_batch<R: Rng + ?Sized>(
        &self,
        g: &mut Graph,
        leaves: usize,
        joins: usize,
        rng: &mut R,
    ) -> Vec<ChurnEvent> {
        let mut events = Vec::with_capacity(leaves + joins);
        for _ in 0..leaves {
            if g.node_count() <= self.config.min_nodes {
                break;
            }
            let Ok(id) = g.random_node(rng) else {
                break;
            };
            if g.remove_node(id).is_ok() {
                events.push(ChurnEvent::Left(id));
            }
        }
        for _ in 0..joins {
            self.join(g, rng, &mut events);
        }
        record(&events);
        events
    }

    /// Adds one node and attaches its links.
    fn join<R: Rng + ?Sized>(&self, g: &mut Graph, rng: &mut R, events: &mut Vec<ChurnEvent>) {
        let new = g.add_node();
        events.push(ChurnEvent::Joined(new));
        let links = self.config.attach_links.min(g.node_count() - 1);
        let mut attached = 0usize;
        let mut attempts = 0usize;
        while attached < links && attempts < 20 * links + 20 {
            attempts += 1;
            let Some(target) = self.pick_target(g, new, rng) else {
                break;
            };
            if let Ok(true) = g.add_edge(new, target) {
                attached += 1;
            }
        }
    }

    /// Picks an attachment target: uniform, or degree-biased by choosing a
    /// random endpoint of a random node's adjacency (one step of the
    /// "random neighbor" trick approximates degree-proportional choice).
    fn pick_target<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        exclude: NodeId,
        rng: &mut R,
    ) -> Option<NodeId> {
        for _ in 0..32 {
            let v = g.random_node(rng).ok()?;
            if self.config.preferential {
                let nbs = g.neighbors(v);
                if !nbs.is_empty() {
                    let t = nbs[rng.gen_range(0..nbs.len())];
                    if t != exclude {
                        return Some(t);
                    }
                    continue;
                }
            }
            if v != exclude {
                return Some(v);
            }
        }
        None
    }
}

/// Counts a step's membership changes into the churn counters and
/// emits its `net.churn` event.
fn record(events: &[ChurnEvent]) {
    let joined = events
        .iter()
        .filter(|e| matches!(e, ChurnEvent::Joined(_)))
        .count() as u64;
    let left = events.len() as u64 - joined;
    telemetry::NET_CHURN_JOINS.add(joined);
    telemetry::NET_CHURN_LEAVES.add(left);
    if !events.is_empty() && digest_telemetry::events_enabled() {
        digest_telemetry::emit(
            "net.churn",
            &[("joins", Field::U64(joined)), ("leaves", Field::U64(left))],
        );
    }
}

/// Stitches every stray component back to the giant component with a
/// single random edge.
fn repair<R: Rng + ?Sized>(g: &mut Graph, rng: &mut R) {
    loop {
        let giant = g.largest_component();
        if giant.len() == g.node_count() || giant.is_empty() {
            return;
        }
        let in_giant: std::collections::BTreeSet<NodeId> = giant.iter().copied().collect();
        let Some(stray) = g.nodes().find(|id| !in_giant.contains(id)) else {
            return;
        };
        let anchor = giant[rng.gen_range(0..giant.len())];
        let _ = g.add_edge(stray, anchor);
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;
    use crate::topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn validates_config() {
        assert!(ChurnProcess::new(ChurnConfig {
            leave_prob: -0.1,
            ..Default::default()
        })
        .is_err());
        assert!(ChurnProcess::new(ChurnConfig {
            leave_prob: 1.1,
            ..Default::default()
        })
        .is_err());
        assert!(ChurnProcess::new(ChurnConfig {
            join_rate: -1.0,
            ..Default::default()
        })
        .is_err());
        assert!(ChurnProcess::new(ChurnConfig {
            attach_links: 0,
            ..Default::default()
        })
        .is_err());
        assert!(ChurnProcess::new(ChurnConfig::default()).is_ok());
    }

    #[test]
    fn zero_churn_is_identity() {
        let mut g = topology::ring(10).unwrap();
        let p = ChurnProcess::new(ChurnConfig::default()).unwrap();
        let events = p.step(&mut g, &mut rng(1));
        assert!(events.is_empty());
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn joins_grow_the_network() {
        let mut g = topology::ring(10).unwrap();
        let p = ChurnProcess::new(ChurnConfig {
            join_rate: 3.0,
            ..Default::default()
        })
        .unwrap();
        let events = p.step(&mut g, &mut rng(2));
        let joined = events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Joined(_)))
            .count();
        assert_eq!(joined, 3);
        assert_eq!(g.node_count(), 13);
        assert!(g.is_connected());
        // Each joiner got its links.
        for e in &events {
            if let ChurnEvent::Joined(id) = e {
                assert!(g.degree(*id) >= 1);
            }
        }
    }

    #[test]
    fn leaves_shrink_but_respect_floor() {
        let mut g = topology::complete(10).unwrap();
        let p = ChurnProcess::new(ChurnConfig {
            leave_prob: 1.0,
            min_nodes: 4,
            ..Default::default()
        })
        .unwrap();
        let events = p.step(&mut g, &mut rng(3));
        assert_eq!(g.node_count(), 4);
        let left = events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Left(_)))
            .count();
        assert_eq!(left, 6);
    }

    #[test]
    fn repair_keeps_graph_connected_under_heavy_churn() {
        let mut g = topology::barabasi_albert(100, 2, &mut rng(4)).unwrap();
        let p = ChurnProcess::new(ChurnConfig {
            leave_prob: 0.2,
            join_rate: 15.0,
            attach_links: 2,
            ..Default::default()
        })
        .unwrap();
        let mut r = rng(5);
        for _ in 0..30 {
            p.step(&mut g, &mut r);
            assert!(g.is_connected(), "churn broke connectivity");
            assert!(g.node_count() >= 4);
        }
    }

    #[test]
    fn fractional_join_rate_averages_out() {
        let p = ChurnProcess::new(ChurnConfig {
            join_rate: 0.5,
            ..Default::default()
        })
        .unwrap();
        let mut r = rng(6);
        let mut total = 0usize;
        let trials = 1000;
        for _ in 0..trials {
            let mut g = topology::ring(5).unwrap();
            total += p
                .step(&mut g, &mut r)
                .iter()
                .filter(|e| matches!(e, ChurnEvent::Joined(_)))
                .count();
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 0.5).abs() < 0.07, "mean joins = {mean}");
    }

    #[test]
    fn preferential_attachment_favours_hubs() {
        // Star graph: the hub has degree n−1. Preferential joiners should
        // attach to the hub far more often than 1/n of the time.
        let p = ChurnProcess::new(ChurnConfig {
            join_rate: 1.0,
            attach_links: 1,
            preferential: true,
            ..Default::default()
        })
        .unwrap();
        let mut r = rng(7);
        let mut hub_hits = 0usize;
        let trials = 300;
        for _ in 0..trials {
            let mut g = topology::star(20).unwrap();
            let events = p.step(&mut g, &mut r);
            let joined = events
                .iter()
                .find_map(|e| match e {
                    ChurnEvent::Joined(id) => Some(*id),
                    ChurnEvent::Left(_) => None,
                })
                .unwrap();
            if g.neighbors(joined).contains(&NodeId(0)) {
                hub_hits += 1;
            }
        }
        // Uniform attachment would hit the hub ~5% of the time.
        assert!(
            hub_hits as f64 / trials as f64 > 0.4,
            "hub hits = {hub_hits}/{trials}"
        );
    }

    #[test]
    fn batch_applies_exact_counts_and_floor() {
        let mut g = topology::barabasi_albert(200, 2, &mut rng(11)).unwrap();
        let p = ChurnProcess::new(ChurnConfig {
            attach_links: 2,
            min_nodes: 150,
            ..Default::default()
        })
        .unwrap();
        let mut r = rng(12);
        let count = |events: &[ChurnEvent]| {
            let joined = events
                .iter()
                .filter(|e| matches!(e, ChurnEvent::Joined(_)))
                .count();
            (joined, events.len() - joined)
        };
        let events = p.step_batch(&mut g, 30, 10, &mut r);
        assert_eq!(count(&events), (10, 30));
        assert_eq!(g.node_count(), 180);
        // Floor: asking for more leaves than the floor allows stops there.
        let events = p.step_batch(&mut g, 10_000, 0, &mut r);
        assert_eq!(count(&events), (0, 30));
        assert_eq!(g.node_count(), 150);
        // Joiners got links and the structure stays simple/symmetric.
        for v in g.nodes() {
            for &nb in g.neighbors(v) {
                assert!(g.contains(nb));
                assert!(g.neighbors(nb).contains(&v));
                assert_ne!(nb, v);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ChurnConfig {
            leave_prob: 0.1,
            join_rate: 2.0,
            ..Default::default()
        };
        let p = ChurnProcess::new(cfg).unwrap();
        let run = |seed| {
            let mut g = topology::ring(20).unwrap();
            let mut r = rng(seed);
            let mut log = Vec::new();
            for _ in 0..10 {
                log.extend(p.step(&mut g, &mut r));
            }
            (log, g.node_count())
        };
        assert_eq!(run(9), run(9));
    }
}
