//! Link failures and rerouting.
//!
//! A PCB or its uplink can fail (§8's fault-tolerance concern extends to
//! the fabric). [`FailureAwareRouting`] computes routes around a failed
//! link set, and `FlowNet::fail_link` reroutes live traffic, reporting the
//! flows that became unreachable.

use std::collections::VecDeque;

use socc_sim::hash::IdMap;

use crate::topology::{LinkId, NodeId, Topology};

/// Routing that avoids a set of failed links.
#[derive(Debug, Clone, Default)]
pub struct FailureAwareRouting {
    /// Bit `l % 64` of word `l / 64` is set while link `l` is failed.
    failed: Vec<u64>,
    /// Adjacency cached by [`attach`](Self::attach): outgoing
    /// `(neighbor, link)` pairs per node, in link-id order (the same order
    /// the uncached path visits neighbors in). Failed links stay in the
    /// cache and are filtered during traversal, so fail/repair never
    /// invalidates it.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    /// Link count of the attached topology; guards against using the
    /// cache with a topology it was not built from.
    cached_links: usize,
    /// Scratch of [`reaches`](Self::reaches): a node is visited in the
    /// current search when its stamp equals `epoch`, so a search starts
    /// by bumping `epoch` instead of clearing anything.
    visited: Vec<u32>,
    epoch: u32,
    /// Scratch of [`reaches`](Self::reaches): the search's FIFO, read
    /// from a moving head.
    frontier: Vec<NodeId>,
}

impl FailureAwareRouting {
    /// Creates routing state with no failures.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the adjacency cache for `topo`, so subsequent
    /// [`route`](Self::route) calls on the same topology skip the
    /// per-call adjacency rebuild. Attaching a different topology
    /// replaces the cache.
    pub fn attach(&mut self, topo: &Topology) {
        self.adjacency.clear();
        self.adjacency.resize(topo.node_count(), Vec::new());
        for i in 0..topo.link_count() as u32 {
            let id = LinkId(i);
            let l = topo.link(id);
            self.adjacency[l.src.0 as usize].push((l.dst, id));
        }
        self.cached_links = topo.link_count();
        self.visited.clear();
        self.visited.resize(topo.node_count(), 0);
        self.epoch = 0;
        self.frontier = Vec::with_capacity(topo.node_count());
        self.failed.resize(topo.link_count().div_ceil(64), 0);
    }

    fn cache_matches(&self, topo: &Topology) -> bool {
        !self.adjacency.is_empty()
            && self.adjacency.len() == topo.node_count()
            && self.cached_links == topo.link_count()
    }

    /// Marks a link failed. Returns `true` if it was previously healthy.
    pub fn fail(&mut self, link: LinkId) -> bool {
        let (word, bit) = (link.0 as usize / 64, 1u64 << (link.0 % 64));
        if word >= self.failed.len() {
            self.failed.resize(word + 1, 0);
        }
        let was_healthy = self.failed[word] & bit == 0;
        self.failed[word] |= bit;
        was_healthy
    }

    /// Restores a link. Returns `true` if it was failed.
    pub fn repair(&mut self, link: LinkId) -> bool {
        let was_failed = !self.usable(link);
        if was_failed {
            self.failed[link.0 as usize / 64] &= !(1u64 << (link.0 % 64));
        }
        was_failed
    }

    /// Currently failed links, ascending.
    pub fn failed(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.failed.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| LinkId((w * 64 + b) as u32))
        })
    }

    /// Returns `true` if the link is usable.
    pub fn usable(&self, link: LinkId) -> bool {
        is_usable(&self.failed, link)
    }

    /// Whether [`route`](Self::route) would find a path from `src` to
    /// `dst`: the same breadth-first search over the attached adjacency,
    /// in the same visit order, without recording the path. Visited marks
    /// are stamps kept between calls, so a query allocates nothing once
    /// its buffers have grown. Without an attached topology it asks
    /// [`route`](Self::route).
    pub fn reaches(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> bool {
        if src == dst {
            return true;
        }
        if !self.cache_matches(topo) {
            return self.route(topo, src, dst).is_some();
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.visited[src.0 as usize] = epoch;
        self.frontier.clear();
        self.frontier.push(src);
        let mut head = 0;
        while let Some(&n) = self.frontier.get(head) {
            head += 1;
            for &(next, link) in &self.adjacency[n.0 as usize] {
                if !is_usable(&self.failed, link) || self.visited[next.0 as usize] == epoch {
                    continue;
                }
                if next == dst {
                    return true;
                }
                self.visited[next.0 as usize] = epoch;
                self.frontier.push(next);
            }
        }
        false
    }

    /// BFS route avoiding failed links, or `None` if disconnected.
    ///
    /// With an [`attach`](Self::attach)ed topology the cached adjacency is
    /// used (failed links filtered during traversal — same visit order as
    /// the rebuild path, so routes are identical); otherwise adjacency is
    /// rebuilt from the link table per call.
    pub fn route(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let rebuilt;
        let adjacency: &[Vec<(NodeId, LinkId)>] = if self.cache_matches(topo) {
            &self.adjacency
        } else {
            // Rebuild adjacency lazily from the link table. Per-node
            // neighbor order is link-id order, matching the cache.
            let mut a = vec![Vec::new(); topo.node_count()];
            for i in 0..topo.link_count() as u32 {
                let id = LinkId(i);
                let l = topo.link(id);
                a[l.src.0 as usize].push((l.dst, id));
            }
            rebuilt = a;
            &rebuilt
        };
        let mut prev: IdMap<NodeId, (NodeId, LinkId)> = IdMap::default();
        let mut queue = VecDeque::from([src]);
        while let Some(n) = queue.pop_front() {
            for &(next, link) in &adjacency[n.0 as usize] {
                if !self.usable(link) {
                    continue;
                }
                if next != src && !prev.contains_key(&next) {
                    prev.insert(next, (n, link));
                    if next == dst {
                        let mut path = Vec::new();
                        let mut cur = dst;
                        while cur != src {
                            let (p, l) = prev[&cur];
                            path.push(l);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }
}

/// [`FailureAwareRouting::usable`] on the bitset alone, for loops that
/// hold other fields of the routing state.
fn is_usable(failed: &[u64], link: LinkId) -> bool {
    failed
        .get(link.0 as usize / 64)
        .is_none_or(|word| word & (1u64 << (link.0 % 64)) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeKind;
    use socc_sim::units::DataRate;

    fn diamond() -> (Topology, NodeId, NodeId, LinkId, LinkId) {
        // a → b → d and a → c → d: two disjoint paths.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Host);
        let b = topo.add_node(NodeKind::Host);
        let c = topo.add_node(NodeKind::Host);
        let d = topo.add_node(NodeKind::Host);
        let ab = topo.add_link(a, b, DataRate::gbps(1.0));
        topo.add_link(b, d, DataRate::gbps(1.0));
        let ac = topo.add_link(a, c, DataRate::gbps(1.0));
        topo.add_link(c, d, DataRate::gbps(1.0));
        (topo, a, d, ab, ac)
    }

    #[test]
    fn reroutes_around_single_failure() {
        let (topo, a, d, ab, _) = diamond();
        let mut routing = FailureAwareRouting::new();
        let before = routing.route(&topo, a, d).unwrap();
        assert!(before.contains(&ab), "BFS takes the first path");
        routing.fail(ab);
        let after = routing.route(&topo, a, d).unwrap();
        assert!(!after.contains(&ab));
        assert_eq!(after.len(), 2);
    }

    #[test]
    fn double_failure_disconnects() {
        let (topo, a, d, ab, ac) = diamond();
        let mut routing = FailureAwareRouting::new();
        routing.fail(ab);
        routing.fail(ac);
        assert_eq!(routing.route(&topo, a, d), None);
        let reached = (0..topo.node_count() as u32)
            .filter(|&n| routing.reaches(&topo, a, NodeId(n)))
            .count();
        assert_eq!(reached, 1, "only the source itself");
    }

    #[test]
    fn repair_restores_routing() {
        let (topo, a, d, ab, ac) = diamond();
        let mut routing = FailureAwareRouting::new();
        routing.fail(ab);
        routing.fail(ac);
        assert!(routing.repair(ab));
        assert!(routing.route(&topo, a, d).is_some());
        assert!(!routing.repair(ab), "already repaired");
    }

    #[test]
    fn fail_repair_round_trip_re_derives_the_identical_path() {
        // BFS visit order is fixed by link-id order, so a repaired link
        // yields byte-identical routes — the property `FlowNet`'s route
        // cache relies on to hand back the same interned ids after a
        // partition heals.
        let (topo, a, d, ab, _) = diamond();
        let mut routing = FailureAwareRouting::new();
        routing.attach(&topo);
        let before = routing.route(&topo, a, d).unwrap();
        routing.fail(ab);
        let detour = routing.route(&topo, a, d).unwrap();
        assert_ne!(before, detour);
        routing.repair(ab);
        let after = routing.route(&topo, a, d).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn pcb_uplink_failure_strands_five_socs() {
        // Killing PCB 0's uplink pair cuts SoCs 0..5 off the ESB but they
        // can still reach each other through the PCB switch.
        let fabric = Topology::soc_cluster(60);
        let mut routing = FailureAwareRouting::new();
        // The PCB↔ESB duplex pair for PCB 0: find links touching pcb0+esb.
        for i in 0..fabric.topology.link_count() as u32 {
            let l = fabric.topology.link(LinkId(i));
            if (l.src == fabric.pcbs[0] && l.dst == fabric.esb)
                || (l.src == fabric.esb && l.dst == fabric.pcbs[0])
            {
                routing.fail(LinkId(i));
            }
        }
        // SoC 0 ↔ SoC 1 (same PCB): still routable.
        assert!(routing
            .route(&fabric.topology, fabric.socs[0], fabric.socs[1])
            .is_some());
        // SoC 0 → external: dead.
        assert_eq!(
            routing.route(&fabric.topology, fabric.socs[0], fabric.external),
            None
        );
        // SoC 5 (PCB 1) → external: unaffected.
        assert!(routing
            .route(&fabric.topology, fabric.socs[5], fabric.external)
            .is_some());
    }

    #[test]
    fn no_failures_matches_topology_routing() {
        let fabric = Topology::soc_cluster(20);
        let routing = FailureAwareRouting::new();
        for (src, dst) in [(0usize, 7usize), (3, 19), (11, 0)] {
            let a = routing
                .route(&fabric.topology, fabric.socs[src], fabric.socs[dst])
                .unwrap();
            let b = fabric
                .topology
                .route(fabric.socs[src], fabric.socs[dst])
                .unwrap();
            assert_eq!(a.len(), b.len());
        }
    }
}
