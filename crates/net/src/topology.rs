//! Network topology: nodes, directed links and routing.
//!
//! The SoC Cluster fabric (§2.2, Fig. 2/3) is a two-level tree: each PCB
//! carries five SoCs and switches their traffic; the Ethernet Switch Board
//! (ESB) connects the twelve PCBs to the outside world through dual SFP+
//! ports. [`Topology::soc_cluster`] builds exactly that fabric; arbitrary
//! topologies can be built with `Topology::new`.

use socc_sim::units::DataRate;

/// Identifies a node (SoC, switch, external host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Identifies a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Role of a node in the fabric (used for reporting and capacity analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// A compute SoC.
    Soc,
    /// A PCB carrier board acting as a switch for its five SoCs.
    PcbSwitch,
    /// The Ethernet Switch Board.
    Esb,
    /// The world outside the server.
    External,
    /// Any other host (the tests' hand-built topologies).
    #[cfg(test)]
    Host,
}

/// A directed link with a fixed capacity.
#[derive(Debug, Clone)]
pub struct Link {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Capacity of this direction.
    pub(crate) capacity: DataRate,
}

/// A static network topology with BFS routing.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    links: Vec<Link>,
    /// Outgoing `(neighbor, link)` pairs of each node, indexed by node id,
    /// in link-id order.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Creates an empty topology.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a node of the given kind and returns its id.
    pub(crate) fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds a directed link and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub(crate) fn add_link(&mut self, src: NodeId, dst: NodeId, capacity: DataRate) -> LinkId {
        assert!((src.0 as usize) < self.nodes.len(), "unknown src node");
        assert!((dst.0 as usize) < self.nodes.len(), "unknown dst node");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { src, dst, capacity });
        self.adjacency[src.0 as usize].push((dst, id));
        id
    }

    /// Adds a full-duplex link pair and returns `(forward, reverse)` ids.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, capacity: DataRate) -> (LinkId, LinkId) {
        (self.add_link(a, b, capacity), self.add_link(b, a, capacity))
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The kind of a node.
    #[cfg(test)]
    pub(crate) fn node_kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.0 as usize]
    }

    /// The link record for an id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Shortest path (fewest hops) from `src` to `dst` as a list of link
    /// ids, or `None` if unreachable. Deterministic: neighbors are explored
    /// in insertion order.
    #[cfg(test)]
    pub(crate) fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        use socc_sim::hash::IdMap;
        use std::collections::VecDeque;
        if src == dst {
            return Some(Vec::new());
        }
        let mut prev: IdMap<NodeId, (NodeId, LinkId)> = IdMap::default();
        let mut queue = VecDeque::from([src]);
        while let Some(n) = queue.pop_front() {
            if let Some(neighbors) = self.adjacency.get(n.0 as usize) {
                for &(next, link) in neighbors {
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
        }
        None
    }
}

/// The SoC Cluster fabric with handles to its notable nodes.
#[derive(Debug, Clone)]
pub struct ClusterFabric {
    /// The topology itself.
    pub topology: Topology,
    /// The 60 SoC nodes, index = SoC slot.
    pub socs: Vec<NodeId>,
    /// The 12 PCB switch nodes, index = PCB slot.
    pub pcbs: Vec<NodeId>,
    /// The Ethernet Switch Board.
    pub esb: NodeId,
    /// The external world.
    pub external: NodeId,
}

impl ClusterFabric {
    /// The PCB that carries a SoC slot.
    #[cfg(test)]
    pub(crate) fn pcb_of_soc(&self, soc_index: usize) -> usize {
        soc_index / socc_hw::calib::SOCS_PER_PCB
    }

    /// Both directions of a PCB's uplink to the ESB. Failing this pair
    /// severs the whole board's path to the fabric while every SoC's own
    /// access link stays up — the board-level blast radius of the
    /// failure-domain model.
    pub fn uplinks_of_pcb(&self, pcb: usize) -> [LinkId; 2] {
        let node = self.pcbs[pcb];
        let mut pair = (0..self.topology.link_count() as u32)
            .map(LinkId)
            .filter(|&id| {
                let link = self.topology.link(id);
                (link.src == node && link.dst == self.esb)
                    || (link.src == self.esb && link.dst == node)
            });
        let mut next = || pair.next().expect("a PCB uplink is one duplex pair");
        [next(), next()]
    }
}

impl Topology {
    /// Builds the SoC Cluster fabric (§2.2): `socs` SoCs grouped five per
    /// PCB, 1 GbE from each SoC to its PCB, a 1 GbE uplink from each PCB to
    /// the ESB, and a 20 Gbps ESB↔external trunk.
    pub fn soc_cluster(soc_count: usize) -> ClusterFabric {
        let mut topo = Topology::new();
        let per_pcb = socc_hw::calib::SOCS_PER_PCB;
        let pcb_count = soc_count.div_ceil(per_pcb);
        let esb = topo.add_node(NodeKind::Esb);
        let external = topo.add_node(NodeKind::External);
        topo.add_duplex(
            esb,
            external,
            DataRate::bps(socc_hw::calib::ESB_CAPACITY_BPS),
        );
        let mut pcbs = Vec::with_capacity(pcb_count);
        for _ in 0..pcb_count {
            let pcb = topo.add_node(NodeKind::PcbSwitch);
            topo.add_duplex(pcb, esb, DataRate::bps(socc_hw::calib::PCB_UPLINK_BPS));
            pcbs.push(pcb);
        }
        let mut socs = Vec::with_capacity(soc_count);
        for i in 0..soc_count {
            let soc = topo.add_node(NodeKind::Soc);
            topo.add_duplex(soc, pcbs[i / per_pcb], DataRate::bps(1.0e9));
            socs.push(soc);
        }
        ClusterFabric {
            topology: topo,
            socs,
            pcbs,
            esb,
            external,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_fabric_shape() {
        let fabric = Topology::soc_cluster(60);
        assert_eq!(fabric.socs.len(), 60);
        assert_eq!(fabric.pcbs.len(), 12);
        // 1 ESB + 1 external + 12 PCBs + 60 SoCs.
        assert_eq!(fabric.topology.node_count(), 74);
        // Duplex links: 1 trunk + 12 uplinks + 60 SoC links = 73 pairs.
        assert_eq!(fabric.topology.link_count(), 146);
    }

    #[test]
    fn same_pcb_route_stays_local() {
        let fabric = Topology::soc_cluster(60);
        let route = fabric
            .topology
            .route(fabric.socs[0], fabric.socs[1])
            .unwrap();
        // SoC0 -> PCB0 -> SoC1: two hops, never touching the ESB.
        assert_eq!(route.len(), 2);
        for link in &route {
            let l = fabric.topology.link(*link);
            assert_ne!(fabric.topology.node_kind(l.src), NodeKind::Esb);
        }
    }

    #[test]
    fn cross_pcb_route_goes_through_esb() {
        let fabric = Topology::soc_cluster(60);
        // SoC0 (PCB0) to SoC59 (PCB11): SoC->PCB->ESB->PCB->SoC = 4 hops.
        let route = fabric
            .topology
            .route(fabric.socs[0], fabric.socs[59])
            .unwrap();
        assert_eq!(route.len(), 4);
    }

    #[test]
    fn soc_to_external_route() {
        let fabric = Topology::soc_cluster(60);
        // SoC -> PCB -> ESB -> external = 3 hops.
        let route = fabric
            .topology
            .route(fabric.socs[7], fabric.external)
            .unwrap();
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn route_to_self_is_empty() {
        let fabric = Topology::soc_cluster(5);
        assert_eq!(
            fabric.topology.route(fabric.socs[0], fabric.socs[0]),
            Some(vec![])
        );
    }

    #[test]
    fn unreachable_returns_none() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Host);
        let b = topo.add_node(NodeKind::Host);
        assert_eq!(topo.route(a, b), None);
    }

    #[test]
    fn pcb_of_soc_mapping() {
        let fabric = Topology::soc_cluster(60);
        assert_eq!(fabric.pcb_of_soc(0), 0);
        assert_eq!(fabric.pcb_of_soc(4), 0);
        assert_eq!(fabric.pcb_of_soc(5), 1);
        assert_eq!(fabric.pcb_of_soc(59), 11);
    }

    #[test]
    fn uplinks_of_pcb_are_the_esb_duplex_pair() {
        let fabric = Topology::soc_cluster(60);
        for pcb in 0..12 {
            let links = fabric.uplinks_of_pcb(pcb);
            assert_eq!(links.len(), 2, "one duplex pair per PCB uplink");
            for id in links {
                let l = fabric.topology.link(id);
                assert!(l.src == fabric.esb || l.dst == fabric.esb);
                assert!(l.src == fabric.pcbs[pcb] || l.dst == fabric.pcbs[pcb]);
            }
        }
    }
}
