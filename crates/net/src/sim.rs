//! Event-driven flow network simulator.
//!
//! [`FlowNet`] tracks two kinds of traffic over a [`Topology`]:
//!
//! - **streams**: long-lived fixed-demand flows (live video feeds, gaming
//!   sessions) that occupy bandwidth for as long as they are attached;
//! - **transfers**: finite-size elastic flows (tensor exchanges, archive
//!   fetches) that complete once their bytes drain.
//!
//! Rates are recomputed with max-min fairness whenever membership changes,
//! and transfers drain at their allocated goodput between events — the
//! standard fluid flow-level model.
//!
//! # Hot-path design
//!
//! Allocation state lives in a persistent [`FairnessState`]: routes are
//! interned once (and additionally cached per `(src, dst)` pair, so repeat
//! flows skip BFS entirely), per-link state is dense, and a flow arriving
//! or leaving triggers an *incremental* waterfill update instead of a
//! from-scratch recompute. Transfers completing at the same instant are
//! removed as one batch with a single reallocation. All buffers on the
//! event path ([`advance_into`](FlowNet::advance_into),
//! [`add_stream`](FlowNet::add_stream), …) are reused, so steady-state
//! simulation performs zero heap allocations per event once caches have
//! warmed up. Only link failure/repair falls back to BFS rerouting and a
//! full recompute.

use socc_sim::hash::IdMap;
use socc_sim::time::{SimDuration, SimTime};
use socc_sim::units::{DataRate, DataSize};

use crate::failure::FailureAwareRouting;
use crate::fairness::{FairnessState, FairnessStats, FlowKey, RouteId};
use crate::tcp::TcpModel;
use crate::topology::{LinkId, NodeId, Topology};

/// Identifies a long-lived stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(u64);

/// Identifies a finite transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(u64);

/// Errors returned by [`FlowNet`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No route exists between the endpoints.
    Unreachable {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// The referenced stream/transfer does not exist.
    UnknownId,
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::Unreachable { src, dst } => {
                write!(f, "no route from node {} to node {}", src.0, dst.0)
            }
            NetError::UnknownId => write!(f, "unknown stream or transfer id"),
        }
    }
}

impl std::error::Error for NetError {}

#[derive(Debug, Clone)]
struct StreamState {
    src: NodeId,
    dst: NodeId,
    demand: DataRate,
    flow: FlowKey,
}

#[derive(Debug, Clone)]
struct TransferState {
    flow: FlowKey,
    remaining: f64, // bits
    startup_left: SimDuration,
    rate: DataRate, // current goodput
}

/// A fluid flow-level network simulator.
pub struct FlowNet {
    topology: Topology,
    tcp: TcpModel,
    now: SimTime,
    streams: IdMap<StreamId, StreamState>,
    transfers: IdMap<TransferId, TransferState>,
    next_id: u64,
    stream_order: Vec<StreamId>,
    transfer_order: Vec<TransferId>,
    routing: FailureAwareRouting,
    fairness: FairnessState,
    /// `(src, dst)` → interned route, invalidated on fail/repair. `None`
    /// caches unreachability so repeated misses stay cheap too.
    route_cache: IdMap<(u32, u32), Option<RouteId>>,
    scratch_done: Vec<TransferId>,
}

impl FlowNet {
    /// Creates a simulator over a topology with the given TCP model.
    pub fn new(topology: Topology, tcp: TcpModel) -> Self {
        let capacity: Vec<f64> = (0..topology.link_count() as u32)
            .map(|i| topology.link(LinkId(i)).capacity.as_bps())
            .collect();
        let mut routing = FailureAwareRouting::new();
        routing.attach(&topology);
        Self {
            topology,
            tcp,
            now: SimTime::ZERO,
            streams: IdMap::default(),
            transfers: IdMap::default(),
            next_id: 0,
            stream_order: Vec::new(),
            transfer_order: Vec::new(),
            routing,
            fairness: FairnessState::new(capacity),
            route_cache: IdMap::default(),
            scratch_done: Vec::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Forces every reallocation onto the full from-scratch waterfill
    /// (A/B benchmarking and differential testing; incremental is the
    /// default).
    pub fn set_force_full_recompute(&mut self, on: bool) {
        self.fairness.set_force_full(on);
    }

    /// Cumulative waterfilling work counters of the underlying allocator.
    pub fn fairness_stats(&self) -> FairnessStats {
        self.fairness.stats()
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Route between two nodes as an interned id, via the `(src, dst)`
    /// cache. BFS runs only on a cache miss.
    fn cached_route(&mut self, src: NodeId, dst: NodeId) -> Option<RouteId> {
        if let Some(&hit) = self.route_cache.get(&(src.0, dst.0)) {
            return hit;
        }
        let route = self
            .routing
            .route(&self.topology, src, dst)
            .map(|links| self.fairness.intern_route(&links));
        self.route_cache.insert((src.0, dst.0), route);
        route
    }

    /// Attaches a fixed-demand stream between two nodes.
    pub fn add_stream(
        &mut self,
        src: NodeId,
        dst: NodeId,
        demand: DataRate,
    ) -> Result<StreamId, NetError> {
        let route = self
            .cached_route(src, dst)
            .ok_or(NetError::Unreachable { src, dst })?;
        let id = StreamId(self.fresh_id());
        let flow = self.fairness.add_flow(route, Some(demand.as_bps()));
        self.streams.insert(
            id,
            StreamState {
                src,
                dst,
                demand,
                flow,
            },
        );
        self.stream_order.push(id);
        self.after_reallocation();
        Ok(id)
    }

    /// Detaches a stream.
    pub fn remove_stream(&mut self, id: StreamId) -> Result<(), NetError> {
        let state = self.streams.remove(&id).ok_or(NetError::UnknownId)?;
        self.stream_order.retain(|&s| s != id);
        self.fairness.remove_flow(state.flow);
        self.after_reallocation();
        Ok(())
    }

    /// The rate currently allocated to a stream.
    pub fn stream_rate(&self, id: StreamId) -> Result<DataRate, NetError> {
        self.streams
            .get(&id)
            .map(|s| DataRate::bps(self.fairness.rate_bps(s.flow)))
            .ok_or(NetError::UnknownId)
    }

    /// Starts a finite transfer of `size` between two nodes.
    pub fn start_transfer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size: DataSize,
    ) -> Result<TransferId, NetError> {
        let route = self
            .cached_route(src, dst)
            .ok_or(NetError::Unreachable { src, dst })?;
        let id = TransferId(self.fresh_id());
        let flow = self.fairness.add_flow(route, None);
        self.transfers.insert(
            id,
            TransferState {
                flow,
                remaining: size.as_bits(),
                startup_left: self.tcp.startup_delay(size),
                rate: DataRate::ZERO,
            },
        );
        self.transfer_order.push(id);
        self.after_reallocation();
        Ok(id)
    }

    /// Number of in-flight transfers.
    pub fn active_transfers(&self) -> usize {
        self.transfers.len()
    }

    /// Number of attached streams.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Refreshes every transfer's goodput after an allocation update.
    /// Allocation-free.
    fn after_reallocation(&mut self) {
        for t in self.transfers.values_mut() {
            t.rate = self
                .tcp
                .goodput(DataRate::bps(self.fairness.rate_bps(t.flow)));
        }
    }

    /// Time at which the next transfer completes, or `None` if no transfers
    /// are in flight (streams never complete on their own).
    pub fn next_completion(&self) -> Option<SimTime> {
        self.transfers
            .values()
            .filter_map(|t| {
                let bps = t.rate.as_bps();
                if bps <= 0.0 {
                    // Cannot complete until a reallocation raises its rate.
                    return None;
                }
                let mut drain = SimDuration::from_secs_f64(t.remaining / bps);
                if drain.is_zero() && t.remaining > 1e-6 {
                    // Sub-nanosecond residue would stall the clock (the
                    // completion instant rounds back to `now` without the
                    // transfer crossing the done threshold); round up so
                    // time always advances.
                    drain = SimDuration::from_nanos(1);
                }
                Some(self.now + t.startup_left + drain)
            })
            .min()
    }

    /// Advances the clock to `t`, draining transfers at their current
    /// rates. Returns the ids of transfers that completed, in completion
    /// order. All transfers finishing at the same instant are removed as
    /// one batch with a single reallocation.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<TransferId> {
        let mut completed = Vec::new();
        self.advance_into(t, &mut completed);
        completed
    }

    /// Allocation-free variant of [`advance_to`](Self::advance_to):
    /// completed transfer ids are appended to `completed` (which is *not*
    /// cleared), so a caller-owned buffer can be reused across events.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_into(&mut self, t: SimTime, completed: &mut Vec<TransferId>) {
        assert!(t >= self.now, "cannot advance backwards");
        while let Some(next) = self.next_completion() {
            if next > t {
                break;
            }
            let step = next.since(self.now);
            self.drain(step);
            self.now = next;
            // Collect every transfer that is now done (ties complete together).
            let mut done = std::mem::take(&mut self.scratch_done);
            done.clear();
            done.extend(
                self.transfers
                    .iter()
                    .filter(|(_, tr)| tr.remaining <= 1e-6 && tr.startup_left.is_zero())
                    .map(|(&id, _)| id),
            );
            done.sort_unstable();
            if !done.is_empty() {
                self.fairness.begin_removals();
                for id in &done {
                    let state = self.transfers.remove(id).expect("collected id exists");
                    self.fairness.defer_remove(state.flow);
                }
                self.transfer_order.retain(|x| !done.contains(x));
                self.fairness.commit_removals();
                completed.extend_from_slice(&done);
            }
            self.scratch_done = done;
            self.after_reallocation();
        }
        let step = t.saturating_since(self.now);
        if !step.is_zero() {
            self.drain(step);
            self.now = t;
        }
    }

    /// Runs until every transfer completes, returning `(finish_time, ids)`.
    pub fn run_to_idle(&mut self) -> (SimTime, Vec<TransferId>) {
        let mut completed = Vec::new();
        while let Some(next) = self.next_completion() {
            self.advance_into(next, &mut completed);
        }
        (self.now, completed)
    }

    fn drain(&mut self, dt: SimDuration) {
        for t in self.transfers.values_mut() {
            let after_startup = if t.startup_left >= dt {
                t.startup_left -= dt;
                SimDuration::ZERO
            } else {
                let left = dt - t.startup_left;
                t.startup_left = SimDuration::ZERO;
                left
            };
            t.remaining = (t.remaining - t.rate.as_bps() * after_startup.as_secs_f64()).max(0.0);
        }
    }

    /// Visits every `(link, bits/s)` of offered load in a fixed order:
    /// streams in attach order at their fair share, then transfers past
    /// their startup ramp at their goodput, in start order.
    fn for_each_load(&self, mut visit: impl FnMut(u32, f64)) {
        let streams = self.stream_order.iter().map(|id| {
            let flow = self.streams[id].flow;
            (flow, self.fairness.rate_bps(flow))
        });
        let transfers = self
            .transfer_order
            .iter()
            .map(|id| &self.transfers[id])
            .filter(|t| t.startup_left.is_zero())
            .map(|t| (t.flow, t.rate.as_bps()));
        for (flow, rate) in streams.chain(transfers) {
            for &l in self.fairness.flow_links(flow) {
                visit(l, rate);
            }
        }
    }

    /// Offered load per link in bits/s, summed from the current allocation
    /// on each call; only links with nonzero load appear. (Reporting API:
    /// the returned map allocates, [`link_utilization`](Self::link_utilization)
    /// does not.)
    pub fn link_load(&self) -> IdMap<LinkId, DataRate> {
        let mut load = vec![0.0; self.topology.link_count()];
        self.for_each_load(|l, rate| load[l as usize] += rate);
        load.iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.0)
            .map(|(l, &v)| (LinkId(l as u32), DataRate::bps(v)))
            .collect()
    }

    /// Utilization of a specific link in `[0, 1]`: its
    /// [`link_load`](Self::link_load) entry, bit for bit, divided by its
    /// capacity. Allocation-free.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        let cap = self.fairness.capacity_bps(link.0);
        if !cap.is_finite() || cap == 0.0 {
            return 0.0;
        }
        let mut load = 0.0;
        self.for_each_load(|l, rate| {
            if l == link.0 {
                load += rate;
            }
        });
        load / cap
    }

    /// Fails a link: streams crossing it are rerouted around the failure
    /// where possible; the ids of streams left with no path are removed and
    /// returned. In-flight transfers on the link are treated the same way
    /// (rerouted with their remaining bytes, or aborted and returned).
    /// Falls back to a full fairness recompute (the incremental path only
    /// covers membership churn).
    pub fn fail_link(&mut self, link: LinkId) -> FailureImpact {
        self.routing.fail(link);
        // Targeted invalidation: only cached routes crossing the failed
        // link go stale. Negative entries (`None`) stay — a failure cannot
        // create a path that did not exist.
        let fairness = &self.fairness;
        self.route_cache.retain(|_, cached| match cached {
            Some(r) => !fairness.route_links(*r).contains(&link.0),
            None => true,
        });
        let mut lost_streams = Vec::new();
        let mut lost_transfers = Vec::new();
        let stream_ids: Vec<StreamId> = self.stream_order.clone();
        for id in stream_ids {
            let s = self.streams.get(&id).expect("ordered id exists");
            if !self.fairness.flow_links(s.flow).contains(&link.0) {
                continue;
            }
            match self.routing.route(&self.topology, s.src, s.dst) {
                Some(route) => {
                    let rid = self.fairness.intern_route(&route);
                    let flow = s.flow;
                    self.fairness.set_route(flow, rid);
                }
                None => {
                    let state = self.streams.remove(&id).expect("exists");
                    self.fairness.drop_slot(state.flow);
                    self.stream_order.retain(|&x| x != id);
                    lost_streams.push(id);
                }
            }
        }
        let transfer_ids: Vec<TransferId> = self.transfer_order.clone();
        for id in transfer_ids {
            let t = self.transfers.get(&id).expect("ordered id exists");
            if t.route_uses(&self.fairness, link) {
                // Transfers do not remember endpoints; abort them (the
                // application layer retries through a healthy path).
                let state = self.transfers.remove(&id).expect("exists");
                self.fairness.drop_slot(state.flow);
                self.transfer_order.retain(|&x| x != id);
                lost_transfers.push(id);
            }
        }
        self.fairness.rebuild_full();
        self.after_reallocation();
        FailureImpact {
            lost_streams,
            lost_transfers,
        }
    }

    /// Repairs a link (new flows may use it again; existing flows keep
    /// their current routes).
    pub fn repair_link(&mut self, link: LinkId) {
        self.routing.repair(link);
        // Positive entries stay sticky: every surviving route runs over
        // healthy links (failures pruned them eagerly), and a repair only
        // adds options. Negative entries are dropped so previously
        // unreachable pairs retry BFS through the repaired link. Pairs
        // rerouted around the failure re-derive the identical pre-failure
        // path on their next miss (BFS is deterministic) and interning
        // dedups it back to the same `RouteId` — no cache churn.
        self.route_cache.retain(|_, cached| cached.is_some());
    }

    /// Maximum absolute difference in bits/s between the maintained
    /// (incrementally updated) allocation and a from-scratch
    /// [`max_min_fair`](crate::fairness::max_min_fair) reference over the
    /// streams and transfers this net holds, at the demands they were
    /// opened with. Infinite when the allocator holds a flow the net no
    /// longer does. Allocates; intended for differential tests and
    /// diagnostics.
    pub fn fairness_drift_vs_reference(&self) -> f64 {
        let streams = self.stream_order.iter().map(|id| {
            let s = &self.streams[id];
            (s.flow, Some(s.demand))
        });
        let transfers = self.transfer_order.iter();
        let transfers = transfers.map(|id| (self.transfers[id].flow, None));
        self.fairness.drift_over(streams.chain(transfers))
    }
}

impl TransferState {
    fn route_uses(&self, fairness: &FairnessState, link: LinkId) -> bool {
        fairness.flow_links(self.flow).contains(&link.0)
    }
}

/// What a link failure cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureImpact {
    /// Streams with no surviving path (removed).
    pub lost_streams: Vec<StreamId>,
    /// Transfers aborted by the failure.
    pub lost_transfers: Vec<TransferId>,
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeKind;

    fn two_node_net(gbps: f64) -> (FlowNet, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Host);
        let b = topo.add_node(NodeKind::Host);
        topo.add_duplex(a, b, DataRate::gbps(gbps));
        (FlowNet::new(topo, TcpModel::inter_soc()), a, b)
    }

    #[test]
    fn single_transfer_takes_expected_time() {
        let (mut net, a, b) = two_node_net(1.0);
        let size = DataSize::megabytes(112.875); // 903 Mbit → 1 s at goodput
        net.start_transfer(a, b, size).unwrap();
        let (finish, done) = net.run_to_idle();
        assert_eq!(done.len(), 1);
        let expected = TcpModel::inter_soc().transfer_time(size, DataRate::gbps(1.0));
        assert!(
            (finish.as_secs_f64() - expected.as_secs_f64()).abs() < 1e-6,
            "finish {finish} expected {expected}"
        );
    }

    #[test]
    fn two_transfers_share_fairly() {
        let tcp = TcpModel::inter_soc();
        let (mut net, a, b) = two_node_net(1.0);
        // Sized so one transfer alone would take ~1 s at full goodput;
        // two sharing the link finish together in ~2 s (model-relative:
        // expected time is computed from the calibrated TcpModel, not a
        // hard-coded 903 Mbps).
        let size = DataSize::bits(tcp.goodput(DataRate::gbps(1.0)).as_bps());
        net.start_transfer(a, b, size).unwrap();
        net.start_transfer(a, b, size).unwrap();
        let (finish, done) = net.run_to_idle();
        assert_eq!(done.len(), 2);
        let expected = tcp.transfer_time(size, DataRate::mbps(500.0));
        assert!(
            (finish.as_secs_f64() - expected.as_secs_f64()).abs() < 0.02,
            "finish {finish} expected {expected}"
        );
    }

    #[test]
    fn stream_reserves_bandwidth_from_transfers() {
        let tcp = TcpModel::inter_soc();
        let (mut net, a, b) = two_node_net(1.0);
        net.add_stream(a, b, DataRate::mbps(500.0)).unwrap();
        // Sized to ~1 s at the transfer's goodput over the leftover 500 Mbps.
        let size = DataSize::bits(tcp.goodput(DataRate::mbps(500.0)).as_bps());
        net.start_transfer(a, b, size).unwrap();
        let (finish, _) = net.run_to_idle();
        let expected = tcp.transfer_time(size, DataRate::mbps(500.0));
        assert!(
            (finish.as_secs_f64() - expected.as_secs_f64()).abs() < 0.05,
            "finish {finish} expected {expected}"
        );
    }

    #[test]
    fn stream_rate_respects_demand() {
        let (mut net, a, b) = two_node_net(10.0);
        let s = net.add_stream(a, b, DataRate::mbps(16.0)).unwrap();
        assert!((net.stream_rate(s).unwrap().as_mbps() - 16.0).abs() < 1e-6);
    }

    #[test]
    fn removing_stream_restores_capacity() {
        let (mut net, a, b) = two_node_net(1.0);
        let s = net.add_stream(a, b, DataRate::mbps(900.0)).unwrap();
        assert!(net.link_utilization(LinkId(0)) > 0.85);
        net.remove_stream(s).unwrap();
        assert_eq!(net.link_utilization(LinkId(0)), 0.0);
    }

    #[test]
    fn unreachable_pair_errors() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Host);
        let b = topo.add_node(NodeKind::Host);
        let mut net = FlowNet::new(topo, TcpModel::inter_soc());
        assert!(matches!(
            net.start_transfer(a, b, DataSize::bytes(1.0)),
            Err(NetError::Unreachable { .. })
        ));
    }

    #[test]
    fn unknown_ids_error() {
        let (mut net, a, b) = two_node_net(1.0);
        let s = net.add_stream(a, b, DataRate::mbps(1.0)).unwrap();
        net.remove_stream(s).unwrap();
        assert_eq!(net.remove_stream(s), Err(NetError::UnknownId));
        assert_eq!(net.stream_rate(s), Err(NetError::UnknownId));
    }

    #[test]
    fn advance_to_partial_then_complete() {
        let (mut net, a, b) = two_node_net(1.0);
        let size = DataSize::megabits(903.0); // ~1 s
        let id = net.start_transfer(a, b, size).unwrap();
        let done = net.advance_to(SimTime::from_secs_f64(0.5));
        assert!(done.is_empty());
        assert_eq!(net.active_transfers(), 1);
        let done = net.advance_to(SimTime::from_secs(5));
        assert_eq!(done, vec![id]);
        assert_eq!(net.active_transfers(), 0);
    }

    #[test]
    fn cluster_cross_pcb_transfer_bottlenecked_by_pcb_uplink() {
        let fabric = Topology::soc_cluster(10);
        let mut net = FlowNet::new(fabric.topology.clone(), TcpModel::inter_soc());
        // SoC0 (PCB0) → SoC9 (PCB1): crosses two 1 G uplinks.
        let size = DataSize::megabits(903.0);
        net.start_transfer(fabric.socs[0], fabric.socs[9], size)
            .unwrap();
        let (finish, _) = net.run_to_idle();
        assert!((finish.as_secs_f64() - 1.0).abs() < 0.05, "finish {finish}");
    }

    #[test]
    fn fail_link_reroutes_streams_with_alternatives() {
        // Diamond: a→b→d and a→c→d.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Host);
        let b = topo.add_node(NodeKind::Host);
        let c = topo.add_node(NodeKind::Host);
        let d = topo.add_node(NodeKind::Host);
        let ab = topo.add_link(a, b, DataRate::gbps(1.0));
        topo.add_link(b, d, DataRate::gbps(1.0));
        topo.add_link(a, c, DataRate::gbps(1.0));
        topo.add_link(c, d, DataRate::gbps(1.0));
        let mut net = FlowNet::new(topo, TcpModel::inter_soc());
        let s = net.add_stream(a, d, DataRate::mbps(100.0)).unwrap();
        let impact = net.fail_link(ab);
        assert!(impact.lost_streams.is_empty(), "rerouted, not lost");
        assert!((net.stream_rate(s).unwrap().as_mbps() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn fail_link_drops_stranded_streams_and_transfers() {
        let (mut net, a, b) = two_node_net(1.0);
        let s = net.add_stream(a, b, DataRate::mbps(100.0)).unwrap();
        let t = net.start_transfer(a, b, DataSize::megabytes(10.0)).unwrap();
        // The a→b direction is LinkId(0).
        let impact = net.fail_link(LinkId(0));
        assert_eq!(impact.lost_streams, vec![s]);
        assert_eq!(impact.lost_transfers, vec![t]);
        assert_eq!(net.active_streams(), 0);
        assert_eq!(net.active_transfers(), 0);
        // New flows on the failed path are refused…
        assert!(net.add_stream(a, b, DataRate::mbps(1.0)).is_err());
        // …until the link is repaired.
        net.repair_link(LinkId(0));
        assert!(net.add_stream(a, b, DataRate::mbps(1.0)).is_ok());
    }

    fn diamond_net() -> (FlowNet, NodeId, NodeId, LinkId, LinkId) {
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
        (FlowNet::new(topo, TcpModel::inter_soc()), a, d, ab, ac)
    }

    #[test]
    fn link_failure_invalidates_only_routes_crossing_it() {
        // Diamond plus an unrelated pair e→f and an isolated node.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Host);
        let b = topo.add_node(NodeKind::Host);
        let c = topo.add_node(NodeKind::Host);
        let d = topo.add_node(NodeKind::Host);
        let e = topo.add_node(NodeKind::Host);
        let f = topo.add_node(NodeKind::Host);
        let lone = topo.add_node(NodeKind::Host);
        let ab = topo.add_link(a, b, DataRate::gbps(1.0));
        topo.add_link(b, d, DataRate::gbps(1.0));
        topo.add_link(a, c, DataRate::gbps(1.0));
        topo.add_link(c, d, DataRate::gbps(1.0));
        topo.add_link(e, f, DataRate::gbps(1.0));
        let mut net = FlowNet::new(topo, TcpModel::inter_soc());
        net.add_stream(a, d, DataRate::mbps(10.0)).unwrap();
        net.add_stream(e, f, DataRate::mbps(10.0)).unwrap();
        let ef_entry = net.route_cache[&(e.0, f.0)];
        // An unreachable pair leaves a cached negative entry.
        assert!(net.add_stream(a, lone, DataRate::mbps(1.0)).is_err());
        let impact = net.fail_link(ab);
        assert!(impact.lost_streams.is_empty());
        // Only the (a, d) route crossed the failed link; the unrelated
        // positive entry and the negative entry survive untouched.
        assert!(!net.route_cache.contains_key(&(a.0, d.0)));
        assert_eq!(net.route_cache[&(e.0, f.0)], ef_entry);
        assert_eq!(net.route_cache[&(a.0, lone.0)], None);
    }

    #[test]
    fn unrelated_fail_repair_leaves_cached_routes_sticky() {
        // The cached a→d route runs a→b→d (BFS takes the first path), so
        // failing and repairing a→c must not churn it.
        let (mut net, a, d, _ab, ac) = diamond_net();
        net.add_stream(a, d, DataRate::mbps(10.0)).unwrap();
        let entry = net.route_cache[&(a.0, d.0)];
        net.fail_link(ac);
        assert_eq!(net.route_cache[&(a.0, d.0)], entry);
        net.repair_link(ac);
        assert_eq!(net.route_cache[&(a.0, d.0)], entry);
    }

    #[test]
    fn repair_after_failure_restores_the_same_interned_route_ids() {
        let (mut net, a, d, ab, _ac) = diamond_net();
        let s = net.add_stream(a, d, DataRate::mbps(10.0)).unwrap();
        let before = net.route_cache[&(a.0, d.0)].expect("routable");
        net.remove_stream(s).unwrap();
        net.fail_link(ab);
        net.repair_link(ab);
        // The next lookup re-runs BFS, finds the identical pre-failure
        // path, and interning dedups it back to the same id — downstream
        // holders of the old RouteId stay valid across the round trip.
        let s2 = net.add_stream(a, d, DataRate::mbps(10.0)).unwrap();
        let after = net.route_cache[&(a.0, d.0)].expect("routable");
        assert_eq!(before, after, "round trip must reuse the interned id");
        let flow = net.streams[&s2].flow;
        assert!(net.fairness.flow_links(flow).contains(&ab.0));
    }

    #[test]
    fn later_transfer_slows_earlier_one() {
        let (mut net, a, b) = two_node_net(1.0);
        let id1 = net.start_transfer(a, b, DataSize::megabits(903.0)).unwrap();
        // Let the first flow run alone for 0.5 s, then add a competitor.
        net.advance_to(SimTime::from_secs_f64(0.5));
        net.start_transfer(a, b, DataSize::megabits(903.0)).unwrap();
        let (_, done) = net.run_to_idle();
        // First completes first, second later; total order preserved.
        assert_eq!(done.first(), Some(&id1));
        // First flow: 0.5 s alone (≈50% done) + ~1 s shared = ~1.5 s total.
        assert!(net.now().as_secs_f64() > 1.9, "end {}", net.now());
    }
}
