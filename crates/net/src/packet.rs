//! Packet-level simulation of the PCB/ESB fabric (opt-in fidelity mode).
//!
//! [`PacketNet`] is the high-resolution counterpart of the fluid
//! [`FlowNet`](crate::sim::FlowNet). Packets of one MSS move
//! store-and-forward through per-port output queues; each port keeps one
//! FIFO lane per flow and serves the lanes round-robin (deficit round
//! robin degenerates to plain round robin because every data packet is
//! MSS-sized), all lanes drawing from one shared finite buffer with
//! tail-drop and drop accounting. Senders run a TCP/DCTCP-ish loop: slow
//! start, additive increase, ECN marking past a queue threshold, and a
//! once-per-RTT multiplicative decrease on marks or losses.
//!
//! Flow-level stays the default fast path. This engine exists so the flow
//! model can be *falsified and calibrated*: per-port fair queueing plus
//! window backpressure converges to the same max-min allocation the
//! waterfiller computes (plain FIFO + AIMD would drift toward
//! proportional fairness on multi-bottleneck paths), and the payload
//! fraction that survives headers and the AIMD sawtooth is measured by
//! [`run_goodput_calibration`] — anchored against the paper's ~903 Mbps
//! on the 1 GbE inter-SoC path (§2.3) — instead of hard-coding the flow
//! model's goodput factor. `socc-bench`'s `netvalidate` module drives the
//! cross-validation.

use std::collections::VecDeque;
use std::sync::OnceLock;

use socc_sim::event::EventQueue;
use socc_sim::hash::IdMap;
use socc_sim::span::{EventKind, EventLog, Scope};
use socc_sim::time::{SimDuration, SimTime};
use socc_sim::units::{DataRate, DataSize};

use crate::failure::FailureAwareRouting;
use crate::sim::NetError;
use crate::topology::{LinkId, NodeId, NodeKind, Topology};

/// Engine knobs. Counts are in packets unless stated otherwise.
#[derive(Debug, Clone, Copy)]
pub struct PacketConfig {
    /// TCP payload carried per packet (bytes).
    pub(crate) mss_bytes: u32,
    /// Bytes one packet occupies on the wire: payload plus TCP/IP headers
    /// with timestamps plus Ethernet framing and gaps.
    pub(crate) wire_bytes: u32,
    /// Shared output buffer per port; arrivals beyond this tail-drop.
    pub(crate) port_buffer_packets: u32,
    /// Queue depth at which arrivals are ECN-marked.
    pub(crate) ecn_threshold_packets: u32,
    /// One-way propagation + processing delay per link hop.
    pub(crate) link_delay: SimDuration,
    /// Initial congestion window.
    pub(crate) initial_window_packets: u32,
    /// Multiplicative decrease factor applied on an ECN mark or loss.
    pub(crate) decrease_factor: f64,
}

impl PacketConfig {
    /// Parameters for the SoC Cluster fabric. The per-hop delay is a
    /// quarter of the measured inter-SoC RTT so the same-PCB two-hop path
    /// (SoC → PCB → SoC, two hops each way) reproduces the 0.44 ms anchor.
    pub fn cluster() -> Self {
        Self {
            link_delay: SimDuration::from_millis_f64(socc_hw::calib::INTER_SOC_RTT_MS / 4.0),
            ..Self::base()
        }
    }

    /// Parameters for the two-node calibration link: one hop each way, so
    /// the per-hop delay is half the measured inter-SoC RTT.
    pub(crate) fn calibration() -> Self {
        Self {
            link_delay: SimDuration::from_millis_f64(socc_hw::calib::INTER_SOC_RTT_MS / 2.0),
            ..Self::base()
        }
    }

    fn base() -> Self {
        Self {
            mss_bytes: 1448,
            wire_bytes: 1538,
            port_buffer_packets: 64,
            ecn_threshold_packets: 16,
            link_delay: SimDuration::ZERO,
            initial_window_packets: 10,
            decrease_factor: 0.8,
        }
    }
}

/// Identifies a packet-mode flow (persistent or finite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketFlowId(u64);

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The serializer of `link` finished putting a packet on the wire.
    TxDone { link: u32 },
    /// A packet reached the node at the far end of `link`.
    Arrive {
        link: u32,
        flow: u64,
        seq: u64,
        ecn: bool,
    },
    /// The sender processed a (delay-modelled) ACK.
    Ack { flow: u64, ecn: bool },
    /// The sender learned a packet was lost (drop time + one RTT).
    Loss { flow: u64, seq: u64 },
}

#[derive(Debug)]
struct FlowState {
    src: NodeId,
    dst: NodeId,
    /// Current route as link indices, head = first hop.
    route: Vec<u32>,
    /// Forwarding table: node index → outgoing link on the current route.
    next_link: IdMap<u32, u32>,
    /// Unloaded path RTT (propagation both ways + per-hop serialization).
    base_rtt: SimDuration,
    /// Delivery-to-ACK delay (reverse-path propagation; ACK bandwidth is
    /// not modelled — at ~3% of data wire bytes it is noise).
    ack_delay: SimDuration,
    cwnd: f64,
    ssthresh: f64,
    in_flight: u32,
    next_seq: u64,
    /// `None` for a persistent flow, else packets not yet sent for the
    /// first time.
    unsent: Option<u64>,
    /// Total packets of a finite flow.
    total: Option<u64>,
    retx: VecDeque<u64>,
    /// Next instant a multiplicative decrease is allowed (once per RTT).
    cut_until: SimTime,
    delivered_pkts: u64,
    delivered_bytes: f64,
    finished_at: Option<SimTime>,
}

#[derive(Debug, Default)]
struct PortState {
    /// Per-flow FIFO lanes. Iterated only through `rr`, never by map
    /// order, so runs are deterministic.
    lanes: IdMap<u64, VecDeque<(u64, bool)>>,
    /// Round-robin service order over flows with a non-empty lane.
    rr: VecDeque<u64>,
    /// Packets across all lanes (shared-buffer occupancy).
    buffered: u32,
    /// High-water mark of `buffered`.
    max_depth: u32,
    busy: bool,
    /// Packet currently on the serializer.
    tx: Option<(u64, u64, bool)>,
    drops: u64,
    ecn_marks: u64,
    wire_time: SimDuration,
}

/// Event-driven packet-level network simulator.
///
/// # Examples
///
/// ```
/// use socc_net::packet::{PacketConfig, PacketNet};
/// use socc_net::topology::Topology;
/// use socc_sim::units::DataSize;
///
/// let fabric = Topology::soc_cluster(10);
/// let mut net = PacketNet::new(fabric.topology.clone(), PacketConfig::cluster());
/// net.start_transfer(fabric.socs[0], fabric.socs[1], DataSize::kilobytes(64.0)).unwrap();
/// let end = net.run_to_idle();
/// assert!(end.as_secs_f64() > 0.0);
/// ```
pub struct PacketNet {
    topology: Topology,
    routing: FailureAwareRouting,
    config: PacketConfig,
    queue: EventQueue<Ev>,
    ports: Vec<PortState>,
    flows: IdMap<u64, FlowState>,
    flow_order: Vec<u64>,
    next_id: u64,
    now: SimTime,
    log: EventLog,
}

impl PacketNet {
    /// Creates a packet-level simulator over `topology`.
    pub fn new(topology: Topology, config: PacketConfig) -> Self {
        let mut routing = FailureAwareRouting::new();
        routing.attach(&topology);
        let ports = (0..topology.link_count() as u32)
            .map(|i| {
                let cap = topology.link(LinkId(i)).capacity.as_bps();
                PortState {
                    wire_time: SimDuration::from_secs_f64(f64::from(config.wire_bytes) * 8.0 / cap),
                    ..PortState::default()
                }
            })
            .collect();
        Self {
            topology,
            routing,
            config,
            queue: EventQueue::new(),
            ports,
            flows: IdMap::default(),
            flow_order: Vec::new(),
            next_id: 0,
            now: SimTime::ZERO,
            log: EventLog::disabled(),
        }
    }

    /// Enables typed event recording (drops, ECN marks, window cuts and
    /// flow lifecycle under [`Scope::Net`]). Off by default.
    pub fn enable_tracing(&mut self) {
        self.log.set_enabled(true);
    }

    /// The typed event log (empty unless tracing was enabled).
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Starts a persistent (greedy, never-ending) flow.
    pub fn start_flow(&mut self, src: NodeId, dst: NodeId) -> Result<PacketFlowId, NetError> {
        self.add_flow(src, dst, None)
    }

    /// Starts a finite transfer of `size`.
    pub fn start_transfer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size: DataSize,
    ) -> Result<PacketFlowId, NetError> {
        let pkts = (size.as_bytes() / f64::from(self.config.mss_bytes))
            .ceil()
            .max(1.0) as u64;
        self.add_flow(src, dst, Some(pkts))
    }

    fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        total: Option<u64>,
    ) -> Result<PacketFlowId, NetError> {
        let route = self
            .routing
            .route(&self.topology, src, dst)
            .filter(|r| !r.is_empty())
            .ok_or(NetError::Unreachable { src, dst })?;
        let id = self.next_id;
        self.next_id += 1;
        let links: Vec<u32> = route.iter().map(|l| l.0).collect();
        let (next_link, base_rtt, ack_delay) = self.route_tables(&links);
        self.flows.insert(
            id,
            FlowState {
                src,
                dst,
                route: links,
                next_link,
                base_rtt,
                ack_delay,
                cwnd: f64::from(self.config.initial_window_packets),
                ssthresh: f64::INFINITY,
                in_flight: 0,
                next_seq: 0,
                unsent: total,
                total,
                retx: VecDeque::new(),
                cut_until: self.now,
                delivered_pkts: 0,
                delivered_bytes: 0.0,
                finished_at: None,
            },
        );
        self.flow_order.push(id);
        let kind = if total.is_some() {
            EventKind::TransferStarted { transfer: id }
        } else {
            EventKind::FlowStarted { flow: id }
        };
        self.log.record(self.now, Scope::Net, kind);
        self.pump(id);
        Ok(PacketFlowId(id))
    }

    /// Forwarding table, unloaded RTT and ACK return delay for a route.
    fn route_tables(&self, links: &[u32]) -> (IdMap<u32, u32>, SimDuration, SimDuration) {
        let mut next_link = IdMap::with_capacity_and_hasher(links.len(), Default::default());
        let mut wire_sum = SimDuration::ZERO;
        for &l in links {
            let link = self.topology.link(LinkId(l));
            next_link.insert(link.src.0, l);
            wire_sum += self.ports[l as usize].wire_time;
        }
        let prop = self.config.link_delay * links.len() as f64;
        let base_rtt = prop * 2.0 + wire_sum;
        (next_link, base_rtt, prop)
    }

    /// Sends as much as the congestion window allows.
    fn pump(&mut self, flow: u64) {
        loop {
            let Some(f) = self.flows.get_mut(&flow) else {
                return;
            };
            if f.finished_at.is_some() {
                return;
            }
            let window = f.cwnd.floor().max(2.0) as u32;
            if f.in_flight >= window {
                return;
            }
            let seq = if let Some(s) = f.retx.pop_front() {
                s
            } else {
                match &mut f.unsent {
                    Some(0) => return,
                    Some(n) => {
                        *n -= 1;
                        let s = f.next_seq;
                        f.next_seq += 1;
                        s
                    }
                    None => {
                        let s = f.next_seq;
                        f.next_seq += 1;
                        s
                    }
                }
            };
            f.in_flight += 1;
            let first = f.route[0];
            self.enqueue(first, flow, seq, false);
        }
    }

    /// Places a packet in a port's output queue (or drops it).
    fn enqueue(&mut self, link: u32, flow: u64, seq: u64, ecn_in: bool) {
        let up = self.routing.usable(LinkId(link));
        let full = self.ports[link as usize].buffered >= self.config.port_buffer_packets;
        if !up || full {
            self.ports[link as usize].drops += 1;
            self.log
                .record(self.now, Scope::Net, EventKind::PacketDropped { link });
            if let Some(f) = self.flows.get(&flow) {
                let d = f.base_rtt;
                self.queue.schedule(self.now + d, Ev::Loss { flow, seq });
            }
            return;
        }
        let port = &mut self.ports[link as usize];
        let mut ecn = ecn_in;
        let lane = port.lanes.entry(flow).or_default();
        // Mark on the flow's *own* lane depth (per-queue AQM, FQ-CoDel
        // style): marking on shared occupancy would throttle a multi-hop
        // flow for backlogs other flows built, pushing the allocation
        // toward proportional instead of max-min fairness.
        if lane.len() as u32 >= self.config.ecn_threshold_packets {
            ecn = true;
            port.ecn_marks += 1;
            self.log
                .record(self.now, Scope::Net, EventKind::EcnMarked { link });
        }
        if lane.is_empty() {
            port.rr.push_back(flow);
        }
        lane.push_back((seq, ecn));
        port.buffered += 1;
        port.max_depth = port.max_depth.max(port.buffered);
        if !port.busy {
            self.start_tx(link);
        }
    }

    /// Puts the next round-robin packet on the serializer.
    fn start_tx(&mut self, link: u32) {
        let port = &mut self.ports[link as usize];
        if port.busy {
            return;
        }
        let Some(flow) = port.rr.pop_front() else {
            return;
        };
        let lane = port.lanes.get_mut(&flow).expect("rr flow has a lane");
        let (seq, ecn) = lane.pop_front().expect("rr lane non-empty");
        if !lane.is_empty() {
            port.rr.push_back(flow);
        }
        port.buffered -= 1;
        port.busy = true;
        port.tx = Some((flow, seq, ecn));
        let at = self.now + port.wire_time;
        self.queue.schedule(at, Ev::TxDone { link });
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::TxDone { link } => {
                let port = &mut self.ports[link as usize];
                let (flow, seq, ecn) = port.tx.take().expect("serializer had a packet");
                port.busy = false;
                if self.routing.usable(LinkId(link)) {
                    let at = self.now + self.config.link_delay;
                    self.queue.schedule(
                        at,
                        Ev::Arrive {
                            link,
                            flow,
                            seq,
                            ecn,
                        },
                    );
                } else {
                    // The link died while the packet was on the wire.
                    self.ports[link as usize].drops += 1;
                    self.log
                        .record(self.now, Scope::Net, EventKind::PacketDropped { link });
                    if let Some(f) = self.flows.get(&flow) {
                        let d = f.base_rtt;
                        self.queue.schedule(self.now + d, Ev::Loss { flow, seq });
                    }
                }
                if self.ports[link as usize].buffered > 0 {
                    self.start_tx(link);
                }
            }
            Ev::Arrive {
                link,
                flow,
                seq,
                ecn,
            } => {
                let node = self.topology.link(LinkId(link)).dst;
                let Some(f) = self.flows.get(&flow) else {
                    return; // flow stopped; stale packet drains silently
                };
                if node == f.dst {
                    let ack_delay = f.ack_delay;
                    let f = self.flows.get_mut(&flow).expect("checked above");
                    f.delivered_pkts += 1;
                    f.delivered_bytes += f64::from(self.config.mss_bytes);
                    if f.total == Some(f.delivered_pkts) && f.finished_at.is_none() {
                        f.finished_at = Some(self.now);
                        self.log.record(
                            self.now,
                            Scope::Net,
                            EventKind::TransferFinished { transfer: flow },
                        );
                    }
                    self.queue
                        .schedule(self.now + ack_delay, Ev::Ack { flow, ecn });
                } else if let Some(&next) = f.next_link.get(&node.0) {
                    self.enqueue(next, flow, seq, ecn);
                } else {
                    // The flow was rerouted away from this node mid-flight.
                    let d = f.base_rtt;
                    self.queue.schedule(self.now + d, Ev::Loss { flow, seq });
                }
            }
            Ev::Ack { flow, ecn } => {
                let Some(f) = self.flows.get_mut(&flow) else {
                    return;
                };
                f.in_flight = f.in_flight.saturating_sub(1);
                if ecn {
                    if self.now >= f.cut_until {
                        f.cwnd = (f.cwnd * self.config.decrease_factor).max(2.0);
                        f.ssthresh = f.cwnd;
                        f.cut_until = self.now + f.base_rtt;
                        self.log
                            .record(self.now, Scope::Net, EventKind::CwndReduced { flow });
                    }
                } else if f.cwnd < f.ssthresh {
                    f.cwnd += 1.0;
                } else {
                    f.cwnd += 1.0 / f.cwnd;
                }
                self.pump(flow);
            }
            Ev::Loss { flow, seq } => {
                let Some(f) = self.flows.get_mut(&flow) else {
                    return;
                };
                f.in_flight = f.in_flight.saturating_sub(1);
                f.retx.push_back(seq);
                if self.now >= f.cut_until {
                    f.cwnd = (f.cwnd * self.config.decrease_factor).max(2.0);
                    f.ssthresh = f.cwnd;
                    f.cut_until = self.now + f.base_rtt;
                    self.log
                        .record(self.now, Scope::Net, EventKind::CwndReduced { flow });
                }
                self.pump(flow);
            }
        }
    }

    /// Runs every event at or before `t`, then advances the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(at) = self.queue.peek_time() {
            if at > t {
                break;
            }
            let (time, ev) = self.queue.pop().expect("peeked event exists");
            self.now = time;
            self.handle(ev);
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Drains the event queue. Only meaningful when every flow is finite
    /// (persistent flows generate events forever). Returns the final time.
    pub fn run_to_idle(&mut self) -> SimTime {
        while let Some((time, ev)) = self.queue.pop() {
            self.now = time;
            self.handle(ev);
        }
        self.now
    }

    /// Payload bytes delivered to a flow's receiver so far.
    pub fn delivered_bytes(&self, id: PacketFlowId) -> Result<f64, NetError> {
        self.flows
            .get(&id.0)
            .map(|f| f.delivered_bytes)
            .ok_or(NetError::UnknownId)
    }

    /// When a finite flow delivered its last payload packet.
    pub fn finished_at(&self, id: PacketFlowId) -> Result<Option<SimTime>, NetError> {
        self.flows
            .get(&id.0)
            .map(|f| f.finished_at)
            .ok_or(NetError::UnknownId)
    }

    /// Warms a flow up, then measures its goodput over a window. Other
    /// flows keep running; the clock ends at `now + warmup + window`.
    pub(crate) fn measure_goodput(
        &mut self,
        id: PacketFlowId,
        warmup: SimDuration,
        window: SimDuration,
    ) -> Result<DataRate, NetError> {
        let t0 = self.now + warmup;
        self.run_until(t0);
        let before = self.delivered_bytes(id)?;
        self.run_until(t0 + window);
        let after = self.delivered_bytes(id)?;
        Ok(DataRate::bps((after - before) * 8.0 / window.as_secs_f64()))
    }

    /// High-water queue depth of a port, in packets.
    pub fn port_max_depth(&self, link: LinkId) -> u32 {
        self.ports[link.0 as usize].max_depth
    }

    /// Packets tail-dropped across all ports.
    pub fn total_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.drops).sum()
    }

    /// Packets ECN-marked across all ports.
    pub fn total_ecn_marks(&self) -> u64 {
        self.ports.iter().map(|p| p.ecn_marks).sum()
    }

    /// Fails a link: flows routed over it are rerouted (windows reset, as
    /// after an RTO) or removed when no path remains. Packets queued at
    /// the dead port are flushed as losses. Returns the removed flows.
    /// Mirrors `FlowNet::fail_link` stream semantics so the two engines
    /// keep identical routes under churn.
    pub fn fail_link(&mut self, link: LinkId) -> Vec<PacketFlowId> {
        self.routing.fail(link);
        self.log
            .record(self.now, Scope::Net, EventKind::LinkFailed { link: link.0 });
        // Flush the dead port deterministically (service order, then lane
        // FIFO order) so senders learn about the losses.
        let port = &mut self.ports[link.0 as usize];
        let mut flushed: Vec<(u64, u64)> = Vec::new();
        while let Some(flow) = port.rr.pop_front() {
            if let Some(lane) = port.lanes.get_mut(&flow) {
                while let Some((seq, _)) = lane.pop_front() {
                    flushed.push((flow, seq));
                }
            }
        }
        port.buffered = 0;
        port.drops += flushed.len() as u64;
        for &(flow, seq) in &flushed {
            self.log.record(
                self.now,
                Scope::Net,
                EventKind::PacketDropped { link: link.0 },
            );
            if let Some(f) = self.flows.get(&flow) {
                let d = f.base_rtt;
                self.queue.schedule(self.now + d, Ev::Loss { flow, seq });
            }
        }
        // Reroute or remove crossing flows, in creation order.
        let mut lost = Vec::new();
        for id in self.flow_order.clone() {
            let f = self.flows.get(&id).expect("ordered id exists");
            if !f.route.contains(&link.0) {
                continue;
            }
            match self.routing.route(&self.topology, f.src, f.dst) {
                Some(route) => {
                    let links: Vec<u32> = route.iter().map(|l| l.0).collect();
                    let (next_link, base_rtt, ack_delay) = self.route_tables(&links);
                    let f = self.flows.get_mut(&id).expect("exists");
                    f.route = links;
                    f.next_link = next_link;
                    f.ack_delay = ack_delay;
                    f.base_rtt = base_rtt;
                    f.cwnd = f64::from(self.config.initial_window_packets);
                    f.ssthresh = f64::INFINITY;
                    f.cut_until = self.now;
                }
                None => {
                    let state = self.flows.remove(&id).expect("exists");
                    self.flow_order.retain(|&x| x != id);
                    let kind = if state.total.is_some() {
                        EventKind::TransferFinished { transfer: id }
                    } else {
                        EventKind::FlowFinished { flow: id }
                    };
                    self.log.record(self.now, Scope::Net, kind);
                    lost.push(PacketFlowId(id));
                }
            }
        }
        lost
    }

    /// Repairs a link. Existing flows keep their current routes (matching
    /// `FlowNet::repair_link`); new flows may route over it again.
    pub fn repair_link(&mut self, link: LinkId) {
        self.routing.repair(link);
        self.log.record(
            self.now,
            Scope::Net,
            EventKind::LinkRepaired { link: link.0 },
        );
    }
}

/// Result of the packet-mode goodput calibration run.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationReport {
    /// Steady-state goodput measured on the 1 GbE calibration link.
    pub goodput: DataRate,
    /// `goodput / raw capacity` — the flow model's efficiency factor.
    pub factor: f64,
    /// Packets dropped during the run.
    pub drops: u64,
    /// Packets ECN-marked during the run.
    pub ecn_marks: u64,
}

/// Measures the goodput factor the flow model should use: one persistent
/// flow over a two-node 1 GbE link whose propagation reproduces the
/// measured 0.44 ms inter-SoC RTT, warmed past slow start and measured
/// across several AIMD sawtooth periods. Deterministic (no RNG).
pub fn run_goodput_calibration() -> CalibrationReport {
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Soc);
    let b = topo.add_node(NodeKind::Soc);
    topo.add_duplex(a, b, DataRate::bps(1.0e9));
    let mut net = PacketNet::new(topo, PacketConfig::calibration());
    let flow = net.start_flow(a, b).expect("two-node link routes");
    let goodput = net
        .measure_goodput(
            flow,
            SimDuration::from_millis(20),
            SimDuration::from_millis(50),
        )
        .expect("flow exists");
    CalibrationReport {
        goodput,
        factor: goodput.as_bps() / 1.0e9,
        drops: net.total_drops(),
        ecn_marks: net.total_ecn_marks(),
    }
}

/// The calibrated goodput factor, computed once per process and cached.
/// [`TcpModel::inter_soc`](crate::tcp::TcpModel::inter_soc) uses this
/// instead of hard-coding the paper's 903 Mbps; the measured constant
/// remains as a validation anchor only.
pub fn calibrated_goodput_factor() -> f64 {
    static FACTOR: OnceLock<f64> = OnceLock::new();
    *FACTOR.get_or_init(|| run_goodput_calibration().factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node(gbps: f64) -> (Topology, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Soc);
        let b = topo.add_node(NodeKind::Soc);
        topo.add_duplex(a, b, DataRate::gbps(gbps));
        (topo, a, b)
    }

    #[test]
    fn calibration_lands_near_the_measured_goodput() {
        let report = run_goodput_calibration();
        let anchor = socc_hw::calib::INTER_SOC_TCP_MBPS;
        assert!(
            (report.goodput.as_mbps() - anchor).abs() < anchor * 0.05,
            "calibrated {} Mbps vs anchor {anchor} Mbps",
            report.goodput.as_mbps()
        );
        assert!(report.ecn_marks > 0, "AIMD should be ECN-clocked");
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let (topo, a, b) = two_node(1.0);
        let mut net = PacketNet::new(topo, PacketConfig::calibration());
        let f1 = net.start_flow(a, b).unwrap();
        let f2 = net.start_flow(a, b).unwrap();
        net.run_until(SimTime::from_nanos(30_000_000));
        let t0 = net.now();
        net.run_until(t0 + SimDuration::from_millis(40));
        let g1 = net.delivered_bytes(f1).unwrap();
        let g2 = net.delivered_bytes(f2).unwrap();
        let ratio = g1.min(g2) / g1.max(g2);
        assert!(ratio > 0.85, "unfair split: {g1} vs {g2}");
    }

    #[test]
    fn parking_lot_converges_to_max_min() {
        // Line a → b → c. One long flow a→c, one short flow per link.
        // Max-min: everyone gets half its bottleneck. Plain FIFO+AIMD
        // would squeeze the two-hop flow well below half.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Host);
        let b = topo.add_node(NodeKind::Host);
        let c = topo.add_node(NodeKind::Host);
        topo.add_duplex(a, b, DataRate::gbps(1.0));
        topo.add_duplex(b, c, DataRate::gbps(1.0));
        let mut net = PacketNet::new(topo, PacketConfig::cluster());
        let long = net.start_flow(a, c).unwrap();
        net.start_flow(a, b).unwrap();
        net.start_flow(b, c).unwrap();
        let g = net
            .measure_goodput(
                long,
                SimDuration::from_millis(30),
                SimDuration::from_millis(40),
            )
            .unwrap();
        // Fair share is 500 Mbps raw; allow generous AIMD slack but rule
        // out the proportional-fairness ~333 Mbps outcome.
        assert!(
            g.as_mbps() > 400.0 && g.as_mbps() < 520.0,
            "two-hop flow got {} Mbps",
            g.as_mbps()
        );
    }

    #[test]
    fn incast_fills_the_buffer_and_drops() {
        let fabric = Topology::soc_cluster(20);
        let mut net = PacketNet::new(fabric.topology.clone(), PacketConfig::cluster());
        // 8 senders on other PCBs burst into SoC 0 through its PCB uplink.
        for i in 5..13 {
            net.start_transfer(fabric.socs[i], fabric.socs[0], DataSize::megabytes(1.0))
                .unwrap();
        }
        net.run_to_idle();
        assert!(net.total_drops() > 0, "incast should overflow the buffer");
        // The hot port is ESB → PCB0.
        let hot = fabric
            .uplinks_of_pcb(0)
            .into_iter()
            .find(|&l| fabric.topology.link(l).src == fabric.esb)
            .unwrap();
        assert!(net.ports[hot.0 as usize].drops > 0);
        assert_eq!(
            u64::from(net.port_max_depth(hot)),
            u64::from(net.config.port_buffer_packets),
            "buffer high-water mark should hit the cap"
        );
    }

    #[test]
    fn finite_transfer_completes_and_counts_bytes() {
        let (topo, a, b) = two_node(1.0);
        let mut net = PacketNet::new(topo, PacketConfig::calibration());
        let t = net
            .start_transfer(a, b, DataSize::kilobytes(100.0))
            .unwrap();
        let end = net.run_to_idle();
        assert!(net.finished_at(t).unwrap().is_some());
        let delivered = net.delivered_bytes(t).unwrap();
        assert!(delivered >= 100_000.0, "delivered {delivered}");
        assert!(end.as_secs_f64() > 0.0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let fabric = Topology::soc_cluster(10);
            let mut net = PacketNet::new(fabric.topology.clone(), PacketConfig::cluster());
            net.enable_tracing();
            for i in 1..5 {
                net.start_transfer(fabric.socs[i], fabric.socs[0], DataSize::kilobytes(300.0))
                    .unwrap();
            }
            let end = net.run_to_idle();
            (end, net.total_drops(), net.event_log().digest())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fail_link_without_alternate_path_kills_the_flow() {
        let fabric = Topology::soc_cluster(10);
        let mut net = PacketNet::new(fabric.topology.clone(), PacketConfig::cluster());
        let f = net.start_flow(fabric.socs[0], fabric.socs[9]).unwrap();
        net.run_until(SimTime::from_nanos(5_000_000));
        let uplink = fabric.uplinks_of_pcb(0)[0];
        let lost = net.fail_link(uplink);
        assert_eq!(lost, vec![f]);
        assert!(net.delivered_bytes(f).is_err(), "flow removed");
    }

    #[test]
    fn fail_link_with_backup_reroutes_and_keeps_delivering() {
        // A diamond: src reaches dst via m1 or m2.
        let mut topo = Topology::new();
        let s = topo.add_node(NodeKind::Host);
        let m1 = topo.add_node(NodeKind::Host);
        let m2 = topo.add_node(NodeKind::Host);
        let d = topo.add_node(NodeKind::Host);
        let (sm1, _) = topo.add_duplex(s, m1, DataRate::gbps(1.0));
        topo.add_duplex(s, m2, DataRate::gbps(1.0));
        topo.add_duplex(m1, d, DataRate::gbps(1.0));
        topo.add_duplex(m2, d, DataRate::gbps(1.0));
        let mut net = PacketNet::new(topo, PacketConfig::cluster());
        let f = net.start_flow(s, d).unwrap();
        net.run_until(SimTime::from_nanos(10_000_000));
        let before = net.delivered_bytes(f).unwrap();
        assert!(before > 0.0);
        let lost = net.fail_link(sm1);
        assert!(lost.is_empty(), "flow should reroute via m2");
        assert!(!net.flows[&f.0].route.contains(&sm1.0));
        let t = net.now() + SimDuration::from_millis(20);
        net.run_until(t);
        let after = net.delivered_bytes(f).unwrap();
        assert!(after > before, "delivery resumed on the backup path");
    }

    #[test]
    fn repair_lets_new_flows_route_again() {
        let fabric = Topology::soc_cluster(10);
        let mut net = PacketNet::new(fabric.topology.clone(), PacketConfig::cluster());
        let uplink = fabric.uplinks_of_pcb(0)[0];
        net.fail_link(uplink);
        let reverse = fabric.uplinks_of_pcb(0)[1];
        net.fail_link(reverse);
        assert!(net.start_flow(fabric.socs[0], fabric.socs[9]).is_err());
        net.repair_link(uplink);
        net.repair_link(reverse);
        assert!(net.start_flow(fabric.socs[0], fabric.socs[9]).is_ok());
    }

    #[test]
    fn cached_factor_is_stable() {
        let a = calibrated_goodput_factor();
        let b = calibrated_goodput_factor();
        assert_eq!(a, b);
        assert!(a > 0.5 && a < 1.0);
    }
}
