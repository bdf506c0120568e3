//! Max-min fair bandwidth allocation (progressive filling).
//!
//! Given a set of flows, each with a route (set of directed links) and an
//! optional demand cap, and per-link capacities, the water-filling algorithm
//! raises every unfrozen flow's rate uniformly until a link saturates or a
//! flow hits its demand; saturated/full flows freeze and the process
//! repeats. The result is the unique max-min fair allocation.
//!
//! Two entry points share that algorithm:
//!
//! - [`max_min_fair`]: the stateless reference — build a `Vec<FlowDemand>`,
//!   get rates back. Simple, but O(flows × links × rounds) with `HashMap`
//!   churn on every call.
//! - [`FairnessState`]: a persistent allocator for event-driven callers
//!   ([`FlowNet`](crate::sim::FlowNet)). Routes are interned once into
//!   dense `u32` link-index slices, link state lives in flat arrays, and a
//!   flow arriving or leaving triggers an *incremental* update that
//!   re-waterfills only the flows whose bottleneck actually moved,
//!   expanding the affected set until every flow holds a max-min
//!   bottleneck certificate (see `DESIGN.md`). Scratch buffers are reused,
//!   so steady-state updates allocate nothing.

// `max_min_fair` is the reference oracle: it keeps std's `HashMap`, which
// the simulated paths may not use.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

use socc_sim::hash::IdMap;
use socc_sim::units::DataRate;

use crate::topology::LinkId;

/// A flow demand handed to the allocator.
#[derive(Debug, Clone)]
pub struct FlowDemand {
    /// Links the flow traverses.
    pub route: Vec<LinkId>,
    /// Application-level demand cap, or `None` for an elastic (greedy) flow.
    pub demand: Option<DataRate>,
}

/// Computes the max-min fair allocation.
///
/// `capacity` maps each link to its capacity; links missing from the map are
/// treated as infinite. Returns one rate per flow, in input order. A flow
/// that crosses no capacitated link (an empty route, say) is limited only
/// by its demand: it receives its demand, or the 1 Tbps elastic ceiling
/// when it is elastic.
///
/// The allocation satisfies, for every flow `f`:
/// - feasibility: no link carries more than its capacity (within 1e-6);
/// - demand: `rate[f] <= demand[f]`;
/// - max-min fairness: a flow's rate can only be below another's if the
///   former is bottlenecked on a saturated link.
#[allow(clippy::disallowed_types)]
pub fn max_min_fair(flows: &[FlowDemand], capacity: &HashMap<LinkId, DataRate>) -> Vec<DataRate> {
    let elastic_ceiling = DataRate::gbps(1000.0);
    let n = flows.len();
    let mut rates = vec![0.0f64; n];
    let mut frozen = vec![false; n];

    // Remaining capacity per link, and which unfrozen flows cross it.
    let mut remaining: HashMap<LinkId, f64> =
        capacity.iter().map(|(&l, &c)| (l, c.as_bps())).collect();

    loop {
        // Active flows: not frozen. Flows with no capacitated link in their
        // route are only demand-limited.
        let active: Vec<usize> = (0..n).filter(|&i| !frozen[i]).collect();
        if active.is_empty() {
            break;
        }

        // Count active flows per capacitated link.
        let mut users: HashMap<LinkId, usize> = HashMap::new();
        for &i in &active {
            for l in &flows[i].route {
                if remaining.contains_key(l) {
                    *users.entry(*l).or_insert(0) += 1;
                }
            }
        }

        // The uniform increment is bounded by the tightest link share and
        // by the smallest remaining demand headroom among active flows.
        let mut increment = f64::INFINITY;
        for (&l, &u) in &users {
            if u > 0 {
                increment = increment.min(remaining[&l] / u as f64);
            }
        }
        for &i in &active {
            let cap = flows[i]
                .demand
                .map_or(elastic_ceiling.as_bps(), DataRate::as_bps);
            increment = increment.min(cap - rates[i]);
        }
        if !increment.is_finite() {
            // No capacitated links and all demands infinite: everyone gets
            // the elastic ceiling.
            for &i in &active {
                rates[i] = elastic_ceiling.as_bps();
                frozen[i] = true;
            }
            break;
        }
        let increment = increment.max(0.0);

        // Apply the increment.
        for &i in &active {
            rates[i] += increment;
        }
        for (&l, &u) in &users {
            if u > 0 {
                *remaining.get_mut(&l).expect("tracked link") -= increment * u as f64;
            }
        }

        // Freeze flows that hit demand or a saturated link.
        let mut any_frozen = false;
        for &i in &active {
            let at_demand = flows[i]
                .demand
                .map_or(rates[i] >= elastic_ceiling.as_bps() - 1e-6, |d| {
                    rates[i] >= d.as_bps() - 1e-6
                });
            let on_saturated = flows[i]
                .route
                .iter()
                .any(|l| remaining.get(l).is_some_and(|&r| r <= 1e-6));
            if at_demand || on_saturated {
                frozen[i] = true;
                any_frozen = true;
            }
        }
        if !any_frozen {
            // Numerical guard: increment was ~0 without freezing anyone.
            break;
        }
    }

    rates.into_iter().map(DataRate::bps).collect()
}

/// Elastic flows are capped at this rate when nothing else limits them
/// (mirrors the ceiling inside [`max_min_fair`]).
const ELASTIC_CEILING_BPS: f64 = 1e12; // 1000 Gbps

/// Absolute slack used for saturation / demand / certificate comparisons,
/// matching the reference allocator's tolerances.
const EPS_BPS: f64 = 1e-6;

/// Relative slack added on top of [`EPS_BPS`] when comparing quantities
/// produced by different summation orders (incremental vs from-scratch).
const EPS_REL: f64 = 1e-9;

#[inline]
fn slack(x: f64) -> f64 {
    EPS_BPS + EPS_REL * x.abs()
}

/// Handle to a route interned in a [`FairnessState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteId(u32);

/// Handle to a live flow inside a [`FairnessState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(u32);

/// Counters describing how much waterfilling work the allocator has done.
/// All counters are cumulative since construction; diff two snapshots to
/// meter a window. The benchmark's `net_churn` digest (`perfbench/`)
/// folds five of them — `reallocations`, `waterfill_rounds`,
/// `waterfill_touches`, `cert_touches` and `full_recomputes` — so a change
/// to what any of those counts moves its pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FairnessStats {
    /// Allocation updates: one per `add_flow`, `remove_flow`,
    /// `commit_removals` and `rebuild_full`.
    pub reallocations: u64,
    /// Waterfills over every live flow: forced updates, `rebuild_full`,
    /// and incremental updates whose affected set reached every live flow.
    pub full_recomputes: u64,
    /// Updates that took the incremental path, including those that then
    /// fell back to a full waterfill.
    pub incremental_updates: u64,
    /// Progressive-filling rounds (raises of the water level), both paths.
    pub waterfill_rounds: u64,
    /// The progressive-filling tally: summed over rounds, the route
    /// lengths of the flows active at the start of each round. It is kept
    /// by subtraction as flows freeze, so it is not a count of visits.
    pub waterfill_touches: u64,
    /// Certificate sweeps: one after each partial waterfill.
    pub cert_rounds: u64,
    /// Route lengths visited by the incremental path outside the
    /// waterfill: the seeding scan over every live flow, then per sweep
    /// the load scan over every live flow, the certificate test of every
    /// flow below its demand and, when a test failed, the expansion scan
    /// over the unaffected flows.
    pub cert_touches: u64,
}

const NO_ROUTE: u32 = u32::MAX;

/// Interned routes: each route is a span into one flat `u32` link-index
/// arena, deduplicated so churning flows over the same (src, dst) pairs
/// never re-allocates.
#[derive(Debug, Default)]
struct RouteTable {
    spans: Vec<(u32, u32)>,
    links: Vec<u32>,
    dedup: IdMap<Vec<u32>, u32>,
    key_scratch: Vec<u32>,
}

impl RouteTable {
    fn intern(&mut self, route: &[LinkId]) -> RouteId {
        self.key_scratch.clear();
        self.key_scratch.extend(route.iter().map(|l| l.0));
        if let Some(&id) = self.dedup.get(&self.key_scratch) {
            return RouteId(id);
        }
        let offset = self.links.len() as u32;
        self.links.extend_from_slice(&self.key_scratch);
        let id = self.spans.len() as u32;
        self.spans.push((offset, route.len() as u32));
        self.dedup.insert(self.key_scratch.clone(), id);
        RouteId(id)
    }

    #[inline]
    fn links_of(&self, r: RouteId) -> &[u32] {
        let (offset, len) = self.spans[r.0 as usize];
        &self.links[offset as usize..(offset + len) as usize]
    }
}

/// A persistent, incrementally-updated max-min fair allocator.
///
/// Flows occupy slots (freed slots are recycled), routes are interned
/// spans of dense link indices, and every per-link quantity lives in a
/// flat array indexed by `LinkId.0`, except a waterfill's round state,
/// which is dense over the links it touches. When one flow enters or
/// leaves, only the flows whose bottleneck can have moved are
/// re-waterfilled: the update seeds an *affected set* from the changed
/// flow's links, freezes everyone else at their current rate,
/// waterfills the affected set over the residual capacities, and then
/// verifies the global bottleneck certificate (every flow is at its
/// demand or holds a saturated link on which its rate is maximal).
/// Certificate violations pull the violating flows — and their
/// link-neighbours — into the affected set and the loop repeats; in the
/// worst case it degenerates into the exact full recompute, so the
/// result always equals [`max_min_fair`] up to floating-point summation
/// order.
#[derive(Debug, Default)]
pub struct FairnessState {
    capacity: Vec<f64>,
    routes: RouteTable,

    // Flow slots (index = FlowKey.0). `route_of == NO_ROUTE` marks a free slot.
    route_of: Vec<u32>,
    demand: Vec<f64>,
    rate: Vec<f64>,
    free: Vec<u32>,
    live_count: usize,

    // Pending deferred removals (batched completion handling).
    batch_open: bool,

    // Epoch-stamped scratch. A link / flow is "marked" when its stamp
    // equals the current epoch, so clearing costs O(1).
    link_stamp: Vec<u32>,
    flow_stamp: Vec<u32>,
    epoch: u32,

    // Link-indexed scratch.
    residual: Vec<f64>,
    load: Vec<f64>,
    link_max: Vec<f64>,
    /// Position of each link the current waterfill touches in the dense
    /// `round_*` arrays (valid while its stamp is the waterfill's epoch).
    link_pos: Vec<u32>,
    seeds: Vec<u32>,
    /// Slots changed since the last update, seeded into the affected set
    /// directly (covers flows with empty routes, which no link seed can
    /// reach).
    seed_flows: Vec<u32>,

    // Flow-indexed scratch.
    active: Vec<u32>,
    affected: Vec<u32>,

    // One waterfill's links, dense in first-touch order: residual
    // capacity and live-user count (0 once every user froze).
    round_residual: Vec<f64>,
    round_users: Vec<f64>,

    stats: FairnessStats,
    force_full: bool,
}

impl FairnessState {
    /// Creates an allocator over `capacity_bps[link_index]` capacities.
    pub fn new(capacity_bps: Vec<f64>) -> Self {
        let links = capacity_bps.len();
        Self {
            residual: vec![0.0; links],
            load: vec![0.0; links],
            link_max: vec![0.0; links],
            link_pos: vec![0; links],
            link_stamp: vec![0; links],
            capacity: capacity_bps,
            ..Self::default()
        }
    }

    /// Interns a route (deduplicated; cheap for repeated routes).
    pub fn intern_route(&mut self, route: &[LinkId]) -> RouteId {
        self.routes.intern(route)
    }

    /// The link indices of an interned route.
    pub(crate) fn route_links(&self, r: RouteId) -> &[u32] {
        self.routes.links_of(r)
    }

    /// The link indices of a live flow's route.
    pub(crate) fn flow_links(&self, key: FlowKey) -> &[u32] {
        self.routes.links_of(RouteId(self.route_of[key.0 as usize]))
    }

    /// Capacity of a link in bits/s.
    pub(crate) fn capacity_bps(&self, link: u32) -> f64 {
        self.capacity
            .get(link as usize)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Number of live flows.
    pub fn live_flows(&self) -> usize {
        self.live_count
    }

    /// The current fair share of a flow in bits/s.
    pub fn rate_bps(&self, key: FlowKey) -> f64 {
        self.rate[key.0 as usize]
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> FairnessStats {
        self.stats
    }

    /// Forces every update onto the full from-scratch path (for A/B
    /// benchmarking and differential testing).
    pub fn set_force_full(&mut self, on: bool) {
        self.force_full = on;
    }

    fn alloc_slot(&mut self, route: RouteId, demand_bps: Option<f64>) -> FlowKey {
        let demand = demand_bps.unwrap_or(ELASTIC_CEILING_BPS);
        let slot = match self.free.pop() {
            Some(s) => {
                self.route_of[s as usize] = route.0;
                self.demand[s as usize] = demand;
                self.rate[s as usize] = 0.0;
                s
            }
            None => {
                let s = self.route_of.len() as u32;
                self.route_of.push(route.0);
                self.demand.push(demand);
                self.rate.push(0.0);
                self.flow_stamp.push(0);
                s
            }
        };
        self.live_count += 1;
        FlowKey(slot)
    }

    /// Adds a flow and updates the allocation (incrementally unless
    /// [`set_force_full`](Self::set_force_full) is on).
    pub fn add_flow(&mut self, route: RouteId, demand_bps: Option<f64>) -> FlowKey {
        debug_assert!(!self.batch_open, "add_flow inside a removal batch");
        let key = self.alloc_slot(route, demand_bps);
        self.seeds.clear();
        self.seeds.extend_from_slice(self.routes.links_of(route));
        self.seed_flows.clear();
        self.seed_flows.push(key.0);
        self.update();
        key
    }

    /// Removes a flow and updates the allocation.
    pub fn remove_flow(&mut self, key: FlowKey) {
        debug_assert!(!self.batch_open, "remove_flow inside a removal batch");
        self.seeds.clear();
        self.seed_flows.clear();
        self.release_slot_collecting_seeds(key);
        self.update();
    }

    /// Starts a batch of removals: [`defer_remove`](Self::defer_remove)
    /// calls accumulate and a single allocation update runs at
    /// [`commit_removals`](Self::commit_removals). Used for transfers that
    /// complete at the same simulated instant.
    pub fn begin_removals(&mut self) {
        debug_assert!(!self.batch_open, "removal batch already open");
        self.batch_open = true;
        self.seeds.clear();
        self.seed_flows.clear();
    }

    /// Queues one removal inside an open batch.
    pub fn defer_remove(&mut self, key: FlowKey) {
        debug_assert!(self.batch_open, "defer_remove outside a removal batch");
        self.release_slot_collecting_seeds(key);
    }

    /// Ends a removal batch with one allocation update.
    pub fn commit_removals(&mut self) {
        debug_assert!(self.batch_open, "commit without begin");
        self.batch_open = false;
        self.update();
    }

    fn release_slot_collecting_seeds(&mut self, key: FlowKey) {
        let route = self.route_of[key.0 as usize];
        debug_assert!(route != NO_ROUTE, "double free of flow slot");
        // Collect seed links before freeing (dedup happens via stamps later).
        self.seeds
            .extend_from_slice(self.routes.links_of(RouteId(route)));
        self.drop_slot(key);
    }

    /// Rebinds a live flow to a new route **without** updating the
    /// allocation; callers must follow up with
    /// [`rebuild_full`](Self::rebuild_full) (used when rerouting around a
    /// failed link).
    pub(crate) fn set_route(&mut self, key: FlowKey, route: RouteId) {
        self.route_of[key.0 as usize] = route.0;
    }

    /// Frees a flow slot **without** updating the allocation; callers must
    /// follow up with [`rebuild_full`](Self::rebuild_full) (used when a
    /// link failure strands flows).
    pub(crate) fn drop_slot(&mut self, key: FlowKey) {
        let slot = key.0 as usize;
        debug_assert!(self.route_of[slot] != NO_ROUTE, "double free of flow slot");
        self.route_of[slot] = NO_ROUTE;
        self.rate[slot] = 0.0;
        self.free.push(key.0);
        self.live_count -= 1;
    }

    /// Recomputes the allocation from scratch (exact progressive filling
    /// over every live flow). Forced after topology-affecting events.
    pub(crate) fn rebuild_full(&mut self) {
        self.stats.reallocations += 1;
        self.full_waterfill();
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could collide; reset them all once.
            self.link_stamp.iter_mut().for_each(|s| *s = 0);
            self.flow_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.epoch
    }

    fn update(&mut self) {
        self.stats.reallocations += 1;
        if self.force_full {
            self.full_waterfill();
            return;
        }
        self.stats.incremental_updates += 1;
        self.incremental_update();
    }

    /// Exact from-scratch waterfill over all live flows.
    fn full_waterfill(&mut self) {
        self.stats.full_recomputes += 1;
        self.active.clear();
        self.active.extend(
            (0..self.route_of.len() as u32).filter(|&s| self.route_of[s as usize] != NO_ROUTE),
        );
        self.residual.copy_from_slice(&self.capacity);
        self.waterfill();
    }

    /// The incremental path: seed → partial waterfill → certificate →
    /// expand, looping until the certificate holds everywhere.
    fn incremental_update(&mut self) {
        let slots = self.route_of.len() as u32;
        // Mark seed links and build the initial affected set: every live
        // flow crossing a seeded link.
        let epoch = self.next_epoch();
        for &l in &self.seeds {
            self.link_stamp[l as usize] = epoch;
        }
        self.seeds.clear();

        let mut affected = std::mem::take(&mut self.affected);
        affected.clear();
        for s in 0..slots {
            let route = self.route_of[s as usize];
            if route == NO_ROUTE {
                continue;
            }
            let links = self.routes.links_of(RouteId(route));
            self.stats.cert_touches += links.len() as u64;
            if links.iter().any(|&l| self.link_stamp[l as usize] == epoch) {
                affected.push(s);
                self.flow_stamp[s as usize] = epoch;
            }
        }
        // Directly-seeded slots (e.g. a freshly added flow whose route is
        // empty and therefore crosses no seeded link).
        for &s in &self.seed_flows {
            if self.route_of[s as usize] != NO_ROUTE && self.flow_stamp[s as usize] != epoch {
                affected.push(s);
                self.flow_stamp[s as usize] = epoch;
            }
        }
        self.seed_flows.clear();

        loop {
            if affected.len() == self.live_count {
                self.affected = affected;
                self.full_waterfill();
                return;
            }
            // Residual capacity: whole capacity minus the (frozen) rates of
            // unaffected flows.
            self.residual.copy_from_slice(&self.capacity);
            for s in 0..slots {
                let route = self.route_of[s as usize];
                if route == NO_ROUTE || self.flow_stamp[s as usize] == self.epoch {
                    continue;
                }
                let rate = self.rate[s as usize];
                for &l in self.routes.links_of(RouteId(route)) {
                    self.residual[l as usize] -= rate;
                }
            }
            // Numerical hygiene: frozen rates were feasible, so any
            // negative residual is floating-point noise.
            for r in &mut self.residual {
                if *r < 0.0 {
                    *r = 0.0;
                }
            }
            self.active.clear();
            self.active.extend_from_slice(&affected);
            self.waterfill();

            if !self.expand_uncertified(&mut affected) {
                break;
            }
        }
        self.affected = affected;
    }

    /// Verifies the max-min bottleneck certificate for every live flow;
    /// pulls violators and their link-neighbours into `affected`. Returns
    /// `true` if the affected set grew.
    fn expand_uncertified(&mut self, affected: &mut Vec<u32>) -> bool {
        self.stats.cert_rounds += 1;
        let slots = self.route_of.len() as u32;
        // Per-link load and maximum flow rate, over all live flows.
        self.load.iter_mut().for_each(|v| *v = 0.0);
        self.link_max.iter_mut().for_each(|v| *v = 0.0);
        for s in 0..slots {
            let route = self.route_of[s as usize];
            if route == NO_ROUTE {
                continue;
            }
            let rate = self.rate[s as usize];
            let links = self.routes.links_of(RouteId(route));
            self.stats.cert_touches += links.len() as u64;
            for &l in links {
                self.load[l as usize] += rate;
                if rate > self.link_max[l as usize] {
                    self.link_max[l as usize] = rate;
                }
            }
        }
        // Mark the routes of every uncertified flow.
        let mark = self.next_epoch();
        let mut any_uncertified = false;
        for s in 0..slots {
            let route = self.route_of[s as usize];
            if route == NO_ROUTE {
                continue;
            }
            let rate = self.rate[s as usize];
            if rate >= self.demand[s as usize] - slack(self.demand[s as usize]) {
                continue; // demand-limited (or elastic at ceiling)
            }
            let links = self.routes.links_of(RouteId(route));
            self.stats.cert_touches += links.len() as u64;
            let bottlenecked = links.iter().any(|&l| {
                let l = l as usize;
                self.load[l] >= self.capacity[l] - slack(self.capacity[l])
                    && rate >= self.link_max[l] - slack(self.link_max[l])
            });
            if !bottlenecked {
                any_uncertified = true;
                for &l in links {
                    self.link_stamp[l as usize] = mark;
                }
            }
        }
        if !any_uncertified {
            return false;
        }
        // Re-stamp the existing affected set at the fresh epoch (`mark`),
        // then pull in every unaffected flow crossing a marked link.
        let mut grew = false;
        for &s in affected.iter() {
            self.flow_stamp[s as usize] = mark;
        }
        for s in 0..slots {
            let route = self.route_of[s as usize];
            if route == NO_ROUTE || self.flow_stamp[s as usize] == mark {
                continue;
            }
            let links = self.routes.links_of(RouteId(route));
            self.stats.cert_touches += links.len() as u64;
            if links.iter().any(|&l| self.link_stamp[l as usize] == mark) {
                affected.push(s);
                self.flow_stamp[s as usize] = mark;
                grew = true;
            }
        }
        grew
    }

    /// Progressive filling over the `active` flows against `self.residual`;
    /// everything else is untouched. All active flows rise together from
    /// 0, so they share one water `level`; a rate is written when its flow
    /// freezes. `active` is sorted by descending demand once: rounding is
    /// monotone, so the flows at their demand are a suffix and the last
    /// one bounds the raise. The links the active set touches are gathered
    /// once into the dense `round_residual`/`round_users` arrays, and the
    /// user counts and the route-length `tally` are running counts a
    /// freeze decrements. A round is two branch-free passes over the dense
    /// arrays ([`round_increment`], then the residual update) plus the
    /// frozen flows' routes, and the other routes only when a link
    /// saturated; a link whose users all froze stays in place, masked by
    /// its 0 count. The tally is the work measure progressive filling
    /// defines, not a visit count; the perf gate's ratio is a tally ratio.
    fn waterfill(&mut self) {
        let mut active = std::mem::take(&mut self.active);
        let demand = &self.demand;
        active.sort_unstable_by(|&a, &b| demand[b as usize].total_cmp(&demand[a as usize]));
        // Collect the links touched by the active set and count their users.
        let touch = self.next_epoch();
        self.round_residual.clear();
        self.round_users.clear();
        let mut tally = 0;
        for &f in active.iter() {
            let links = self.routes.links_of(RouteId(self.route_of[f as usize]));
            tally += links.len() as u64;
            for &l in links {
                let l = l as usize;
                if self.link_stamp[l] != touch {
                    self.link_stamp[l] = touch;
                    self.link_pos[l] = self.round_residual.len() as u32;
                    self.round_residual.push(self.residual[l]);
                    self.round_users.push(0.0);
                }
                self.round_users[self.link_pos[l] as usize] += 1.0;
            }
        }
        let mut level = 0.0;
        while let Some(&last) = active.last() {
            self.stats.waterfill_rounds += 1;
            self.stats.waterfill_touches += tally;
            let headroom = self.demand[last as usize] - level;
            let increment = round_increment(&self.round_residual, &self.round_users, headroom);
            if !increment.is_finite() {
                // Unreachable in practice: demands are capped at the
                // elastic ceiling, so the headroom is always finite.
                for &f in active.iter() {
                    self.rate[f as usize] = self.demand[f as usize].min(ELASTIC_CEILING_BPS);
                }
                break;
            }
            let increment = increment.max(0.0);
            level += increment;
            // A link with no user left loses `increment·0 = 0`.
            let mut saturated = false;
            for (r, &u) in self.round_residual.iter_mut().zip(&self.round_users) {
                *r -= increment * u;
                saturated |= (*r <= EPS_BPS) & (u > 0.0);
            }
            // Freeze the flows at their demand, then, if a link saturated,
            // those crossing one; the rest stay in demand order.
            let unfrozen = active.len();
            while let Some(&f) = active
                .last()
                .filter(|&&f| level >= self.demand[f as usize] - EPS_BPS)
            {
                tally -= self.freeze(f, level);
                active.pop();
            }
            if saturated {
                active.retain(|&f| {
                    let links = self.routes.links_of(RouteId(self.route_of[f as usize]));
                    let on_saturated = links.iter().any(|&l| {
                        self.round_residual[self.link_pos[l as usize] as usize] <= EPS_BPS
                    });
                    if on_saturated {
                        tally -= self.freeze(f, level);
                    }
                    !on_saturated
                });
            }
            if active.len() == unfrozen {
                // Numerical guard: nothing froze with a ~0 increment.
                for &f in active.iter() {
                    self.rate[f as usize] = level;
                }
                break;
            }
        }
        debug_assert!(
            !active.is_empty() || (tally == 0 && self.round_users.iter().all(|&u| u == 0.0)),
            "a full freeze left running counts behind"
        );
        self.active = active;
    }

    /// Freezes flow `f` at `level`; returns its route length for the tally.
    fn freeze(&mut self, f: u32, level: f64) -> u64 {
        self.rate[f as usize] = level;
        let links = self.routes.links_of(RouteId(self.route_of[f as usize]));
        for &l in links {
            let users = &mut self.round_users[self.link_pos[l as usize] as usize];
            *users -= 1.0;
            debug_assert!(*users >= 0.0, "a link lost more users than it had");
        }
        links.len() as u64
    }

    /// Maximum absolute difference in bits/s between the maintained rates
    /// and a from-scratch [`max_min_fair`] reference over the live flows.
    /// Allocates; intended for tests and diagnostics, not the hot path.
    pub fn drift_vs_reference(&self) -> f64 {
        let live = (0..self.route_of.len()).filter(|&s| self.route_of[s] != NO_ROUTE);
        self.drift_over(live.map(|s| {
            let demand = self.demand[s];
            let capped = demand < ELASTIC_CEILING_BPS;
            (FlowKey(s as u32), capped.then(|| DataRate::bps(demand)))
        }))
    }

    /// [`drift_vs_reference`](Self::drift_vs_reference) over a caller's
    /// own record of its flows and demands (`None` = elastic), so a
    /// reference built from what the caller meant catches a wrong demand
    /// handed to the allocator. Infinite when `flows` names a freed slot
    /// or does not cover every live flow, i.e. the allocator holds a slot
    /// the caller forgot to free.
    #[allow(clippy::disallowed_types)] // the oracle's input
    pub(crate) fn drift_over(
        &self,
        flows: impl IntoIterator<Item = (FlowKey, Option<DataRate>)>,
    ) -> f64 {
        let capacity: HashMap<LinkId, DataRate> = self
            .capacity
            .iter()
            .enumerate()
            .map(|(i, &c)| (LinkId(i as u32), DataRate::bps(c)))
            .collect();
        let mut keys = Vec::with_capacity(self.live_count);
        let mut demands = Vec::with_capacity(self.live_count);
        for (key, demand) in flows {
            let route = self.route_of[key.0 as usize];
            if route == NO_ROUTE {
                return f64::INFINITY;
            }
            keys.push(key.0 as usize);
            let links = self.routes.links_of(RouteId(route));
            let route = links.iter().map(|&l| LinkId(l)).collect();
            demands.push(FlowDemand { route, demand });
        }
        if keys.len() != self.live_count {
            return f64::INFINITY;
        }
        let reference = max_min_fair(&demands, &capacity);
        keys.iter()
            .zip(&reference)
            .map(|(&s, r)| (self.rate[s] - r.as_bps()).abs())
            .fold(0.0, f64::max)
    }
}

/// `1 + 4ε`: the margin that makes [`round_increment`]'s multiply-compare
/// sound despite the rounding of its two products.
const BIND_MARGIN: f64 = 1.0 + 4.0 * f64::EPSILON;

/// A waterfill round's increment over the dense link arrays: the least
/// `residual / users` over live links (`users > 0`), capped by the demand
/// `headroom` (≥ 0), equal bit for bit to that minimum taken in array
/// order. Most rounds are demand-bound, so a first pass only asks whether
/// any live link can bind at or below `headroom`. Where none has
/// `residual < fl(fl(headroom·(1+4ε))·users)` (ε = `f64::EPSILON`), each
/// has `residual ≥ headroom·users·(1+4ε)(1−ε/2)² > headroom·users`, so
/// `residual / users` rounds to at least `headroom` and the minimum is
/// `headroom` itself (a product that overflows passes every finite
/// residual on to the exact pass).
fn round_increment(residual: &[f64], users: &[f64], headroom: f64) -> f64 {
    let bound = headroom * BIND_MARGIN;
    let binds = residual
        .iter()
        .zip(users)
        .fold(false, |any, (&r, &u)| any | ((r < bound * u) & (u > 0.0)));
    if !binds {
        return headroom;
    }
    residual
        .iter()
        .zip(users)
        .filter(|&(_, &u)| u > 0.0)
        .fold(f64::INFINITY, |least, (&r, &u)| least.min(r / u))
        .min(headroom)
}

#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn caps(pairs: &[(u32, f64)]) -> HashMap<LinkId, DataRate> {
        pairs
            .iter()
            .map(|&(l, gbps)| (LinkId(l), DataRate::gbps(gbps)))
            .collect()
    }

    fn elastic(route: &[u32]) -> FlowDemand {
        FlowDemand {
            route: route.iter().map(|&l| LinkId(l)).collect(),
            demand: None,
        }
    }

    fn capped(route: &[u32], mbps: f64) -> FlowDemand {
        FlowDemand {
            route: route.iter().map(|&l| LinkId(l)).collect(),
            demand: Some(DataRate::mbps(mbps)),
        }
    }

    #[test]
    fn equal_split_on_shared_link() {
        let flows = vec![elastic(&[0]), elastic(&[0])];
        let rates = max_min_fair(&flows, &caps(&[(0, 1.0)]));
        assert!((rates[0].as_mbps() - 500.0).abs() < 1e-3);
        assert!((rates[1].as_mbps() - 500.0).abs() < 1e-3);
    }

    #[test]
    fn demand_capped_flow_releases_capacity() {
        let flows = vec![capped(&[0], 100.0), elastic(&[0])];
        let rates = max_min_fair(&flows, &caps(&[(0, 1.0)]));
        assert!((rates[0].as_mbps() - 100.0).abs() < 1e-3);
        assert!((rates[1].as_mbps() - 900.0).abs() < 1e-3);
    }

    #[test]
    fn classic_three_flow_two_link_case() {
        // Link0 and Link1 both 1 Gbps. Flow A uses both, B uses link0,
        // C uses link1. Max-min: A=0.5, B=0.5, C=0.5.
        let flows = vec![elastic(&[0, 1]), elastic(&[0]), elastic(&[1])];
        let rates = max_min_fair(&flows, &caps(&[(0, 1.0), (1, 1.0)]));
        for r in &rates {
            assert!((r.as_mbps() - 500.0).abs() < 1e-3, "{rates:?}");
        }
    }

    #[test]
    fn bottleneck_hierarchy() {
        // Link0 = 1 G shared by A and B; B continues over link1 = 0.2 G.
        // B is bottlenecked to 0.2, A picks up the slack: 0.8.
        let flows = vec![elastic(&[0]), elastic(&[0, 1])];
        let rates = max_min_fair(&flows, &caps(&[(0, 1.0), (1, 0.2)]));
        assert!((rates[1].as_mbps() - 200.0).abs() < 1e-3);
        assert!((rates[0].as_mbps() - 800.0).abs() < 1e-3);
    }

    #[test]
    fn feasibility_never_violated() {
        // Randomized-ish stress over a fixed pattern.
        let link_caps = caps(&[(0, 1.0), (1, 2.0), (2, 0.5)]);
        let flows = vec![
            elastic(&[0, 1]),
            elastic(&[1, 2]),
            capped(&[0], 250.0),
            elastic(&[2]),
            capped(&[1], 3000.0),
        ];
        let rates = max_min_fair(&flows, &link_caps);
        let mut per_link: HashMap<LinkId, f64> = HashMap::new();
        for (f, r) in flows.iter().zip(&rates) {
            for l in &f.route {
                *per_link.entry(*l).or_insert(0.0) += r.as_bps();
            }
        }
        for (l, used) in per_link {
            let cap = link_caps[&l].as_bps();
            assert!(used <= cap + 1.0, "link {l:?} used {used} > cap {cap}");
        }
    }

    #[test]
    fn empty_route_gets_demand() {
        let flows = vec![capped(&[], 123.0)];
        let rates = max_min_fair(&flows, &HashMap::new());
        assert!((rates[0].as_mbps() - 123.0).abs() < 1e-6);
    }

    #[test]
    fn uncapacitated_elastic_gets_ceiling() {
        let flows = vec![elastic(&[])];
        let rates = max_min_fair(&flows, &HashMap::new());
        assert!(rates[0].as_gbps() >= 999.0);
    }

    #[test]
    fn no_flows_no_rates() {
        assert!(max_min_fair(&[], &HashMap::new()).is_empty());
    }

    #[test]
    fn work_conservation_on_single_link() {
        // Sum of rates equals capacity when demand exceeds it.
        let flows: Vec<FlowDemand> = (0..7).map(|_| elastic(&[0])).collect();
        let rates = max_min_fair(&flows, &caps(&[(0, 1.0)]));
        let total: f64 = rates.iter().map(|r| r.as_bps()).sum();
        assert!((total - 1e9).abs() < 10.0, "total {total}");
    }

    // --- FairnessState (incremental allocator) ---

    fn state(caps_gbps: &[f64]) -> FairnessState {
        FairnessState::new(caps_gbps.iter().map(|g| g * 1e9).collect())
    }

    fn link_ids(route: &[u32]) -> Vec<LinkId> {
        route.iter().map(|&l| LinkId(l)).collect()
    }

    #[test]
    fn incremental_matches_reference_on_classic_case() {
        // Same as `classic_three_flow_two_link_case`, built incrementally.
        let mut st = state(&[1.0, 1.0]);
        let a = st.intern_route(&link_ids(&[0, 1]));
        let b = st.intern_route(&link_ids(&[0]));
        let c = st.intern_route(&link_ids(&[1]));
        let fa = st.add_flow(a, None);
        let fb = st.add_flow(b, None);
        let fc = st.add_flow(c, None);
        for f in [fa, fb, fc] {
            assert!((st.rate_bps(f) - 5e8).abs() < 1.0, "{}", st.rate_bps(f));
        }
        assert!(st.drift_vs_reference() < 1.0);
    }

    #[test]
    fn removal_redistributes_capacity_incrementally() {
        let mut st = state(&[1.0]);
        let r = st.intern_route(&link_ids(&[0]));
        let f1 = st.add_flow(r, None);
        let f2 = st.add_flow(r, None);
        assert!((st.rate_bps(f1) - 5e8).abs() < 1.0);
        st.remove_flow(f2);
        assert!((st.rate_bps(f1) - 1e9).abs() < 1.0, "{}", st.rate_bps(f1));
        assert!(st.drift_vs_reference() < 1.0);
    }

    #[test]
    fn bottleneck_hierarchy_tracked_under_churn() {
        // Link0 = 1 G shared; link1 = 0.2 G. Adding the two-link flow after
        // the single-link flow must squeeze it to 0.2 / 0.8.
        let mut st = state(&[1.0, 0.2]);
        let wide = st.intern_route(&link_ids(&[0]));
        let narrow = st.intern_route(&link_ids(&[0, 1]));
        let fw = st.add_flow(wide, None);
        let fn_ = st.add_flow(narrow, None);
        assert!((st.rate_bps(fn_) - 2e8).abs() < 1.0);
        assert!((st.rate_bps(fw) - 8e8).abs() < 1.0);
        st.remove_flow(fn_);
        assert!((st.rate_bps(fw) - 1e9).abs() < 1.0);
        assert!(st.drift_vs_reference() < 1.0);
    }

    #[test]
    fn demand_caps_respected_incrementally() {
        let mut st = state(&[1.0]);
        let r = st.intern_route(&link_ids(&[0]));
        let capped = st.add_flow(r, Some(1e8));
        let elastic = st.add_flow(r, None);
        assert!((st.rate_bps(capped) - 1e8).abs() < 1.0);
        assert!((st.rate_bps(elastic) - 9e8).abs() < 1.0);
        assert!(st.drift_vs_reference() < 1.0);
    }

    #[test]
    fn batched_removals_are_one_reallocation() {
        let mut st = state(&[1.0]);
        let r = st.intern_route(&link_ids(&[0]));
        let flows: Vec<FlowKey> = (0..8).map(|_| st.add_flow(r, None)).collect();
        let before = st.stats().reallocations;
        st.begin_removals();
        for f in &flows[..4] {
            st.defer_remove(*f);
        }
        st.commit_removals();
        assert_eq!(st.stats().reallocations, before + 1);
        assert_eq!(st.live_flows(), 4);
        assert!((st.rate_bps(flows[7]) - 2.5e8).abs() < 1.0);
        assert!(st.drift_vs_reference() < 1.0);
    }

    #[test]
    fn force_full_matches_incremental() {
        let build = |force: bool| {
            let mut st = state(&[1.0, 2.0, 0.5]);
            st.set_force_full(force);
            let routes = [
                st.intern_route(&link_ids(&[0, 1])),
                st.intern_route(&link_ids(&[1, 2])),
                st.intern_route(&link_ids(&[0])),
                st.intern_route(&link_ids(&[2])),
            ];
            let mut keys = Vec::new();
            for (i, r) in routes.iter().cycle().take(12).enumerate() {
                let demand = if i % 3 == 0 { Some(2.5e8) } else { None };
                keys.push(st.add_flow(*r, demand));
            }
            for k in keys.iter().step_by(3) {
                st.remove_flow(*k);
            }
            (0..st.route_of.len())
                .filter(|&s| st.route_of[s] != NO_ROUTE)
                .map(|s| st.rate[s])
                .collect::<Vec<f64>>()
        };
        let incremental = build(false);
        let full = build(true);
        assert_eq!(incremental.len(), full.len());
        for (a, b) in incremental.iter().zip(&full) {
            assert!((a - b).abs() < 1.0, "incremental {a} vs full {b}");
        }
    }

    #[test]
    fn incremental_saves_waterfill_work() {
        // Many flows on disjoint links: adding one more should not re-touch
        // the others.
        let caps: Vec<f64> = vec![1.0; 64];
        let mut st = state(&caps);
        for l in 0..63u32 {
            let r = st.intern_route(&link_ids(&[l]));
            st.add_flow(r, None);
            st.add_flow(r, None);
        }
        let before = st.stats();
        let r = st.intern_route(&link_ids(&[63]));
        st.add_flow(r, None);
        let after = st.stats();
        assert_eq!(after.full_recomputes, before.full_recomputes);
        // The new flow is alone on its link: waterfill work is O(1), far
        // below the 126 touches a full recompute would spend.
        assert!(
            after.waterfill_touches - before.waterfill_touches < 10,
            "touches {}",
            after.waterfill_touches - before.waterfill_touches
        );
        assert!(st.drift_vs_reference() < 1.0);
    }

    #[test]
    fn slot_reuse_after_drop() {
        let mut st = state(&[1.0]);
        let r = st.intern_route(&link_ids(&[0]));
        let f1 = st.add_flow(r, None);
        st.drop_slot(f1);
        st.rebuild_full();
        let f2 = st.add_flow(r, None);
        assert_eq!(f1.0, f2.0, "slot recycled");
        assert!((st.rate_bps(f2) - 1e9).abs() < 1.0);
    }

    #[test]
    fn empty_route_flow_gets_demand() {
        let mut st = state(&[1.0]);
        let r = st.intern_route(&[]);
        let f = st.add_flow(r, Some(1.23e8));
        assert!((st.rate_bps(f) - 1.23e8).abs() < 1.0);
        assert!(st.drift_vs_reference() < 1.0);
    }

    #[test]
    fn drift_over_a_callers_records_catches_leaks_and_wrong_demands() {
        let mut st = state(&[1.0]);
        let r = st.intern_route(&link_ids(&[0]));
        let capped = st.add_flow(r, Some(1e8));
        let elastic = st.add_flow(r, None);
        let mbps = |m: f64| Some(DataRate::mbps(m));
        assert!(st.drift_over([(capped, mbps(100.0)), (elastic, None)]) < 1.0);
        // The caller meant 200 Mbps: the allocator's 100/900 split is off.
        assert!(st.drift_over([(capped, mbps(200.0)), (elastic, None)]) > 1e8 - 1.0);
        // A live slot the caller does not hold is a leak.
        assert_eq!(st.drift_over([(elastic, None)]), f64::INFINITY);
        // A freed slot the caller still holds is one too.
        st.remove_flow(capped);
        let stale = [(capped, mbps(100.0)), (elastic, None)];
        assert_eq!(st.drift_over(stale), f64::INFINITY);
        assert!(st.drift_over([(elastic, None)]) < 1.0);
    }

    proptest! {
        /// The two-pass round increment equals the exact minimum (every
        /// live link's `residual / users` in array order, then the demand
        /// headroom) bit for bit, on links drawn around the bind test's
        /// edge: near-ties `headroom·users·(1+kε)` for k in −8..=8, zero
        /// and slightly negative residuals, links with no user left
        /// holding any residual, and links with room to spare.
        #[test]
        fn round_increment_is_the_exact_minimum(
            exponent in -6.0f64..12.0,
            links in prop::collection::vec(
                (0u8..8, -8i32..=8, 1u32..=10_000, -2.0f64..2.0),
                0..12,
            ),
        ) {
            let headroom = 10f64.powf(exponent);
            let (mut residual, mut users) = (Vec::new(), Vec::new());
            for &(kind, k, n, x) in &links {
                let n = f64::from(n);
                let share = headroom * n;
                let (r, u) = match kind {
                    0..=2 => (share * (1.0 + f64::from(k) * f64::EPSILON), n),
                    3 => (0.0, n),
                    4 => (-share * x.abs() * 1e-12, n),
                    5 => (share * x * 1e3, 0.0),
                    _ => (share * (1.0 + x.abs()), n),
                };
                residual.push(r);
                users.push(u);
            }
            let exact = residual
                .iter()
                .zip(&users)
                .filter(|&(_, &u)| u > 0.0)
                .fold(f64::INFINITY, |least, (&r, &u)| least.min(r / u))
                .min(headroom);
            let got = round_increment(&residual, &users, headroom);
            prop_assert_eq!(
                got.to_bits(),
                exact.to_bits(),
                "headroom {} links {:?}: got {} want {}",
                headroom,
                links,
                got,
                exact
            );
        }
    }

    #[test]
    fn route_interning_dedups() {
        let mut st = state(&[1.0, 1.0]);
        let a = st.intern_route(&link_ids(&[0, 1]));
        let b = st.intern_route(&link_ids(&[0, 1]));
        let c = st.intern_route(&link_ids(&[1, 0]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(st.route_links(a), &[0, 1]);
    }
}
