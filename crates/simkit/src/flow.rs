//! Flow-level network simulation with max-min fair bandwidth sharing.
//!
//! Instead of simulating individual packets, each active transfer is a
//! *flow* with a byte count and a route (a sequence of [`LinkId`]s). At any
//! instant the rate of every flow is the max-min fair allocation over the
//! current link capacities (the classic *progressive filling* algorithm used
//! by flow-level simulators such as SimGrid). Events happen only when a flow
//! starts, a flow finishes, or a variable-rate link (token bucket) changes
//! state, which makes simulating hundreds of seconds of training traffic
//! cheap while preserving contention behaviour.
//!
//! # Incremental solving
//!
//! The solver is *incremental*: every mutation (flow start/finish/cancel,
//! link rescale, token-bucket drift) marks the links it touched **dirty**,
//! and the next read re-converges only the *dirty component* — the links
//! reachable from the dirty set through shared flows — leaving converged
//! rates elsewhere untouched. Because max-min allocations of disjoint
//! components are independent and the restricted solve performs the exact
//! floating-point operation sequence the global solve would perform on that
//! component, the result is **bit-identical** to a full recompute. A shadow
//! verification mode ([`FlowNet::set_shadow_verify`], or
//! `ZEROSIM_SHADOW=1` for every network) runs the reference full solver
//! next to the incremental one and asserts bitwise rate/demand equality
//! after every solve. It is off by default in every build, so debug and
//! release builds run the same solver code. [`SolverStats`] counters
//! expose how much work each event cost.
//!
//! Converged state is epoch-stamped (one epoch per solve) and cached
//! behind interior mutability, so the read paths ([`FlowNet::flow_rate`],
//! [`FlowNet::link_demand`], [`FlowNet::next_event_in`]) take `&self`.
//!
//! # Storage and ordering
//!
//! Flows live in a slab: a dense vector of slots plus a free list, so a
//! retired flow's slot — and its route buffer — is reused by the next flow
//! started. A live list holds `(FlowId, slot)` pairs in ascending id order.
//! [`FlowId`]s are the monotonic creation sequence and are never reused, so
//! a retired id stops resolving even after its slot is taken again. Every
//! walk whose order can reach a result goes through the live list: observer
//! callbacks, completion lists, and next-event tie-breaks all run in id
//! order. Rates, per-link flow lists, and the dirty set are slot- or
//! link-indexed vectors. The component closure uses epoch marks and scratch
//! buffers kept across solves, then sorts its links by index and its flows
//! by id before progressive filling, which reproduces the reference
//! solver's floating-point operation order. A steady-state start → solve →
//! [`FlowNet::advance`] cycle therefore allocates nothing.
//!
//! Links are unidirectional; model a full-duplex interface as two links.

use std::cell::RefCell;

use crate::bucket::TokenBucket;
use crate::error::SimError;
use crate::record::SolverStats;
use crate::time::SimTime;

/// Identifies a link within a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// The index of this link in creation order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies an active flow within a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

/// Capacity model of a link.
#[derive(Debug, Clone, PartialEq)]
pub enum Capacity {
    /// Constant capacity in bytes/second.
    Fixed(f64),
    /// Token-bucket variable capacity (e.g. an NVMe device with a DRAM
    /// write-back cache).
    Bucketed(TokenBucket),
}

impl Capacity {
    fn current(&self) -> f64 {
        match self {
            Capacity::Fixed(c) => *c,
            Capacity::Bucketed(b) => b.current_rate(),
        }
    }
}

#[derive(Debug, Clone)]
struct LinkState {
    name: String,
    capacity: Capacity,
    /// The capacity the link was created with; fault injection rescales
    /// `capacity` relative to this pristine value and restores from it.
    nominal: Capacity,
    /// Current fault scale relative to `nominal` (1.0 = healthy).
    scale: f64,
}

/// One slab slot. A slot is occupied exactly when it appears in the live
/// list; a free slot keeps its route buffer for the next occupant.
#[derive(Debug, Clone)]
struct FlowState {
    /// The flow occupying this slot (stale once the slot is free).
    id: FlowId,
    route: Vec<LinkId>,
    remaining: f64,
    /// Per-flow rate ceiling (bytes/second), e.g. from the SerDes-pair
    /// degradation model; `f64::INFINITY` when uncapped.
    cap: f64,
}

/// Receives per-link byte accounting as simulated time advances.
///
/// Implementations aggregate the callbacks into whatever statistic they
/// need (time-bucketed utilization, totals, ...). `start` is the simulated
/// time at which the `dt_secs`-long interval began.
pub trait FlowObserver {
    /// Called by [`FlowNet::advance`] once per route entry of each flow
    /// that moved bytes in the interval, with the bytes that flow moved: a
    /// link crossed by several flows gets one call per flow. All calls
    /// from one `advance` share `start` and `dt_secs`.
    fn on_transfer(&mut self, link: LinkId, start: SimTime, dt_secs: f64, bytes: f64);
}

/// A no-op observer for callers that only need flow completion times.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl FlowObserver for NullObserver {
    fn on_transfer(&mut self, _: LinkId, _: SimTime, _: f64, _: f64) {}
}

/// Completion epsilon: flows with fewer residual bytes are finished.
const EPS_BYTES: f64 = 0.5;

/// Event budget for [`FlowNet::drain`]; exceeding it yields
/// [`SimError::SolverDiverged`].
const DRAIN_EVENT_BUDGET: u64 = 10_000_000;

/// Converged solver state, cached behind interior mutability so reads can
/// take `&self`. All fields are private to the flow module.
#[derive(Debug, Clone, Default)]
struct Solver {
    /// Links whose converged state is stale, each listed once; emptied by
    /// each solve.
    dirty: Vec<usize>,
    /// Per-link membership flag for `dirty`.
    is_dirty: Vec<bool>,
    /// Converged per-slot flow rates, valid for `epoch` on occupied slots.
    rates: Vec<f64>,
    /// Converged per-link aggregate demand (bytes/second), valid for
    /// `epoch`.
    demand: Vec<f64>,
    /// The slots whose routes cross each link, once per route entry and in
    /// no particular order: the closure only needs connectivity, and it
    /// sorts what it collects.
    on_link: Vec<Vec<usize>>,
    /// Scratch: residual capacity per link. Only the entries belonging to
    /// the current dirty component are (re)initialized each solve.
    residual: Vec<f64>,
    /// Scratch: unfixed route-entry count per link (counts duplicates).
    unfixed_on_link: Vec<usize>,
    /// Closure marks: a link or slot belongs to the component being solved
    /// when its mark equals that solve's epoch.
    link_mark: Vec<u64>,
    slot_mark: Vec<u64>,
    /// Scratch: the component's links (ascending index) and flows
    /// (ascending id), with the per-flow fill state in component order.
    comp_links: Vec<usize>,
    comp_flows: Vec<(FlowId, usize)>,
    unfixed: Vec<bool>,
    rate_of: Vec<f64>,
    /// Monotonic solve counter stamping the converged state.
    epoch: u64,
    stats: SolverStats,
}

impl Solver {
    fn mark_dirty(&mut self, link: usize) {
        if !self.is_dirty[link] {
            self.is_dirty[link] = true;
            self.dirty.push(link);
        }
    }
}

fn shadow_default() -> bool {
    std::env::var("ZEROSIM_SHADOW").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The flow network: links plus the set of currently active flows.
///
/// ```
/// use zerosim_simkit::flow::{FlowNet, NullObserver};
/// use zerosim_simkit::SimTime;
///
/// let mut net = FlowNet::new();
/// let l = net.add_link("pcie", 64e9);
/// let a = net.start_flow(&[l], 64e9).unwrap(); // 1 s alone
/// let b = net.start_flow(&[l], 64e9).unwrap(); // shares fairly
/// let (dt, done) = net.advance_to_next_event(SimTime::ZERO, &mut NullObserver).unwrap();
/// assert!((dt - 2.0).abs() < 1e-9); // both finish together after 2 s
/// assert_eq!(done, vec![a, b]);
/// ```
#[derive(Debug, Clone)]
pub struct FlowNet {
    links: Vec<LinkState>,
    /// Indices of the token-bucket links, ascending.
    bucketed: Vec<usize>,
    /// The flow slab, indexed by slot.
    slots: Vec<FlowState>,
    /// Unoccupied slots, reused last-in first-out.
    free: Vec<usize>,
    /// Active flows as `(id, slot)`, ascending by id.
    live: Vec<(FlowId, usize)>,
    next_flow: u64,
    solver: RefCell<Solver>,
    /// Run the reference full solver next to the incremental one and assert
    /// bitwise equality (off unless `ZEROSIM_SHADOW` is set).
    shadow: bool,
}

impl Default for FlowNet {
    fn default() -> Self {
        FlowNet {
            links: Vec::new(),
            bucketed: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
            next_flow: 0,
            solver: RefCell::new(Solver::default()),
            shadow: shadow_default(),
        }
    }
}

/// Frees `slot`: unlists it from every link its route crosses, marks those
/// links dirty, and returns the slot to the free list. The caller removes
/// the flow from the live list.
fn release(slots: &[FlowState], free: &mut Vec<usize>, s: &mut Solver, slot: usize) {
    for l in &slots[slot].route {
        let on = &mut s.on_link[l.0];
        if let Some(p) = on.iter().position(|&x| x == slot) {
            on.swap_remove(p);
        }
        s.mark_dirty(l.0);
    }
    free.push(slot);
}

impl FlowNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fixed-capacity link (`bytes_per_sec`) and returns its id.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is not finite and positive.
    pub fn add_link(&mut self, name: impl Into<String>, bytes_per_sec: f64) -> LinkId {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "link capacity must be finite and positive"
        );
        self.push_link(name.into(), Capacity::Fixed(bytes_per_sec))
    }

    /// Adds a token-bucket link and returns its id.
    pub fn add_bucketed_link(&mut self, name: impl Into<String>, bucket: TokenBucket) -> LinkId {
        self.push_link(name.into(), Capacity::Bucketed(bucket))
    }

    fn push_link(&mut self, name: String, capacity: Capacity) -> LinkId {
        let id = LinkId(self.links.len());
        if matches!(capacity, Capacity::Bucketed(_)) {
            self.bucketed.push(id.0);
        }
        self.links.push(LinkState {
            name,
            nominal: capacity.clone(),
            capacity,
            scale: 1.0,
        });
        let s = self.solver.get_mut();
        s.is_dirty.push(false);
        s.demand.push(0.0);
        s.on_link.push(Vec::new());
        s.residual.push(0.0);
        s.unfixed_on_link.push(0);
        s.link_mark.push(0);
        id
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of active flows.
    pub fn flow_count(&self) -> usize {
        self.live.len()
    }

    /// The name given to `link` at creation.
    ///
    /// # Panics
    /// Panics if `link` does not belong to this network.
    pub fn link_name(&self, link: LinkId) -> &str {
        &self.links[link.0].name
    }

    /// Instantaneous capacity of `link` in bytes/second.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.links[link.0].capacity.current()
    }

    /// Aggregate rate of flows currently crossing `link`, in bytes/second.
    ///
    /// Reads the epoch-stamped converged state, lazily re-converging the
    /// dirty component if needed — hence `&self`.
    pub fn link_demand(&self, link: LinkId) -> f64 {
        self.ensure_rates();
        self.solver.borrow().demand[link.0]
    }

    /// Cumulative counters describing how much work the incremental solver
    /// has done on this network.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.borrow().stats
    }

    /// Enables or disables shadow verification: every incremental solve is
    /// followed by a reference full solve and a bitwise equality assert on
    /// all rates and demands. Off by default; setting the `ZEROSIM_SHADOW`
    /// environment variable (to anything but `0`) turns it on at
    /// [`FlowNet::new`] time.
    pub fn set_shadow_verify(&mut self, on: bool) {
        self.shadow = on;
    }

    /// Whether shadow verification is active.
    pub fn shadow_verify(&self) -> bool {
        self.shadow
    }

    /// Starts a flow of `bytes` along `route` and returns its id.
    ///
    /// # Errors
    /// Returns [`SimError::EmptyRoute`] for an empty route,
    /// [`SimError::UnknownLink`] when the route references a link that does
    /// not belong to this network, and [`SimError::NonPositiveFlow`] when
    /// `bytes` is not finite and positive.
    pub fn start_flow(&mut self, route: &[LinkId], bytes: f64) -> Result<FlowId, SimError> {
        self.start_flow_capped(route, bytes, f64::INFINITY)
    }

    /// Starts a flow with an additional per-flow rate ceiling in
    /// bytes/second (the flow never exceeds `cap` even when its links have
    /// spare capacity). Used to model path-specific degradation such as the
    /// EPYC I/O-die SerDes-pair contention.
    ///
    /// # Errors
    /// Same conditions as [`FlowNet::start_flow`], plus
    /// [`SimError::NonPositiveCap`] for a non-positive or NaN `cap`.
    pub fn start_flow_capped(
        &mut self,
        route: &[LinkId],
        bytes: f64,
        cap: f64,
    ) -> Result<FlowId, SimError> {
        if route.is_empty() {
            return Err(SimError::EmptyRoute);
        }
        if !(bytes.is_finite() && bytes > 0.0) {
            return Err(SimError::NonPositiveFlow);
        }
        if cap.is_nan() || cap <= 0.0 {
            return Err(SimError::NonPositiveCap);
        }
        for l in route {
            if l.0 >= self.links.len() {
                return Err(SimError::UnknownLink { link: l.0 });
            }
        }
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let s = self.solver.get_mut();
        let slot = match self.free.pop() {
            Some(slot) => {
                let f = &mut self.slots[slot];
                f.id = id;
                f.route.clear();
                f.route.extend_from_slice(route);
                f.remaining = bytes;
                f.cap = cap;
                slot
            }
            None => {
                self.slots.push(FlowState {
                    id,
                    route: route.to_vec(),
                    remaining: bytes,
                    cap,
                });
                s.rates.push(0.0);
                s.slot_mark.push(0);
                self.slots.len() - 1
            }
        };
        // Ids only grow, so appending keeps the live list sorted.
        self.live.push((id, slot));
        s.rates[slot] = 0.0;
        for l in route {
            s.on_link[l.0].push(slot);
            s.mark_dirty(l.0);
        }
        Ok(id)
    }

    /// The slot of an active flow, or `None` once it has retired.
    fn slot_of(&self, flow: FlowId) -> Option<usize> {
        self.live_pos(flow).map(|k| self.live[k].1)
    }

    /// The position of an active flow in the live list.
    fn live_pos(&self, flow: FlowId) -> Option<usize> {
        self.live.binary_search_by_key(&flow, |&(id, _)| id).ok()
    }

    /// Removes an active flow without completing it (the bytes already moved
    /// stay moved; the remainder is abandoned). Returns `true` if the flow
    /// was active. Used when a node loss aborts a run mid-flight.
    pub fn cancel_flow(&mut self, flow: FlowId) -> bool {
        let Some(k) = self.live_pos(flow) else {
            return false;
        };
        let (_, slot) = self.live.remove(k);
        release(&self.slots, &mut self.free, self.solver.get_mut(), slot);
        true
    }

    /// Rescales `link` to `factor` times its *nominal* (creation-time)
    /// capacity. The factor is absolute, not cumulative: two successive
    /// `scale_link(l, 0.5)` calls leave the link at half capacity, and
    /// `scale_link(l, 1.0)` restores it. For token-bucket links both the
    /// burst and sustained rates are scaled while the token fill is
    /// preserved, so a degraded NVMe device does not forget how much cache
    /// headroom it had. In-flight flows re-converge to the new max-min fair
    /// allocation at the next rate refresh.
    ///
    /// # Errors
    /// Returns [`SimError::UnknownLink`] for a foreign link id and
    /// [`SimError::BadCapacity`] for a non-finite or non-positive factor.
    pub fn scale_link(&mut self, link: LinkId, factor: f64) -> Result<(), SimError> {
        if link.0 >= self.links.len() {
            return Err(SimError::UnknownLink { link: link.0 });
        }
        if !(factor.is_finite() && factor > 0.0) {
            return Err(SimError::BadCapacity { link: link.0 });
        }
        let l = &mut self.links[link.0];
        l.capacity = match (&l.nominal, &mut l.capacity) {
            (Capacity::Fixed(c), _) => Capacity::Fixed(c * factor),
            (Capacity::Bucketed(n), Capacity::Bucketed(live)) => {
                let mut b = live.clone();
                b.set_rates(n.burst_rate() * factor, n.sustained_rate() * factor);
                Capacity::Bucketed(b)
            }
            // A link never changes kind, but stay total: rebuild from the
            // nominal bucket.
            (Capacity::Bucketed(n), _) => {
                let mut b = n.clone();
                b.set_rates(n.burst_rate() * factor, n.sustained_rate() * factor);
                Capacity::Bucketed(b)
            }
        };
        l.scale = factor;
        self.solver.get_mut().mark_dirty(link.0);
        Ok(())
    }

    /// Restores `link` to its nominal capacity (equivalent to
    /// `scale_link(link, 1.0)`).
    ///
    /// # Errors
    /// Returns [`SimError::UnknownLink`] for a foreign link id.
    pub fn restore_link(&mut self, link: LinkId) -> Result<(), SimError> {
        self.scale_link(link, 1.0)
    }

    /// Restores every degraded link to its nominal capacity. Used by
    /// callers that inject faults for one characterization run and want the
    /// network healthy again afterwards. Links already at scale 1.0 are
    /// skipped: restoring them would change nothing but mark them dirty, so
    /// a healthy network stays converged and its solver counters unchanged.
    pub fn restore_all_links(&mut self) {
        for i in 0..self.links.len() {
            if self.links[i].scale != 1.0 {
                // In-range by construction; `scale_link(·, 1.0)` cannot fail.
                let _ = self.restore_link(LinkId(i));
            }
        }
    }

    /// Current fault scale of `link` relative to its nominal capacity
    /// (1.0 = healthy).
    ///
    /// # Panics
    /// Panics if `link` does not belong to this network.
    pub fn link_scale(&self, link: LinkId) -> f64 {
        self.links[link.0].scale
    }

    /// Remaining bytes of `flow`, or `None` once it has completed.
    pub fn flow_remaining(&self, flow: FlowId) -> Option<f64> {
        self.slot_of(flow).map(|slot| self.slots[slot].remaining)
    }

    /// Current max-min fair rate of `flow` in bytes/second, or `None` once
    /// it has completed.
    ///
    /// Reads the epoch-stamped converged state, lazily re-converging the
    /// dirty component if needed — hence `&self`.
    pub fn flow_rate(&self, flow: FlowId) -> Option<f64> {
        self.ensure_rates();
        let slot = self.slot_of(flow)?;
        Some(self.solver.borrow().rates[slot])
    }

    /// Re-converges the dirty component, if any.
    fn ensure_rates(&self) {
        let mut s = self.solver.borrow_mut();
        if s.dirty.is_empty() {
            return;
        }
        self.solve(&mut s);
    }

    /// Incremental progressive-filling max-min fair allocation: expands the
    /// dirty set to its connected component (links joined by shared flows)
    /// and re-solves only that component. Restricted to the component the
    /// floating-point operation sequence is identical to the reference full
    /// solver's, so rates and demands stay bit-identical to a global
    /// recompute (asserted by [`FlowNet::set_shadow_verify`] mode).
    fn solve(&self, s: &mut Solver) {
        // --- Dirty-component closure. -----------------------------------
        // Breadth-first over `comp_links`, which doubles as the work queue;
        // a mark equal to this solve's epoch means "already collected".
        let stamp = s.epoch + 1;
        s.comp_links.clear();
        s.comp_flows.clear();
        for &li in &s.dirty {
            s.link_mark[li] = stamp;
            s.comp_links.push(li);
        }
        let mut head = 0;
        while let Some(&li) = s.comp_links.get(head) {
            head += 1;
            for &slot in &s.on_link[li] {
                if s.slot_mark[slot] == stamp {
                    continue;
                }
                s.slot_mark[slot] = stamp;
                s.comp_flows.push((self.slots[slot].id, slot));
                for l in &self.slots[slot].route {
                    if s.link_mark[l.0] != stamp {
                        s.link_mark[l.0] = stamp;
                        s.comp_links.push(l.0);
                    }
                }
            }
        }
        // Visit order above depends on slab history; the filling below
        // must see links by index and flows by id, as the reference does.
        s.comp_links.sort_unstable();
        s.comp_flows.sort_unstable();

        // --- Restricted progressive filling. ----------------------------
        // Residuals and unfixed counts live in persistent scratch vectors;
        // only component entries are touched. Counting uses the raw routes
        // (duplicates included), matching the reference solver.
        let Solver {
            comp_links,
            comp_flows,
            unfixed,
            rate_of,
            residual,
            unfixed_on_link,
            ..
        } = s;
        for &li in comp_links.iter() {
            residual[li] = self.links[li].capacity.current();
            unfixed_on_link[li] = 0;
        }
        unfixed.clear();
        unfixed.resize(comp_flows.len(), true);
        rate_of.clear();
        rate_of.resize(comp_flows.len(), 0.0);
        for &(_, slot) in comp_flows.iter() {
            for l in &self.slots[slot].route {
                unfixed_on_link[l.0] += 1;
            }
        }

        let mut remaining_unfixed = comp_flows.len();
        while remaining_unfixed > 0 {
            // Bottleneck link: smallest fair share among component links
            // with unfixed flows (ascending index, strict `<`, so ties go
            // to the lowest index — as in the reference solver).
            let mut link_best: Option<(f64, usize)> = None;
            for &li in comp_links.iter() {
                if unfixed_on_link[li] > 0 {
                    let share = (residual[li] / unfixed_on_link[li] as f64).max(0.0);
                    if link_best.is_none_or(|(b, _)| share < b) {
                        link_best = Some((share, li));
                    }
                }
            }
            // Capped flow that would saturate before the link share
            // (ascending flow id, strict `<`).
            let mut cap_best: Option<(f64, usize)> = None;
            for (i, &(_, slot)) in comp_flows.iter().enumerate() {
                if unfixed[i] {
                    let cap = self.slots[slot].cap;
                    if cap.is_finite() && cap_best.is_none_or(|(c, _)| cap < c) {
                        cap_best = Some((cap, i));
                    }
                }
            }

            // The winning cap carries its values through the match, so no
            // later unwrap is needed.
            let cap_winner = match (cap_best, link_best) {
                (Some((c, i)), Some((sh, _))) if c <= sh => Some((c, i)),
                (Some((c, i)), None) => Some((c, i)),
                _ => None,
            };

            if let Some((cap, i)) = cap_winner {
                unfixed[i] = false;
                remaining_unfixed -= 1;
                rate_of[i] = cap;
                for l in &self.slots[comp_flows[i].1].route {
                    residual[l.0] = (residual[l.0] - cap).max(0.0);
                    unfixed_on_link[l.0] -= 1;
                }
                continue;
            }

            let Some((share, bottleneck)) = link_best else {
                break;
            };

            // Fix every unfixed flow crossing the bottleneck at `share`.
            let mut fixed_any = false;
            for (i, &(_, slot)) in comp_flows.iter().enumerate() {
                if !unfixed[i] {
                    continue;
                }
                let route = &self.slots[slot].route;
                if !route.iter().any(|l| l.0 == bottleneck) {
                    continue;
                }
                fixed_any = true;
                unfixed[i] = false;
                remaining_unfixed -= 1;
                rate_of[i] = share;
                for l in route {
                    residual[l.0] = (residual[l.0] - share).max(0.0);
                    unfixed_on_link[l.0] -= 1;
                }
            }
            debug_assert!(fixed_any, "progressive filling made no progress");
            if !fixed_any {
                break;
            }
        }

        // --- Commit the component back into the converged state. --------
        for (i, &(_, slot)) in s.comp_flows.iter().enumerate() {
            s.rates[slot] = s.rate_of[i];
        }
        for &li in &s.comp_links {
            s.demand[li] = (self.links[li].capacity.current() - s.residual[li]).max(0.0);
        }
        let comp = s.comp_links.len();
        s.epoch = stamp;
        s.stats.solves += 1;
        if comp == self.links.len() {
            s.stats.full_solves += 1;
        }
        s.stats.links_touched += comp as u64;
        s.stats.flows_touched += s.comp_flows.len() as u64;
        s.stats.max_component_links = s.stats.max_component_links.max(comp);
        s.stats.last_component_links = comp;
        for &li in &s.dirty {
            s.is_dirty[li] = false;
        }
        s.dirty.clear();

        if self.shadow {
            self.shadow_check(s);
        }
    }

    /// Reference full solver (the pre-incremental algorithm, verbatim
    /// arithmetic): progressive filling over the whole network into fresh
    /// buffers. Returns the rates in live-list (ascending id) order and
    /// the per-link demands. Used by shadow verification.
    fn reference_solve(&self) -> (Vec<f64>, Vec<f64>) {
        let n_links = self.links.len();
        let mut residual: Vec<f64> = self.links.iter().map(|l| l.capacity.current()).collect();
        let mut unfixed_on_link = vec![0usize; n_links];

        let flows: Vec<&FlowState> = self.live.iter().map(|&(_, s)| &self.slots[s]).collect();
        let mut unfixed: Vec<bool> = vec![true; flows.len()];
        let mut rate_of: Vec<f64> = vec![0.0; flows.len()];
        for f in &flows {
            for l in &f.route {
                unfixed_on_link[l.0] += 1;
            }
        }

        let mut remaining_unfixed = flows.len();
        while remaining_unfixed > 0 {
            let mut link_best: Option<(f64, usize)> = None;
            for li in 0..n_links {
                if unfixed_on_link[li] > 0 {
                    let share = (residual[li] / unfixed_on_link[li] as f64).max(0.0);
                    if link_best.is_none_or(|(b, _)| share < b) {
                        link_best = Some((share, li));
                    }
                }
            }
            let mut cap_best: Option<(f64, usize)> = None;
            for (i, f) in flows.iter().enumerate() {
                if unfixed[i] {
                    let cap = f.cap;
                    if cap.is_finite() && cap_best.is_none_or(|(c, _)| cap < c) {
                        cap_best = Some((cap, i));
                    }
                }
            }
            let cap_winner = match (cap_best, link_best) {
                (Some((c, i)), Some((sh, _))) if c <= sh => Some((c, i)),
                (Some((c, i)), None) => Some((c, i)),
                _ => None,
            };
            if let Some((cap, i)) = cap_winner {
                unfixed[i] = false;
                remaining_unfixed -= 1;
                rate_of[i] = cap;
                for l in &flows[i].route {
                    residual[l.0] = (residual[l.0] - cap).max(0.0);
                    unfixed_on_link[l.0] -= 1;
                }
                continue;
            }
            let Some((share, bottleneck)) = link_best else {
                break;
            };
            let mut fixed_any = false;
            for (i, f) in flows.iter().enumerate() {
                if !unfixed[i] {
                    continue;
                }
                if !f.route.iter().any(|l| l.0 == bottleneck) {
                    continue;
                }
                fixed_any = true;
                unfixed[i] = false;
                remaining_unfixed -= 1;
                rate_of[i] = share;
                for l in &f.route {
                    residual[l.0] = (residual[l.0] - share).max(0.0);
                    unfixed_on_link[l.0] -= 1;
                }
            }
            if !fixed_any {
                break;
            }
        }

        let demand: Vec<f64> = self
            .links
            .iter()
            .zip(residual.iter())
            .map(|(l, r)| (l.capacity.current() - r).max(0.0))
            .collect();
        (rate_of, demand)
    }

    /// Asserts bitwise equality between the incremental solver's converged
    /// state and a fresh reference full solve.
    fn shadow_check(&self, s: &Solver) {
        let (ref_rates, ref_demand) = self.reference_solve();
        for (&(id, slot), &reference) in self.live.iter().zip(&ref_rates) {
            let rate = s.rates[slot];
            assert!(
                rate.to_bits() == reference.to_bits(),
                "shadow solver: flow {id:?} rate diverged \
                 (incremental {rate:e}, reference {reference:e}, epoch {})",
                s.epoch,
            );
        }
        for (li, demand) in s.demand.iter().enumerate() {
            let reference = ref_demand[li];
            assert!(
                demand.to_bits() == reference.to_bits(),
                "shadow solver: link {li} ({}) demand diverged \
                 (incremental {demand:e}, reference {reference:e}, epoch {})",
                self.links[li].name,
                s.epoch,
            );
        }
    }

    /// Seconds until the next intrinsic event (a flow completion or a token
    /// bucket transition), or `None` when nothing is in motion.
    pub fn next_event_in(&self) -> Option<f64> {
        self.ensure_rates();
        let s = self.solver.borrow();
        let mut next: Option<f64> = None;
        for &(_, slot) in &self.live {
            let rate = s.rates[slot];
            if rate > 0.0 {
                let t = self.slots[slot].remaining / rate;
                if next.is_none_or(|n| t < n) {
                    next = Some(t);
                }
            }
        }
        for &li in &self.bucketed {
            if let Capacity::Bucketed(b) = &self.links[li].capacity {
                if let Some(t) = b.next_transition(s.demand[li]) {
                    if next.is_none_or(|n| t < n) {
                        next = Some(t);
                    }
                }
            }
        }
        next
    }

    /// Advances the network by exactly `dt_secs`, reporting per-link bytes to
    /// `obs` and appending the flows that completed during the interval to
    /// `done`, in ascending id order. `done` is not cleared first, so one
    /// buffer can serve a whole run without reallocating.
    ///
    /// The caller is responsible for choosing `dt_secs` no larger than
    /// [`FlowNet::next_event_in`]; larger steps lose events (debug builds
    /// assert against overshoot).
    pub fn advance(
        &mut self,
        now: SimTime,
        dt_secs: f64,
        obs: &mut dyn FlowObserver,
        done: &mut Vec<FlowId>,
    ) {
        assert!(dt_secs >= 0.0 && dt_secs.is_finite());
        self.ensure_rates();
        let s = self.solver.get_mut();

        let first = done.len();
        for &(id, slot) in &self.live {
            let rate = s.rates[slot];
            if rate <= 0.0 {
                continue;
            }
            let f = &mut self.slots[slot];
            let bytes = (rate * dt_secs).min(f.remaining);
            f.remaining -= bytes;
            for l in &f.route {
                obs.on_transfer(*l, now, dt_secs, bytes);
            }
            if f.remaining <= EPS_BYTES {
                done.push(id);
            }
        }
        // Buckets drain/refill with the pre-advance demand; their capacity
        // moves with time, so every bucketed link is dirty after a step.
        for &li in &self.bucketed {
            if let Capacity::Bucketed(b) = &mut self.links[li].capacity {
                b.advance(dt_secs, s.demand[li]);
                s.mark_dirty(li);
            }
        }
        // Both lists ascend by id, so one merge pass retires the finished.
        let finished = &done[first..];
        if !finished.is_empty() {
            let mut k = 0;
            self.live.retain(|&(id, slot)| {
                if finished.get(k) != Some(&id) {
                    return true;
                }
                k += 1;
                release(&self.slots, &mut self.free, s, slot);
                false
            });
        }
    }

    /// Convenience driver: advances to the next intrinsic event and returns
    /// `(dt_secs, completed_flows)`, or `None` if no flow is active.
    pub fn advance_to_next_event(
        &mut self,
        now: SimTime,
        obs: &mut dyn FlowObserver,
    ) -> Option<(f64, Vec<FlowId>)> {
        let dt = self.next_event_in()?;
        let mut done = Vec::new();
        self.advance(now, dt, obs, &mut done);
        Some((dt, done))
    }

    /// Runs until every active flow completes, returning total elapsed
    /// seconds. Intended for tests and simple measurements.
    ///
    /// # Errors
    /// Returns [`SimError::SolverDiverged`] if the event budget is exceeded
    /// before every flow retires (the solver is cycling, e.g. a token
    /// bucket oscillating at the completion epsilon).
    pub fn drain(&mut self, obs: &mut dyn FlowObserver) -> Result<f64, SimError> {
        self.drain_with_budget(obs, DRAIN_EVENT_BUDGET)
    }

    fn drain_with_budget(
        &mut self,
        obs: &mut dyn FlowObserver,
        budget: u64,
    ) -> Result<f64, SimError> {
        let mut t = 0.0;
        let mut guard = 0u64;
        while self.flow_count() > 0 {
            match self.advance_to_next_event(SimTime::from_secs(t), obs) {
                Some((dt, _)) => t += dt,
                None => break, // only bucket refills remain
            }
            guard += 1;
            if guard >= budget {
                return Err(SimError::SolverDiverged {
                    iterations: guard,
                    component_links: self.solver.borrow().stats.last_component_links,
                });
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_time(net: &mut FlowNet) -> f64 {
        net.drain(&mut NullObserver).unwrap()
    }

    #[test]
    fn single_flow_is_limited_by_bottleneck() {
        let mut net = FlowNet::new();
        let fast = net.add_link("fast", 100.0);
        let slow = net.add_link("slow", 10.0);
        net.start_flow(&[fast, slow], 100.0).unwrap();
        assert!((drain_time(&mut net) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 10.0);
        let a = net.start_flow(&[l], 50.0).unwrap();
        net.start_flow(&[l], 100.0).unwrap();
        // Both run at 5 B/s; a finishes at t=10, then b runs at 10 B/s.
        let mut t = 0.0;
        let (dt, done) = net
            .advance_to_next_event(SimTime::ZERO, &mut NullObserver)
            .unwrap();
        t += dt;
        assert_eq!(done, vec![a]);
        assert!((t - 10.0).abs() < 1e-9);
        let (dt, _) = net
            .advance_to_next_event(SimTime::from_secs(t), &mut NullObserver)
            .unwrap();
        t += dt;
        assert!((t - 15.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_respects_per_flow_bottlenecks() {
        // Flow A crosses a private 2 B/s link plus the shared 10 B/s link;
        // flow B only crosses the shared link. A gets 2, B gets 8.
        let mut net = FlowNet::new();
        let shared = net.add_link("shared", 10.0);
        let private = net.add_link("private", 2.0);
        let a = net.start_flow(&[private, shared], 100.0).unwrap();
        let b = net.start_flow(&[shared], 100.0).unwrap();
        assert!((net.flow_rate(a).unwrap() - 2.0).abs() < 1e-9);
        assert!((net.flow_rate(b).unwrap() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rates_rebalance_after_completion() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 10.0);
        net.start_flow(&[l], 10.0).unwrap();
        let b = net.start_flow(&[l], 100.0).unwrap();
        net.advance_to_next_event(SimTime::ZERO, &mut NullObserver)
            .unwrap();
        assert!((net.flow_rate(b).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn observer_sees_all_bytes() {
        struct Tally(f64);
        impl FlowObserver for Tally {
            fn on_transfer(&mut self, _: LinkId, _: SimTime, _: f64, bytes: f64) {
                self.0 += bytes;
            }
        }
        let mut net = FlowNet::new();
        let a = net.add_link("a", 7.0);
        let b = net.add_link("b", 13.0);
        net.start_flow(&[a, b], 42.0).unwrap();
        let mut tally = Tally(0.0);
        net.drain(&mut tally).unwrap();
        // Counted once per link on the 2-hop route.
        assert!((tally.0 - 84.0).abs() < 1e-6);
    }

    #[test]
    fn bucketed_link_slows_after_burst() {
        // 10-byte bucket, burst 10 B/s, sustained 2 B/s. A 30-byte flow:
        // phase 1: 10/8 * ... bucket drains after 10/(10-2) = 1.25 s having
        // moved 12.5 bytes; remaining 17.5 bytes at 2 B/s = 8.75 s.
        let mut net = FlowNet::new();
        let l = net.add_bucketed_link("nvme", TokenBucket::new(10.0, 10.0, 2.0));
        net.start_flow(&[l], 30.0).unwrap();
        let t = drain_time(&mut net);
        assert!((t - (1.25 + 8.75)).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn bucket_refills_between_bursts() {
        let mut net = FlowNet::new();
        let l = net.add_bucketed_link("nvme", TokenBucket::new(10.0, 10.0, 2.0));
        net.start_flow(&[l], 10.0).unwrap(); // exactly drains the burst headroom? 10 bytes at 10 B/s = 1 s, draining 8 tokens
        let t1 = drain_time(&mut net);
        assert!((t1 - 1.0).abs() < 1e-6);
        // Idle 4 s -> refills 8 tokens.
        net.advance(
            SimTime::from_secs(t1),
            4.0,
            &mut NullObserver,
            &mut Vec::new(),
        );
        net.start_flow(&[l], 10.0).unwrap();
        let t2 = drain_time(&mut net);
        assert!(
            (t2 - 1.0).abs() < 1e-6,
            "second burst should also be fast: {t2}"
        );
    }

    #[test]
    fn per_flow_cap_limits_rate() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        let capped = net.start_flow_capped(&[l], 100.0, 10.0).unwrap();
        let free = net.start_flow(&[l], 100.0).unwrap();
        assert!((net.flow_rate(capped).unwrap() - 10.0).abs() < 1e-9);
        // The uncapped flow picks up the slack.
        assert!((net.flow_rate(free).unwrap() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn cap_larger_than_share_is_inert() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        let a = net.start_flow_capped(&[l], 100.0, 1000.0).unwrap();
        let b = net.start_flow(&[l], 100.0).unwrap();
        assert!((net.flow_rate(a).unwrap() - 50.0).abs() < 1e-9);
        assert!((net.flow_rate(b).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cap_is_an_error() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        let err = net.start_flow_capped(&[l], 1.0, 0.0).unwrap_err();
        assert_eq!(err, SimError::NonPositiveCap);
        assert!(err.to_string().contains("flow cap must be positive"));
        assert_eq!(net.flow_count(), 0, "rejected flow must not be admitted");
    }

    #[test]
    fn empty_route_is_an_error() {
        let mut net = FlowNet::new();
        let err = net.start_flow(&[], 1.0).unwrap_err();
        assert_eq!(err, SimError::EmptyRoute);
        assert!(err
            .to_string()
            .contains("route must contain at least one link"));
    }

    #[test]
    fn unknown_link_is_an_error() {
        let mut net = FlowNet::new();
        let mut other = FlowNet::new();
        let l = other.add_link("elsewhere", 1.0);
        let err = net.start_flow(&[l], 1.0).unwrap_err();
        assert_eq!(err, SimError::UnknownLink { link: l.index() });
        assert!(err.to_string().contains("unknown link"));
    }

    #[test]
    fn non_positive_bytes_is_an_error() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        assert_eq!(
            net.start_flow(&[l], 0.0).unwrap_err(),
            SimError::NonPositiveFlow
        );
        assert_eq!(
            net.start_flow(&[l], f64::NAN).unwrap_err(),
            SimError::NonPositiveFlow
        );
    }

    #[test]
    fn link_metadata_accessors() {
        let mut net = FlowNet::new();
        let l = net.add_link("nvlink", 25e9);
        assert_eq!(net.link_name(l), "nvlink");
        assert_eq!(net.link_capacity(l), 25e9);
        assert_eq!(net.link_count(), 1);
        assert_eq!(net.flow_count(), 0);
        net.start_flow(&[l], 1.0).unwrap();
        assert!((net.link_demand(l) - 25e9).abs() < 1.0);
    }

    #[test]
    fn scale_link_rebalances_in_flight_flows() {
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 10.0);
        let f = net.start_flow(&[l], 100.0).unwrap();
        assert!((net.flow_rate(f).unwrap() - 10.0).abs() < 1e-9);
        net.scale_link(l, 0.5).unwrap();
        assert!((net.flow_rate(f).unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(net.link_scale(l), 0.5);
        net.restore_link(l).unwrap();
        assert!((net.flow_rate(f).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(net.link_scale(l), 1.0);
        assert_eq!(net.link_capacity(l), 10.0);
    }

    #[test]
    fn scale_link_is_absolute_not_cumulative() {
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 10.0);
        net.scale_link(l, 0.5).unwrap();
        net.scale_link(l, 0.5).unwrap();
        assert_eq!(net.link_capacity(l), 5.0);
    }

    #[test]
    fn restore_all_links_leaves_healthy_links_converged() {
        let mut net = FlowNet::new();
        let healthy = net.add_link("nvlink", 10.0);
        let degraded = net.add_link("roce", 10.0);
        net.start_flow(&[healthy], 100.0).unwrap();
        net.scale_link(degraded, 0.5).unwrap();
        net.link_demand(healthy);
        let solves = net.solver_stats().solves;
        net.restore_all_links();
        assert_eq!(net.link_capacity(degraded), 10.0);
        net.link_demand(healthy);
        assert_eq!(net.solver_stats().last_component_links, 1, "only roce");
        // A fully healthy network has nothing to restore and nothing to solve.
        net.restore_all_links();
        net.link_demand(healthy);
        assert_eq!(net.solver_stats().solves, solves + 1);
    }

    #[test]
    fn degraded_link_stretches_completion() {
        // 100 bytes over a 10 B/s link degraded to 5 B/s after 4 s:
        // 40 bytes move in the first phase, the remaining 60 take 12 s.
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 10.0);
        net.start_flow(&[l], 100.0).unwrap();
        net.advance(SimTime::ZERO, 4.0, &mut NullObserver, &mut Vec::new());
        net.scale_link(l, 0.5).unwrap();
        let t = net.drain(&mut NullObserver).unwrap();
        assert!((t - 12.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn scale_bucketed_link_preserves_tokens() {
        let mut net = FlowNet::new();
        let l = net.add_bucketed_link("nvme", TokenBucket::new(10.0, 10.0, 2.0));
        net.start_flow(&[l], 100.0).unwrap();
        // Drain half the tokens: serving at 10 while sustaining 2 drains
        // 8 tokens/s -> 0.625 s drains 5 tokens.
        net.advance(SimTime::ZERO, 0.625, &mut NullObserver, &mut Vec::new());
        net.scale_link(l, 0.5).unwrap();
        // Burst rate halves but the device still has burst headroom left.
        assert_eq!(net.link_capacity(l), 5.0);
        net.restore_link(l).unwrap();
        assert_eq!(net.link_capacity(l), 10.0);
    }

    #[test]
    fn scale_link_rejects_bad_input() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 10.0);
        assert_eq!(
            net.scale_link(l, 0.0).unwrap_err(),
            SimError::BadCapacity { link: l.index() }
        );
        assert_eq!(
            net.scale_link(LinkId(7), 0.5).unwrap_err(),
            SimError::UnknownLink { link: 7 }
        );
    }

    #[test]
    fn cancel_flow_releases_bandwidth() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 10.0);
        let a = net.start_flow(&[l], 100.0).unwrap();
        let b = net.start_flow(&[l], 100.0).unwrap();
        assert!((net.flow_rate(b).unwrap() - 5.0).abs() < 1e-9);
        assert!(net.cancel_flow(a));
        assert!(!net.cancel_flow(a), "second cancel is a no-op");
        assert!((net.flow_rate(b).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(net.flow_count(), 1);
    }

    // --- Incremental-solver behaviour. ----------------------------------

    #[test]
    fn reads_take_shared_references() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 10.0);
        let f = net.start_flow(&[l], 100.0).unwrap();
        // All three read paths work through &FlowNet even with a pending
        // dirty set (the converged state is cached behind a RefCell).
        let shared: &FlowNet = &net;
        assert!((shared.flow_rate(f).unwrap() - 10.0).abs() < 1e-9);
        assert!((shared.link_demand(l) - 10.0).abs() < 1e-9);
        assert!((shared.next_event_in().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn solver_recomputes_only_the_dirty_component() {
        let mut net = FlowNet::new();
        // Two disjoint clusters of two links each.
        let a0 = net.add_link("a0", 10.0);
        let a1 = net.add_link("a1", 10.0);
        let b0 = net.add_link("b0", 10.0);
        let b1 = net.add_link("b1", 10.0);
        net.start_flow(&[a0, a1], 100.0).unwrap();
        net.start_flow(&[b0, b1], 100.0).unwrap();
        let fa = net.start_flow(&[a0], 100.0).unwrap();
        assert!(net.flow_rate(fa).is_some());
        // That last read converged everything; a new flow on the B side
        // must only re-touch the B component.
        let solves = net.solver_stats().solves;
        let fb = net.start_flow(&[b1], 100.0).unwrap();
        assert!(net.flow_rate(fb).is_some());
        let stats = net.solver_stats();
        assert_eq!(stats.solves, solves + 1);
        assert_eq!(
            stats.last_component_links, 2,
            "B-side event must not touch the A-side links: {stats:?}"
        );
        assert!(stats.max_component_links <= 4);
    }

    #[test]
    fn component_closure_follows_shared_flows() {
        let mut net = FlowNet::new();
        let l0 = net.add_link("l0", 10.0);
        let l1 = net.add_link("l1", 10.0);
        let l2 = net.add_link("l2", 10.0);
        // Chain: f01 joins l0-l1, f12 joins l1-l2.
        net.start_flow(&[l0, l1], 1e6).unwrap();
        net.start_flow(&[l1, l2], 1e6).unwrap();
        net.flow_rate(FlowId(0)).unwrap();
        // Dirtying l0 must pull in the whole chain through shared flows.
        net.scale_link(l0, 0.5).unwrap();
        net.link_demand(l2);
        assert_eq!(net.solver_stats().last_component_links, 3);
    }

    #[test]
    fn shadow_verify_toggles_and_defaults() {
        let mut net = FlowNet::new();
        // Whatever the environment default, the toggle must win.
        net.set_shadow_verify(true);
        assert!(net.shadow_verify());
        let l = net.add_link("l", 10.0);
        let f = net.start_flow(&[l], 100.0).unwrap();
        assert!((net.flow_rate(f).unwrap() - 10.0).abs() < 1e-9);
        net.set_shadow_verify(false);
        assert!(!net.shadow_verify());
    }

    #[test]
    fn drain_reports_divergence_instead_of_panicking() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 10.0);
        // Three sequential completions need three events; a budget of two
        // must surface a typed divergence error, not a panic.
        net.start_flow(&[l], 10.0).unwrap();
        net.start_flow(&[l], 20.0).unwrap();
        net.start_flow(&[l], 30.0).unwrap();
        let err = net
            .drain_with_budget(&mut NullObserver, 2)
            .expect_err("budget of 2 cannot retire 3 staggered flows");
        match err {
            SimError::SolverDiverged {
                iterations,
                component_links,
            } => {
                assert_eq!(iterations, 2);
                assert!(component_links >= 1);
            }
            other => panic!("expected SolverDiverged, got {other:?}"),
        }
    }

    #[test]
    fn unused_links_report_zero_demand_after_completion() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 10.0);
        net.start_flow(&[l], 10.0).unwrap();
        assert!((net.link_demand(l) - 10.0).abs() < 1e-9);
        net.drain(&mut NullObserver).unwrap();
        assert_eq!(net.flow_count(), 0);
        assert_eq!(net.link_demand(l), 0.0);
    }

    #[test]
    fn duplicate_route_entries_count_twice_in_sharing() {
        // A route that visits the same link twice consumes two shares of
        // it, in both the incremental and the reference solver.
        let mut net = FlowNet::new();
        net.set_shadow_verify(true);
        let l = net.add_link("l", 10.0);
        let doubled = net.start_flow(&[l, l], 100.0).unwrap();
        let single = net.start_flow(&[l], 100.0).unwrap();
        // Fair share per route-entry: 10/3; the doubled flow gets one
        // share, the single flow gets one share... progressive filling
        // fixes both at the bottleneck share of 10/3.
        let r0 = net.flow_rate(doubled).unwrap();
        let r1 = net.flow_rate(single).unwrap();
        assert!((r0 - 10.0 / 3.0).abs() < 1e-9, "r0 = {r0}");
        assert!((r1 - 10.0 / 3.0).abs() < 1e-9, "r1 = {r1}");
    }
}
