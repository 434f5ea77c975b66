//! The discrete-event executor: runs a [`Dag`] against a [`FlowNet`] and a
//! set of compute resources.
//!
//! Compute tasks occupy resource slots (FIFO when oversubscribed), transfer
//! tasks become flows whose rates are continuously re-balanced by the
//! max-min fair solver, and the engine advances virtual time from event to
//! event. Multiple runs may share one engine and one network so that
//! back-to-back training iterations keep a continuous clock (and token
//! buckets keep their state).
//!
//! # One event loop
//!
//! Every run goes through [`DagEngine::run_faulted`]. Each turn of its loop
//! applies the faults due at the current instant, launches every ready
//! task, then advances virtual time to the earliest of the timer heap, the
//! flow network's next completion, and the next scheduled fault. Finished
//! flows retire in ascending flow-id order, then due timers in
//! `(time, seq)` order; every retirement immediately releases its slot and
//! readies its successors. That ordering is the whole determinism contract:
//! the same DAG, network state, and fault cursor always yield the same
//! completion times, span log, and event sequence numbers. Per-run work
//! counters are reported via [`EngineStats`].
//!
//! # Run state
//!
//! The loop's bookkeeping (in-degrees, the ready queue, per-resource free
//! slots and wait queues, the timer heap, the in-flight flow map, and the
//! per-task start and finish times) lives as long as the engine. Each run
//! clears it, keeping its storage, so back-to-back runs on one engine
//! allocate only when a DAG outgrows every earlier one. Clearing also
//! drops whatever an interrupted run left behind.

use std::collections::{BinaryHeap, HashMap, VecDeque};

use crate::dag::{Dag, TaskId, TaskKind};
use crate::error::SimError;
use crate::fault::{FaultCursor, FaultKind};
use crate::flow::{FlowId, FlowNet, FlowObserver};
use crate::record::{EngineStats, SpanLog};
use crate::time::SimTime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    TaskDone(TaskId),
    FlowStart(TaskId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on (time, seq).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One compute resource: its configuration, its service rate, and the
/// slot bookkeeping of the current run.
#[derive(Debug)]
struct ResourceState {
    /// Concurrent slots the resource was configured with.
    slots: usize,
    /// Service-rate factor (1.0 = nominal). Mutated by
    /// [`FaultKind::SlowResource`] / [`FaultKind::RestoreResource`] events
    /// and persistent across runs, so a straggler stays slow from iteration
    /// to iteration until explicitly restored.
    scale: f64,
    /// Slots free in the current run.
    free_slots: usize,
    /// Tasks of the current run queued for a slot, in FIFO order.
    waiting: VecDeque<TaskId>,
}

/// The event loop's per-run bookkeeping, kept between runs so its storage
/// is reused. [`RunState::reset`] prepares it for a new DAG.
#[derive(Debug, Default)]
struct RunState {
    /// Unfinished predecessors per task.
    indeg: Vec<usize>,
    /// Tasks whose predecessors have all finished, in FIFO order.
    ready: VecDeque<TaskId>,
    /// Pending task completions and delayed flow starts.
    heap: BinaryHeap<Event>,
    /// The task of each flow this run has in flight.
    flow_task: HashMap<FlowId, TaskId>,
    /// Most flows any run has had in flight at once.
    flows_peak: usize,
    /// Flows finished by one network step (and, on a node loss, the flows
    /// to cancel).
    done_flows: Vec<FlowId>,
    task_start: Vec<SimTime>,
    task_finish: Vec<SimTime>,
}

impl RunState {
    /// Clears everything an earlier run left behind, keeping the storage,
    /// and seeds the in-degrees and the ready queue from `dag`.
    fn reset(&mut self, dag: &Dag) {
        let n = dag.len();
        self.indeg.clear();
        self.indeg
            .extend((0..n).map(|i| dag.preds(TaskId(i)).len()));
        self.ready.clear();
        let indeg = &self.indeg;
        self.ready
            .extend((0..n).map(TaskId).filter(|t| indeg[t.0] == 0));
        self.heap.clear();
        self.flow_task.clear();
        // Room for twice the peak: removals leave tombstones, and a map at
        // most half full clears them by rehashing in place, where a fuller
        // one would grow.
        self.flow_task.reserve(2 * self.flows_peak);
        self.done_flows.clear();
        self.task_start.clear();
        self.task_start.resize(n, SimTime::ZERO);
        self.task_finish.clear();
        self.task_finish.resize(n, SimTime::ZERO);
    }
}

/// Result of executing one DAG. Per-task finish times stay on the engine
/// ([`DagEngine::task_finish`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Time at which the run began.
    pub started: SimTime,
    /// Time at which the last task finished (or, for an interrupted run,
    /// the time of the interrupting fault).
    pub finished: SimTime,
    /// True when a [`FaultKind::NodeLoss`] aborted the run before every
    /// task finished. The work of this run is lost; a resilience layer
    /// models restart-from-checkpoint and replay.
    pub interrupted: bool,
}

impl RunOutcome {
    /// Wall-clock (virtual) duration of the run.
    pub fn makespan(&self) -> SimTime {
        self.finished - self.started
    }
}

/// Executes DAGs on a fixed set of compute resources.
///
/// ```
/// use zerosim_simkit::dag::{DagBuilder, ResourceId};
/// use zerosim_simkit::engine::DagEngine;
/// use zerosim_simkit::flow::FlowNet;
/// use zerosim_simkit::SimTime;
///
/// # fn main() -> Result<(), zerosim_simkit::SimError> {
/// let mut net = FlowNet::new();
/// let link = net.add_link("pcie", 100.0);
/// let mut b = DagBuilder::new();
/// let c = b.compute(ResourceId(0), SimTime::from_ms(1.0), "gemm", &[]);
/// b.transfer(&[link], 100.0, SimTime::ZERO, "h2d", 0, &[c]);
/// let dag = b.build();
///
/// let mut engine = DagEngine::new(vec![1]); // one GPU, one slot
/// let outcome = engine.run(&mut net, &dag, SimTime::ZERO, None)?;
/// assert_eq!(outcome.makespan(), SimTime::from_ms(1.0) + SimTime::from_secs(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DagEngine {
    resources: Vec<ResourceState>,
    spans: SpanLog,
    seq: u64,
    stats: EngineStats,
    run: RunState,
}

/// Stretches a compute duration by the inverse of a service-rate factor.
///
/// `scale == 1.0` is an exact no-op (bit-identical to the unscaled
/// duration), which is what keeps fault-free runs byte-identical to the
/// pre-fault-injection engine.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // ns fit u64
fn scale_duration(scale: f64, d: SimTime) -> SimTime {
    if scale == 1.0 {
        d
    } else {
        SimTime::from_nanos((d.as_nanos() as f64 / scale).round() as u64)
    }
}

impl DagEngine {
    /// Creates an engine with `slot_counts[i]` concurrent slots on resource
    /// `ResourceId(i)`.
    ///
    /// # Panics
    /// Panics if any slot count is zero.
    pub fn new(slot_counts: Vec<usize>) -> Self {
        assert!(
            slot_counts.iter().all(|&s| s > 0),
            "every resource needs at least one slot"
        );
        DagEngine {
            resources: slot_counts
                .into_iter()
                .map(|slots| ResourceState {
                    slots,
                    scale: 1.0,
                    free_slots: slots,
                    waiting: VecDeque::new(),
                })
                .collect(),
            spans: SpanLog::new(),
            seq: 0,
            stats: EngineStats::default(),
            run: RunState::default(),
        }
    }

    /// Work counters accumulated across all runs of this engine.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Current service-rate factor of resource `resource` (1.0 = nominal).
    ///
    /// # Panics
    /// Panics if `resource` is out of range.
    pub fn resource_scale(&self, resource: usize) -> f64 {
        self.resources[resource].scale
    }

    /// Per-task completion times of the last run, indexed by
    /// [`TaskId::index`]. Tasks that never finished (interrupted run)
    /// report [`SimTime::ZERO`]; before the first run the slice is empty.
    pub fn task_finish(&self) -> &[SimTime] {
        &self.run.task_finish
    }

    /// Timeline spans accumulated across all runs so far.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Takes ownership of the accumulated spans, leaving the log empty.
    pub fn take_spans(&mut self) -> SpanLog {
        std::mem::take(&mut self.spans)
    }

    /// Empties the span log but keeps its storage, for callers that never
    /// read spans and run many DAGs on one engine.
    pub fn clear_spans(&mut self) {
        self.spans.clear();
    }

    /// Executes `dag` starting at `start`, observing transfers with `obs`
    /// when provided.
    ///
    /// # Errors
    /// Returns [`SimError::Deadlock`] if tasks remain unfinished when no
    /// event can make progress (an impossible dependency given the DAG
    /// builder, but background flows in `net` could in principle starve a
    /// token bucket forever) and [`SimError::UnknownResource`] if a compute
    /// task names a resource the engine was not configured with.
    pub fn run(
        &mut self,
        net: &mut FlowNet,
        dag: &Dag,
        start: SimTime,
        obs: Option<&mut dyn FlowObserver>,
    ) -> Result<RunOutcome, SimError> {
        self.run_faulted(net, dag, start, obs, &mut FaultCursor::empty())
    }

    /// Executes `dag` starting at `start` while consuming due events from
    /// `faults`.
    ///
    /// Fault times are first-class event candidates: the engine advances
    /// virtual time to the earliest of the timer heap, the flow network,
    /// and the next fault, so a link rescale takes effect exactly at its
    /// scheduled instant and in-flight flows re-converge to the new max-min
    /// fair allocation from that point on. Events at the same instant are
    /// ordered: finished work is retired first, then faults apply, then
    /// newly ready tasks launch (under the post-fault service rates).
    ///
    /// A [`FaultKind::NodeLoss`] aborts the run at its firing time: flows
    /// this run started are cancelled (bytes already moved stay moved) and
    /// the returned outcome has [`RunOutcome::interrupted`] set. The cursor
    /// keeps its position across calls, so one schedule spans a whole
    /// multi-iteration simulation on a continuous clock.
    ///
    /// With an exhausted cursor this is exactly [`DagEngine::run`]: the
    /// fault hooks are bit-level no-ops, which keeps healthy runs
    /// byte-identical to the pre-fault-injection engine.
    ///
    /// # Errors
    /// Same conditions as [`DagEngine::run`], plus the [`SimError`]s of
    /// [`FlowNet::scale_link`] for malformed link events and
    /// [`SimError::BadRateFactor`] / [`SimError::UnknownResource`] for
    /// malformed resource events.
    pub fn run_faulted(
        &mut self,
        net: &mut FlowNet,
        dag: &Dag,
        start: SimTime,
        obs: Option<&mut dyn FlowObserver>,
        faults: &mut FaultCursor,
    ) -> Result<RunOutcome, SimError> {
        // Backstop against pathological event storms (e.g. a token bucket
        // oscillating at nanosecond granularity): proportional to DAG size
        // plus a generous constant for background-flow churn.
        let budget = 10_000_000u64 + 200 * dag.len() as u64;
        self.run_faulted_with_budget(net, dag, start, obs, faults, budget)
    }

    /// [`DagEngine::run_faulted`] with an explicit event budget: the run
    /// fails with [`SimError::EventLimit`] once its loop turns more than
    /// `budget` times.
    fn run_faulted_with_budget(
        &mut self,
        net: &mut FlowNet,
        dag: &Dag,
        start: SimTime,
        mut obs: Option<&mut dyn FlowObserver>,
        faults: &mut FaultCursor,
        budget: u64,
    ) -> Result<RunOutcome, SimError> {
        // Validates resources up front so the error is immediate.
        for t in dag.task_ids() {
            if let TaskKind::Compute { resource, .. } = &dag.task(t).kind {
                if resource.0 >= self.resources.len() {
                    return Err(SimError::UnknownResource {
                        resource: resource.0,
                    });
                }
            }
        }

        let n = dag.len();
        self.run.reset(dag);
        for rs in &mut self.resources {
            rs.free_slots = rs.slots;
            rs.waiting.clear();
        }
        let DagEngine {
            resources,
            spans,
            seq,
            stats,
            run:
                RunState {
                    indeg,
                    ready,
                    heap,
                    flow_task,
                    flows_peak,
                    done_flows,
                    task_start,
                    task_finish,
                },
        } = self;
        let mut finished = 0usize;
        let mut now = start;
        let mut interrupted = false;

        stats.runs += 1;

        macro_rules! finish_task {
            ($t:expr) => {{
                let t: TaskId = $t;
                task_finish[t.0] = now;
                let spec = dag.task(t);
                if let (Some(label), Some(track)) = (spec.label, spec.track) {
                    spans.push(track, label, task_start[t.0], now);
                }
                if let TaskKind::Compute { resource, .. } = &spec.kind {
                    let rs = &mut resources[resource.0];
                    if let Some(next) = rs.waiting.pop_front() {
                        // Hand the slot directly to the next waiter.
                        task_start[next.0] = now;
                        if let TaskKind::Compute { duration, .. } = &dag.task(next).kind {
                            *seq += 1;
                            heap.push(Event {
                                at: now + scale_duration(rs.scale, *duration),
                                seq: *seq,
                                kind: EventKind::TaskDone(next),
                            });
                        }
                    } else {
                        rs.free_slots += 1;
                    }
                }
                finished += 1;
                stats.tasks_finished += 1;
                for &s in dag.succs(t) {
                    indeg[s.0] -= 1;
                    if indeg[s.0] == 0 {
                        ready.push_back(s);
                    }
                }
            }};
        }

        macro_rules! start_flow_for {
            ($t:expr) => {{
                let t: TaskId = $t;
                if let TaskKind::Transfer {
                    route, bytes, cap, ..
                } = &dag.task(t).kind
                {
                    let fid = net.start_flow_capped(dag.route(*route), *bytes, *cap)?;
                    flow_task.insert(fid, t);
                    *flows_peak = (*flows_peak).max(flow_task.len());
                    stats.flows_started += 1;
                }
            }};
        }

        let mut events = 0u64;
        loop {
            events += 1;
            stats.ticks += 1;
            if events > budget {
                return Err(SimError::EventLimit { budget });
            }
            // Apply every fault due at (or before) the current clock before
            // launching new work, so tasks that become ready at a fault
            // instant start under the post-fault service rates and a node
            // loss pre-empts them entirely. Events left over from an
            // aborted previous run (e.g. a restore that fired while a node
            // was rebooting) are caught up here as well.
            let mut lost_node = false;
            while let Some(ev) = faults.next_due(now) {
                match &ev.kind {
                    FaultKind::ScaleLink { link, factor } => net.scale_link(*link, *factor)?,
                    FaultKind::RestoreLink { link } => net.restore_link(*link)?,
                    FaultKind::SlowResource { resource, factor } => {
                        let Some(rs) = resources.get_mut(*resource) else {
                            return Err(SimError::UnknownResource {
                                resource: *resource,
                            });
                        };
                        if !(factor.is_finite() && *factor > 0.0) {
                            return Err(SimError::BadRateFactor {
                                resource: *resource,
                            });
                        }
                        rs.scale = *factor;
                    }
                    FaultKind::RestoreResource { resource } => {
                        let Some(rs) = resources.get_mut(*resource) else {
                            return Err(SimError::UnknownResource {
                                resource: *resource,
                            });
                        };
                        rs.scale = 1.0;
                    }
                    FaultKind::NodeLoss { .. } => {
                        lost_node = true;
                        break;
                    }
                }
            }
            if lost_node {
                // Abandon the run: in-flight transfers this run started are
                // torn down (bytes already moved stay observed), pending
                // tasks never finish. Recovery — restart-from-checkpoint and
                // replay — is modelled by the caller. Flows are cancelled
                // in id order so the teardown never depends on hash order.
                done_flows.clear();
                done_flows.extend(flow_task.drain().map(|(fid, _)| fid));
                done_flows.sort_unstable();
                for &fid in done_flows.iter() {
                    net.cancel_flow(fid);
                }
                interrupted = true;
                break;
            }
            // Launch everything that is ready. Markers finish (and ready
            // their successors) inline, so marker chains drain within one
            // launch sweep.
            while let Some(t) = ready.pop_front() {
                task_start[t.0] = now;
                match &dag.task(t).kind {
                    TaskKind::Marker => finish_task!(t),
                    TaskKind::Delay { duration } => {
                        *seq += 1;
                        heap.push(Event {
                            at: now + *duration,
                            seq: *seq,
                            kind: EventKind::TaskDone(t),
                        });
                    }
                    TaskKind::Compute { resource, duration } => {
                        let rs = &mut resources[resource.0];
                        if rs.free_slots > 0 {
                            rs.free_slots -= 1;
                            *seq += 1;
                            heap.push(Event {
                                at: now + scale_duration(rs.scale, *duration),
                                seq: *seq,
                                kind: EventKind::TaskDone(t),
                            });
                        } else {
                            rs.waiting.push_back(t);
                        }
                    }
                    TaskKind::Transfer { latency, .. } => {
                        if latency.is_zero() {
                            start_flow_for!(t);
                        } else {
                            *seq += 1;
                            heap.push(Event {
                                at: now + *latency,
                                seq: *seq,
                                kind: EventKind::FlowStart(t),
                            });
                        }
                    }
                }
            }

            if finished == n {
                break;
            }

            // Next event: earliest of timer heap, flow-network events, and
            // the next scheduled fault (all strictly in the future — due
            // faults were consumed above, due timers fired below).
            let timer_at = heap.peek().map(|e| e.at);
            let flow_at = net.next_event_in().map(|dt| {
                // Positive, finite, and bounded by the horizon: exact in u64.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let ns = (dt * 1e9).ceil().max(1.0) as u64;
                now + SimTime::from_nanos(ns)
            });
            let fault_at = faults.peek_at();
            let Some(t_next) = [timer_at, flow_at, fault_at].into_iter().flatten().min() else {
                return Err(SimError::Deadlock {
                    pending: n - finished,
                });
            };

            // Advance the network to t_next.
            let dt_secs = (t_next - now).as_secs();
            done_flows.clear();
            match obs.as_deref_mut() {
                Some(o) => net.advance(now, dt_secs, o, done_flows),
                None => net.advance(now, dt_secs, &mut crate::flow::NullObserver, done_flows),
            }
            now = t_next;
            for &fid in done_flows.iter() {
                if let Some(t) = flow_task.remove(&fid) {
                    finish_task!(t);
                }
                // Foreign (background) flows complete silently.
            }

            // Fire all timer events scheduled exactly at t_next. Pop first
            // and push back when not yet due, which keeps this loop free of
            // a peek-then-pop unwrap.
            while let Some(ev) = heap.pop() {
                if ev.at > now {
                    heap.push(ev);
                    break;
                }
                match ev.kind {
                    EventKind::TaskDone(t) => finish_task!(t),
                    EventKind::FlowStart(t) => start_flow_for!(t),
                }
            }
        }

        Ok(RunOutcome {
            started: start,
            finished: now,
            interrupted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{DagBuilder, ResourceId};
    use crate::flow::LinkId;
    use crate::record::BandwidthRecorder;

    fn ms(v: f64) -> SimTime {
        SimTime::from_ms(v)
    }

    #[test]
    fn serial_compute_chain() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        let a = b.compute(ResourceId(0), ms(1.0), "a", &[]);
        let c = b.compute(ResourceId(0), ms(2.0), "b", &[a]);
        let _ = c;
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out.makespan(), ms(3.0));
    }

    #[test]
    fn slot_contention_serializes() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), ms(1.0), "a", &[]);
        b.compute(ResourceId(0), ms(1.0), "b", &[]);
        b.compute(ResourceId(0), ms(1.0), "c", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out.makespan(), ms(3.0));

        let mut eng2 = DagEngine::new(vec![3]);
        let out2 = eng2.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out2.makespan(), ms(1.0));
    }

    #[test]
    fn transfer_with_latency() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 1000.0);
        let mut b = DagBuilder::new();
        b.transfer(&[l], 1000.0, ms(5.0), "x", 0, &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        // 5 ms latency + 1 s transfer.
        let secs = out.makespan().as_secs();
        assert!((secs - 1.005).abs() < 1e-6, "got {secs}");
    }

    #[test]
    fn compute_overlaps_transfer() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), SimTime::from_secs(1.0), "gemm", &[]);
        b.transfer(&[l], 100.0, SimTime::ZERO, "comm", 0, &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert!((out.makespan().as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn diamond_dependencies() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        let root = b.compute(ResourceId(0), ms(1.0), "root", &[]);
        let left = b.compute(ResourceId(0), ms(2.0), "left", &[root]);
        let right = b.compute(ResourceId(1), ms(3.0), "right", &[root]);
        b.marker(&[left, right]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1, 1]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out.makespan(), ms(4.0));
    }

    #[test]
    fn spans_are_recorded() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), ms(2.0), "gemm", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        let spans = eng.spans().track(0);
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].label, spans[0].end - spans[0].start),
            ("gemm", ms(2.0))
        );
    }

    #[test]
    fn unknown_resource_is_an_error() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(5), ms(1.0), "x", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let err = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap_err();
        assert!(matches!(err, SimError::UnknownResource { resource: 5 }));
    }

    #[test]
    fn observer_records_transfer_bytes() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 1000.0);
        let mut b = DagBuilder::new();
        b.transfer(&[l], 500.0, SimTime::ZERO, "x", 0, &[]);
        let dag = b.build();
        let mut rec = BandwidthRecorder::new(ms(100.0));
        let mut eng = DagEngine::new(vec![]);
        eng.run(&mut net, &dag, SimTime::ZERO, Some(&mut rec))
            .unwrap();
        assert!((rec.total_bytes(l) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn two_transfers_share_bandwidth() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        let mut b = DagBuilder::new();
        b.transfer(&[l], 100.0, SimTime::ZERO, "x", 0, &[]);
        b.transfer(&[l], 100.0, SimTime::ZERO, "y", 0, &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert!((out.makespan().as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_dag_completes_instantly() {
        let mut net = FlowNet::new();
        let dag = DagBuilder::new().build();
        let mut eng = DagEngine::new(vec![]);
        let out = eng.run(&mut net, &dag, ms(7.0), None).unwrap();
        assert_eq!(out.makespan(), SimTime::ZERO);
        assert_eq!(out.started, ms(7.0));
    }

    /// A DAG exercising every task kind with slot contention and shared
    /// links: the shape most likely to expose an event-ordering bug.
    fn mixed_dag(b: &mut DagBuilder, l: LinkId) {
        let root = b.delay(ms(1.0), &[]);
        let mut joins = Vec::new();
        for i in 0..8 {
            let c = b.compute(ResourceId(i % 2), ms(2.0 + i as f64), "k", &[root]);
            let t = b.transfer(&[l], 300.0 + 10.0 * i as f64, ms(0.5), "x", 0, &[c]);
            joins.push(t);
        }
        let m = b.marker(&joins);
        b.compute(ResourceId(0), ms(1.0), "tail", &[m]);
    }

    #[test]
    fn contended_mixed_dag_replays_identically() {
        let mut build = DagBuilder::new();
        let mut net = FlowNet::new();
        let l = net.add_link("l", 1000.0);
        mixed_dag(&mut build, l);
        let dag = build.build();
        let run = || {
            let mut eng = DagEngine::new(vec![2, 1]);
            let out = eng
                .run(&mut net.clone(), &dag, SimTime::ZERO, None)
                .unwrap();
            (out, eng)
        };
        let (a, eng_a) = run();
        let (b, eng_b) = run();
        assert_eq!(a.finished, b.finished);
        assert_eq!(eng_a.task_finish(), eng_b.task_finish());
        assert_eq!(eng_a.spans().spans(), eng_b.spans().spans());
        assert_eq!(eng_a.stats(), eng_b.stats());
        let s = eng_a.stats();
        assert_eq!(s.runs, 1);
        assert_eq!(s.tasks_finished, dag.len() as u64);
        assert_eq!(s.flows_started, 8);
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::dag::{DagBuilder, ResourceId};

    #[test]
    fn engine_coexists_with_background_flows() {
        // A long-lived background flow keeps running while a DAG executes;
        // the engine must neither adopt nor stall on it.
        let mut net = FlowNet::new();
        let shared = net.add_link("shared", 100.0);
        net.start_flow(&[shared], 1_000_000.0).unwrap(); // background
        let mut b = DagBuilder::new();
        b.transfer(&[shared], 100.0, SimTime::ZERO, "fg", 0, &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        // Foreground shares the link 50/50: 100 bytes at 50 B/s.
        assert!((out.makespan().as_secs() - 2.0).abs() < 1e-6);
        // Background flow still in the network afterwards.
        assert_eq!(net.flow_count(), 1);
    }

    #[test]
    fn event_budget_trips_on_a_longer_run() {
        // A three-task chain needs three loop turns: one per launch. A
        // budget of two must stop it with a typed error, not a hang.
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        let a = b.compute(ResourceId(0), SimTime::from_ms(1.0), "a", &[]);
        let c = b.compute(ResourceId(0), SimTime::from_ms(1.0), "b", &[a]);
        b.compute(ResourceId(0), SimTime::from_ms(1.0), "c", &[c]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let err = eng
            .run_faulted_with_budget(
                &mut net,
                &dag,
                SimTime::ZERO,
                None,
                &mut FaultCursor::empty(),
                2,
            )
            .unwrap_err();
        assert_eq!(err, SimError::EventLimit { budget: 2 });
        assert!(err.to_string().contains("event budget of 2"));
        // The default budget lets the same DAG finish.
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out.makespan(), SimTime::from_ms(3.0));
    }

    #[test]
    fn straggler_stretches_compute() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), SimTime::from_ms(10.0), "k", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let sched = FaultSchedule::new(0)
            .at(
                0.0,
                FaultKind::SlowResource {
                    resource: 0,
                    factor: 0.5,
                },
            )
            .unwrap();
        let mut cur = sched.cursor();
        let out = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut cur)
            .unwrap();
        // Half speed -> twice as long.
        assert_eq!(out.makespan(), SimTime::from_ms(20.0));
        assert!(!out.interrupted);
        assert_eq!(eng.resource_scale(0), 0.5);
        // The slowdown persists across runs until restored.
        let out2 = eng
            .run_faulted(&mut net, &dag, out.finished, None, &mut cur)
            .unwrap();
        assert_eq!(out2.makespan(), SimTime::from_ms(20.0));
    }

    #[test]
    fn link_degradation_mid_run_stretches_transfer() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 100.0);
        let mut b = DagBuilder::new();
        b.transfer(&[l], 100.0, SimTime::ZERO, "x", 0, &[]);
        let dag = b.build();
        // Degrade to 50% at t = 0.5 s: 50 bytes move in the first half
        // second, the remaining 50 take 1 s -> 1.5 s total.
        let sched = FaultSchedule::new(0)
            .at(
                0.5,
                FaultKind::ScaleLink {
                    link: l,
                    factor: 0.5,
                },
            )
            .unwrap();
        let mut cur = sched.cursor();
        let mut eng = DagEngine::new(vec![]);
        let out = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut cur)
            .unwrap();
        let secs = out.makespan().as_secs();
        assert!((secs - 1.5).abs() < 1e-6, "got {secs}");
    }

    #[test]
    fn node_loss_interrupts_and_cancels_flows() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 100.0);
        let mut b = DagBuilder::new();
        b.transfer(&[l], 1000.0, SimTime::ZERO, "x", 0, &[]);
        let dag = b.build();
        let sched = FaultSchedule::new(0)
            .at(2.0, FaultKind::NodeLoss { node: 1 })
            .unwrap();
        let mut cur = sched.cursor();
        let mut eng = DagEngine::new(vec![]);
        let out = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut cur)
            .unwrap();
        assert!(out.interrupted);
        assert_eq!(out.finished, SimTime::from_secs(2.0));
        // The in-flight flow was cancelled, not leaked as background.
        assert_eq!(net.flow_count(), 0);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn link_outage_window_recovers() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 100.0);
        let mut b = DagBuilder::new();
        b.transfer(&[l], 200.0, SimTime::ZERO, "x", 0, &[]);
        let dag = b.build();
        // Down to a thousandth of nominal during [1, 2): ~100 bytes
        // before, ~0.1 bytes during, rest after -> just under 3 s total.
        let sched = FaultSchedule::new(0)
            .at(
                1.0,
                FaultKind::ScaleLink {
                    link: l,
                    factor: 1e-3,
                },
            )
            .unwrap()
            .at(2.0, FaultKind::RestoreLink { link: l })
            .unwrap();
        let mut cur = sched.cursor();
        let mut eng = DagEngine::new(vec![]);
        let out = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut cur)
            .unwrap();
        let secs = out.makespan().as_secs();
        assert!(secs > 2.9 && secs < 3.1, "got {secs}");
        // Healthy run of the same DAG takes 2 s.
        let healthy = DagEngine::new(vec![])
            .run(&mut net, &dag, SimTime::ZERO, None)
            .unwrap();
        assert!((healthy.makespan().as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_cursor_matches_plain_run() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        let mut b = DagBuilder::new();
        let c = b.compute(ResourceId(0), SimTime::from_ms(3.0), "gemm", &[]);
        b.transfer(&[l], 150.0, SimTime::from_us(10.0), "x", 0, &[c]);
        let dag = b.build();
        let mut e1 = DagEngine::new(vec![1]);
        let a = e1.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        let mut e2 = DagEngine::new(vec![1]);
        let b2 = e2
            .run_faulted(
                &mut net,
                &dag,
                SimTime::ZERO,
                None,
                &mut crate::fault::FaultCursor::empty(),
            )
            .unwrap();
        assert_eq!(a.finished, b2.finished);
        assert_eq!(e1.task_finish(), e2.task_finish());
        assert!(!a.interrupted && !b2.interrupted);
    }

    #[test]
    fn bad_fault_events_surface_typed_errors() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        b.compute(ResourceId(0), SimTime::from_ms(1.0), "k", &[]);
        let dag = b.build();
        let mut eng = DagEngine::new(vec![1]);
        let sched = FaultSchedule::new(0)
            .at(
                0.0,
                FaultKind::SlowResource {
                    resource: 9,
                    factor: 0.5,
                },
            )
            .unwrap();
        let err = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut sched.cursor())
            .unwrap_err();
        assert_eq!(err, SimError::UnknownResource { resource: 9 });
        let sched = FaultSchedule::new(0)
            .at(
                0.0,
                FaultKind::SlowResource {
                    resource: 0,
                    factor: 0.0,
                },
            )
            .unwrap();
        let err = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut sched.cursor())
            .unwrap_err();
        assert_eq!(err, SimError::BadRateFactor { resource: 0 });
    }

    #[test]
    fn multi_slot_resources_run_in_parallel_up_to_capacity() {
        let mut net = FlowNet::new();
        let mut b = DagBuilder::new();
        for _ in 0..6 {
            b.compute(ResourceId(0), SimTime::from_ms(1.0), "k", &[]);
        }
        let dag = b.build();
        // Two slots: 6 tasks take 3 ms.
        let mut eng = DagEngine::new(vec![2]);
        let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        assert_eq!(out.makespan(), SimTime::from_ms(3.0));
    }

    #[test]
    fn straggler_and_link_fault_compose_within_one_run() {
        use crate::fault::{FaultKind, FaultSchedule};
        let mut b = DagBuilder::new();
        let mut net = FlowNet::new();
        let l = net.add_link("roce", 100.0);
        let c0 = b.compute(ResourceId(0), SimTime::from_ms(4.0), "k0", &[]);
        let c1 = b.compute(ResourceId(0), SimTime::from_ms(4.0), "k1", &[]);
        b.transfer(&[l], 400.0, SimTime::ZERO, "x", 0, &[c0, c1]);
        let dag = b.build();
        let sched = FaultSchedule::new(0)
            .at(
                0.002,
                FaultKind::SlowResource {
                    resource: 0,
                    factor: 0.5,
                },
            )
            .unwrap()
            .at(
                1.0,
                FaultKind::ScaleLink {
                    link: l,
                    factor: 0.25,
                },
            )
            .unwrap();

        let mut eng = DagEngine::new(vec![1]);
        let mut cur = sched.cursor();
        let out = eng
            .run_faulted(&mut net, &dag, SimTime::ZERO, None, &mut cur)
            .unwrap();
        // k0 launched before the slowdown and keeps its 4 ms; k1 takes the
        // slot at 4 ms at half speed and finishes at 12 ms.
        assert_eq!(eng.task_finish()[c0.index()], SimTime::from_ms(4.0));
        assert_eq!(eng.task_finish()[c1.index()], SimTime::from_ms(12.0));
        // 98.8 bytes move at 100 B/s before the link drops to 25 B/s at
        // 1 s; the remaining 301.2 bytes take 12.048 s.
        let secs = out.finished.as_secs();
        assert!((secs - 13.048).abs() < 1e-6, "got {secs}");
        assert_eq!(cur.remaining(), 0);
        assert_eq!(eng.resource_scale(0), 0.5);
    }
}
