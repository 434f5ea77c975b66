//! Task graphs: the unit of work executed by the [`crate::engine`].
//!
//! A training iteration compiles to a DAG of tasks — GPU/CPU compute spans,
//! network/host/NVMe transfers, and pure delays — with explicit dependency
//! edges. The engine executes any such DAG against a [`crate::flow::FlowNet`]
//! and a set of compute resources; strategies never talk to the event loop
//! directly.
//!
//! # Layout
//!
//! A [`Dag`] is a handful of flat arrays, so building and running one
//! allocates O(1) times per DAG, not per task:
//!
//! * one [`TaskSpec`] per task, whose label is a `&'static str`;
//! * predecessor edges in a [`Csr`] edge list, the layout the workload
//!   plan and the analyzer share. [`DagBuilder`] appends each task's
//!   dependencies as it is pushed;
//! * successor edges in a second [`Csr`], derived once by
//!   [`DagBuilder::build`] with [`Csr::transpose`]: ascending task order,
//!   duplicates kept (the engine readies successors in exactly this
//!   order);
//! * one link arena holding every transfer's route back to back; a
//!   [`TaskKind::Transfer`] names its slice with a [`RouteRange`], read
//!   through [`Dag::route`].

use crate::csr::{offset, Csr, NodeIndex};
use crate::flow::LinkId;
use crate::time::SimTime;

/// Identifies a task within one [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// Index of the task in insertion order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl NodeIndex for TaskId {
    fn index(self) -> usize {
        self.0
    }

    fn from_index(index: usize) -> Self {
        TaskId(index)
    }
}

/// Identifies a compute resource (a GPU SM array, a CPU socket, ...) known
/// to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub usize);

/// A transfer's route: a range of its [`Dag`]'s link arena, read with
/// [`Dag::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRange {
    start: u32,
    end: u32,
}

/// What a task does.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Occupies one slot of `resource` for `duration`.
    Compute {
        /// Resource the task runs on.
        resource: ResourceId,
        /// Busy time.
        duration: SimTime,
    },
    /// Moves `bytes` along `route` at the max-min fair rate, after an
    /// initial `latency` during which no bandwidth is consumed.
    Transfer {
        /// Links crossed, in order (see [`Dag::route`]).
        route: RouteRange,
        /// Payload size in bytes.
        bytes: f64,
        /// Startup latency before the first byte moves.
        latency: SimTime,
        /// Per-flow rate ceiling (bytes/second); `f64::INFINITY` when
        /// uncapped. Models path-specific degradation (SerDes pairs).
        cap: f64,
    },
    /// Waits for `duration` without occupying anything.
    Delay {
        /// Wait time.
        duration: SimTime,
    },
    /// Completes instantly; used as a join/barrier point.
    Marker,
}

/// A task plus its profiling metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// The work performed.
    pub kind: TaskKind,
    /// Span label for timeline profiling (`None` = not profiled).
    pub label: Option<&'static str>,
    /// Timeline track (defaults to the resource index for compute tasks).
    pub track: Option<u32>,
}

/// An immutable task graph.
///
/// Built with [`DagBuilder`]; guaranteed acyclic by construction because
/// dependencies may only reference previously created tasks. See the
/// [module docs](self) for the layout.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    tasks: Vec<TaskSpec>,
    /// Predecessor edges, one row per task.
    preds: Csr<TaskId>,
    /// Successor edges, one row per task (derived).
    succs: Csr<TaskId>,
    /// Every transfer's route, back to back.
    links: Vec<LinkId>,
}

impl Dag {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the DAG contains no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The spec of `task`.
    ///
    /// # Panics
    /// Panics if `task` does not belong to this DAG.
    pub fn task(&self, task: TaskId) -> &TaskSpec {
        &self.tasks[task.0]
    }

    /// Predecessors of `task`, in the order they were declared.
    pub fn preds(&self, task: TaskId) -> &[TaskId] {
        self.preds.row(task.0)
    }

    /// Successors of `task`, in ascending task order (a task that names
    /// `task` twice appears twice).
    pub fn succs(&self, task: TaskId) -> &[TaskId] {
        self.succs.row(task.0)
    }

    /// The links of a transfer's route, in order.
    ///
    /// # Panics
    /// Panics if `route` does not come from this DAG.
    pub fn route(&self, route: RouteRange) -> &[LinkId] {
        &self.links[route.start as usize..route.end as usize]
    }

    /// Iterator over all task ids in insertion (topological) order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Total bytes moved by all transfer tasks.
    pub fn total_transfer_bytes(&self) -> f64 {
        self.tasks
            .iter()
            .filter_map(|t| match &t.kind {
                TaskKind::Transfer { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// Overwrites the duration of an existing compute task.
    ///
    /// This is the engine-facing half of the strategies' lower-once /
    /// re-stamp pipeline: DAG *structure* (topology, routes, byte
    /// volumes) is iteration-invariant, while jittered compute durations
    /// change per iteration seed. Re-stamping durations in place avoids
    /// rebuilding the whole graph every iteration.
    ///
    /// # Panics
    /// Panics if `task` does not belong to this DAG or is not a
    /// [`TaskKind::Compute`] task.
    pub fn set_compute_duration(&mut self, task: TaskId, duration: SimTime) {
        match &mut self.tasks[task.0].kind {
            TaskKind::Compute { duration: d, .. } => *d = duration,
            other => panic!("task {task:?} is not a compute task (got {other:?})"),
        }
    }

    /// Total busy time requested from `resource` by compute tasks.
    pub fn compute_demand(&self, resource: ResourceId) -> SimTime {
        self.tasks
            .iter()
            .filter_map(|t| match &t.kind {
                TaskKind::Compute {
                    resource: r,
                    duration,
                } if *r == resource => Some(*duration),
                _ => None,
            })
            .sum()
    }
}

/// Incrementally builds a [`Dag`].
///
/// ```
/// use zerosim_simkit::dag::{DagBuilder, ResourceId};
/// use zerosim_simkit::SimTime;
///
/// let mut b = DagBuilder::new();
/// let fwd = b.compute(ResourceId(0), SimTime::from_ms(2.0), "fwd", &[]);
/// let bwd = b.compute(ResourceId(0), SimTime::from_ms(4.0), "bwd", &[fwd]);
/// let dag = b.build();
/// assert_eq!(dag.len(), 2);
/// assert_eq!(dag.preds(bwd), &[fwd]);
/// assert_eq!(dag.succs(fwd), &[bwd]);
/// ```
#[derive(Debug, Default)]
pub struct DagBuilder {
    dag: Dag,
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, spec: TaskSpec, deps: &[TaskId]) -> TaskId {
        let id = TaskId(self.dag.tasks.len());
        for d in deps {
            assert!(d.0 < id.0, "dependency {d:?} does not precede task {id:?}");
        }
        self.dag.tasks.push(spec);
        self.dag.preds.push_row(deps);
        id
    }

    /// Adds a compute task.
    #[allow(clippy::cast_possible_truncation)] // resource ids are small
    pub fn compute(
        &mut self,
        resource: ResourceId,
        duration: SimTime,
        label: &'static str,
        deps: &[TaskId],
    ) -> TaskId {
        self.push(
            TaskSpec {
                kind: TaskKind::Compute { resource, duration },
                label: Some(label),
                track: Some(resource.0 as u32),
            },
            deps,
        )
    }

    /// Adds a transfer task; `route` is copied into the DAG's link arena.
    ///
    /// # Panics
    /// Panics if the route is empty or `bytes` is not finite and positive.
    pub fn transfer(
        &mut self,
        route: &[LinkId],
        bytes: f64,
        latency: SimTime,
        label: &'static str,
        track: u32,
        deps: &[TaskId],
    ) -> TaskId {
        self.transfer_capped(route, bytes, latency, f64::INFINITY, label, track, deps)
    }

    /// Adds a transfer task with a per-flow rate ceiling in bytes/second.
    ///
    /// # Panics
    /// Same conditions as [`DagBuilder::transfer`], plus a non-positive or
    /// NaN `cap`.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_capped(
        &mut self,
        route: &[LinkId],
        bytes: f64,
        latency: SimTime,
        cap: f64,
        label: &'static str,
        track: u32,
        deps: &[TaskId],
    ) -> TaskId {
        assert!(!route.is_empty(), "transfer route must not be empty");
        assert!(
            bytes.is_finite() && bytes > 0.0,
            "transfer size must be positive (got {bytes})"
        );
        assert!(cap > 0.0 && !cap.is_nan(), "transfer cap must be positive");
        let start = offset(self.dag.links.len());
        self.dag.links.extend_from_slice(route);
        let route = RouteRange {
            start,
            end: offset(self.dag.links.len()),
        };
        self.push(
            TaskSpec {
                kind: TaskKind::Transfer {
                    route,
                    bytes,
                    latency,
                    cap,
                },
                label: Some(label),
                track: Some(track),
            },
            deps,
        )
    }

    /// Adds a pure delay.
    pub fn delay(&mut self, duration: SimTime, deps: &[TaskId]) -> TaskId {
        self.push(
            TaskSpec {
                kind: TaskKind::Delay { duration },
                label: None,
                track: None,
            },
            deps,
        )
    }

    /// Adds a zero-duration join point over `deps`.
    pub fn marker(&mut self, deps: &[TaskId]) -> TaskId {
        self.push(
            TaskSpec {
                kind: TaskKind::Marker,
                label: None,
                track: None,
            },
            deps,
        )
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.dag.tasks.len()
    }

    /// True when no tasks have been added yet.
    pub fn is_empty(&self) -> bool {
        self.dag.tasks.is_empty()
    }

    /// Finalizes the DAG: derives the successor edges and trims every
    /// array to its length.
    pub fn build(self) -> Dag {
        let mut dag = self.dag;
        dag.succs = dag.preds.transpose();
        dag.tasks.shrink_to_fit();
        dag.preds.shrink_to_fit();
        dag.links.shrink_to_fit();
        dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_links_dependencies_both_ways() {
        let mut b = DagBuilder::new();
        let a = b.marker(&[]);
        let c = b.delay(SimTime::from_ms(1.0), &[a]);
        let d = b.marker(&[a, c]);
        let dag = b.build();
        assert_eq!(dag.preds(d), &[a, c]);
        assert_eq!(dag.succs(a), &[c, d]);
        assert_eq!(dag.len(), 3);
        assert!(!dag.is_empty());
    }

    #[test]
    fn aggregate_queries() {
        let mut b = DagBuilder::new();
        let r = ResourceId(3);
        b.compute(r, SimTime::from_ms(2.0), "k1", &[]);
        b.compute(r, SimTime::from_ms(3.0), "k2", &[]);
        b.compute(ResourceId(4), SimTime::from_ms(9.0), "k3", &[]);
        b.transfer(&[LinkId(0)], 1024.0, SimTime::ZERO, "xfer", 0, &[]);
        let dag = b.build();
        assert_eq!(dag.compute_demand(r), SimTime::from_ms(5.0));
        assert_eq!(dag.total_transfer_bytes(), 1024.0);
    }

    #[test]
    fn insertion_order_is_topological() {
        let mut b = DagBuilder::new();
        let a = b.marker(&[]);
        let c = b.marker(&[a]);
        let dag = b.build();
        let ids: Vec<TaskId> = dag.task_ids().collect();
        assert_eq!(ids, vec![a, c]);
    }

    #[test]
    fn restamping_updates_compute_durations_in_place() {
        let mut b = DagBuilder::new();
        let r = ResourceId(0);
        let t = b.compute(r, SimTime::from_ms(2.0), "gemm", &[]);
        let mut dag = b.build();
        assert_eq!(dag.compute_demand(r), SimTime::from_ms(2.0));
        dag.set_compute_duration(t, SimTime::from_ms(5.0));
        assert_eq!(dag.compute_demand(r), SimTime::from_ms(5.0));
        // Structure untouched.
        assert_eq!(dag.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a compute task")]
    fn restamping_a_marker_panics() {
        let mut b = DagBuilder::new();
        let m = b.marker(&[]);
        let mut dag = b.build();
        dag.set_compute_duration(m, SimTime::from_ms(1.0));
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn forward_dependency_panics() {
        let mut b = DagBuilder::new();
        let a = b.marker(&[]);
        // Fabricate a not-yet-existing dependency.
        let bogus = TaskId(7);
        let _ = a;
        b.marker(&[bogus]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_byte_transfer_panics() {
        let mut b = DagBuilder::new();
        b.transfer(&[LinkId(0)], 0.0, SimTime::ZERO, "x", 0, &[]);
    }
}
