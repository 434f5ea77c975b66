//! Task graphs: the unit of work executed by the [`crate::engine`].
//!
//! A training iteration compiles to a DAG of tasks — GPU/CPU compute spans,
//! network/host/NVMe transfers, and pure delays — with explicit dependency
//! edges. The engine executes any such DAG against a [`crate::flow::FlowNet`]
//! and a set of compute resources; strategies never talk to the event loop
//! directly.

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

/// Identifies a compute resource (a GPU SM array, a CPU socket, ...) known
/// to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub usize);

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
        /// Links crossed, in order.
        route: Vec<LinkId>,
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
    pub label: Option<String>,
    /// Timeline track (defaults to the resource index for compute tasks).
    pub track: Option<u32>,
}

/// An immutable task graph.
///
/// Built with [`DagBuilder`]; guaranteed acyclic by construction because
/// dependencies may only reference previously created tasks.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    pub(crate) tasks: Vec<TaskSpec>,
    /// Predecessors of each task.
    pub(crate) preds: Vec<Vec<TaskId>>,
    /// Successors of each task (derived).
    pub(crate) succs: Vec<Vec<TaskId>>,
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

    /// Predecessors of `task`.
    pub fn preds(&self, task: TaskId) -> &[TaskId] {
        &self.preds[task.0]
    }

    /// Successors of `task`.
    pub fn succs(&self, task: TaskId) -> &[TaskId] {
        &self.succs[task.0]
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
        self.dag.preds.push(deps.to_vec());
        self.dag.succs.push(Vec::new());
        for d in deps {
            self.dag.succs[d.0].push(id);
        }
        id
    }

    /// Adds a compute task.
    #[allow(clippy::cast_possible_truncation)] // resource ids are small
    pub fn compute(
        &mut self,
        resource: ResourceId,
        duration: SimTime,
        label: impl Into<String>,
        deps: &[TaskId],
    ) -> TaskId {
        self.push(
            TaskSpec {
                kind: TaskKind::Compute { resource, duration },
                label: Some(label.into()),
                track: Some(resource.0 as u32),
            },
            deps,
        )
    }

    /// Adds an unlabelled compute task (not profiled on the timeline).
    pub fn compute_silent(
        &mut self,
        resource: ResourceId,
        duration: SimTime,
        deps: &[TaskId],
    ) -> TaskId {
        self.push(
            TaskSpec {
                kind: TaskKind::Compute { resource, duration },
                label: None,
                track: None,
            },
            deps,
        )
    }

    /// Adds a transfer task.
    ///
    /// # Panics
    /// Panics if the route is empty or `bytes` is not finite and positive.
    pub fn transfer(
        &mut self,
        route: Vec<LinkId>,
        bytes: f64,
        latency: SimTime,
        label: impl Into<String>,
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
        route: Vec<LinkId>,
        bytes: f64,
        latency: SimTime,
        cap: f64,
        label: impl Into<String>,
        track: u32,
        deps: &[TaskId],
    ) -> TaskId {
        assert!(!route.is_empty(), "transfer route must not be empty");
        assert!(
            bytes.is_finite() && bytes > 0.0,
            "transfer size must be positive (got {bytes})"
        );
        assert!(cap > 0.0 && !cap.is_nan(), "transfer cap must be positive");
        self.push(
            TaskSpec {
                kind: TaskKind::Transfer {
                    route,
                    bytes,
                    latency,
                    cap,
                },
                label: Some(label.into()),
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

    /// Finalizes the DAG.
    pub fn build(self) -> Dag {
        self.dag
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
        b.transfer(vec![LinkId(0)], 1024.0, SimTime::ZERO, "xfer", 0, &[]);
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
        b.transfer(vec![LinkId(0)], 0.0, SimTime::ZERO, "x", 0, &[]);
    }
}
