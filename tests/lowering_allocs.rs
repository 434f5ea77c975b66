//! Allocation floor of lowering and execution.
//!
//! A counting global allocator tallies the allocations, and the net live
//! heap bytes, made on the test thread while a thread-local flag is set.
//! Building and running a DAG must allocate per DAG, not per task:
//!
//! * `lower` makes fewer than 0.5 allocations per task it emits on
//!   dual-node ZeRO-3 and on 14 B ZeRO-3 on a 32-GPU pod cluster, and
//!   fewer than 0.06 on single-node ZeRO-Infinity, whose striped volume
//!   I/O must not allocate per op;
//! * on the pod cluster the lowered plan holds at most 170 live heap bytes
//!   per task;
//! * one `DagEngine::run` of the dual-node ZeRO-3 DAG makes fewer than
//!   0.05 allocations per task.
//!
//! Run with `cargo test --release --test lowering_allocs`. It is its own
//! test binary because the counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zerosim_hw::{Cluster, ClusterSpec, NvmeId, TopologySpec};
use zerosim_model::GptConfig;
use zerosim_simkit::{DagEngine, SimTime};
use zerosim_strategies::{
    lower, Calibration, InfinityPlacement, IterCtx, LoweredPlan, Strategy, StrategyPlan,
    TrainOptions, ZeroStage,
};

thread_local! {
    /// Set while the calling thread is being measured.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed while measured.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Records an allocation of `grown` bytes (negative: freed) on a measured
/// thread; `fresh` counts it as one allocation.
fn note(fresh: bool, grown: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            if fresh {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            }
            let _ = LIVE.try_with(|b| b.set(b.get() + grown));
        }
    });
}

fn bytes(n: usize) -> i64 {
    i64::try_from(n).expect("allocation sizes fit i64")
}

/// Forwards to the system allocator, counting allocations, reallocations
/// and live bytes made on a measured thread.
struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`; the bookkeeping only
// touches `const`-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, bytes(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, bytes(layout.size()));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, -bytes(layout.size()));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` allocated on this thread.
struct Counted<R> {
    value: R,
    allocs: u64,
    /// Net live heap bytes `f` left behind (what `value` holds, when `f`
    /// frees everything else it allocated).
    live: i64,
}

fn counted<R>(f: impl FnOnce() -> R) -> Counted<R> {
    ALLOCS.with(|n| n.set(0));
    LIVE.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let value = f();
    COUNTING.with(|on| on.set(false));
    Counted {
        value,
        allocs: ALLOCS.with(Cell::get),
        live: LIVE.with(Cell::get),
    }
}

#[allow(clippy::cast_precision_loss)] // counts are far below 2^52
fn per_task(x: f64, tasks: usize) -> f64 {
    x / tasks as f64
}

fn zero3() -> Strategy {
    Strategy::Zero {
        stage: ZeroStage::Three,
    }
}

/// Plans one iteration of `strategy` on `cluster` (uncounted), then
/// lowers it under the counter.
fn lower_counted(
    cluster: &Cluster,
    strategy: &Strategy,
    model: &GptConfig,
    opts: &TrainOptions,
) -> Counted<LoweredPlan> {
    let calib = Calibration::default();
    let ctx = IterCtx {
        cluster,
        model,
        opts,
        calib: &calib,
    };
    let plan = strategy
        .plan_iteration(&ctx)
        .expect("the configuration plans");
    counted(|| lower(&plan, cluster, &calib).expect("the plan lowers"))
}

/// The dual-node ZeRO-3 golden configuration.
fn dual_node_zero3() -> (Cluster, Counted<LoweredPlan>) {
    let cluster = Cluster::new(ClusterSpec::default()).expect("paper cluster");
    let lowered = lower_counted(
        &cluster,
        &zero3(),
        &GptConfig::paper_model_with_params(1.4),
        &TrainOptions::for_nodes(2),
    );
    (cluster, lowered)
}

#[test]
fn lowering_allocates_per_dag_not_per_task() {
    let (_, dual) = dual_node_zero3();

    let mut infinity_cluster = Cluster::new(ClusterSpec::default()).expect("paper cluster");
    let drive = |drive| NvmeId { node: 0, drive };
    let volume = infinity_cluster.create_volume(vec![drive(0), drive(1)]);
    let infinity = lower_counted(
        &infinity_cluster,
        &Strategy::ZeroInfinity {
            offload_params: true,
            placement: InfinityPlacement::new(vec![volume]),
        },
        &GptConfig::paper_model_with_params(1.4),
        &TrainOptions::single_node(),
    );

    let pods = TopologySpec::parse("pods:2x2x8:2:2").expect("pod topology");
    let pods_cluster = Cluster::new(pods.build().expect("pod spec")).expect("pod cluster");
    let wide = lower_counted(
        &pods_cluster,
        &zero3(),
        &GptConfig::wide_model_with_params(14.0),
        &TrainOptions::for_nodes(pods.nodes()),
    );

    for (name, c, bound) in [
        ("dual-node ZeRO-3", &dual, 0.5),
        ("single-node ZeRO-Infinity", &infinity, 0.06),
        ("pods ZeRO-3 14 B", &wide, 0.5),
    ] {
        let tasks = c.value.len();
        let rate = per_task(c.allocs as f64, tasks);
        assert!(
            rate < bound,
            "{name}: lower made {} allocations for {tasks} tasks ({rate:.3} per task, bound {bound})",
            c.allocs
        );
    }
    let tasks = wide.value.len();
    let held = per_task(wide.live as f64, tasks);
    assert!(
        held <= 170.0,
        "pods ZeRO-3 14 B: the lowered plan holds {} heap bytes for {tasks} tasks ({held:.1} per task)",
        wide.live
    );
}

#[test]
fn one_engine_run_allocates_per_dag_not_per_task() {
    let (mut cluster, mut lowered) = dual_node_zero3();
    // The shadow oracle (`ZEROSIM_SHADOW=1`) runs a full reference solve and
    // allocates; the floor is the production path's.
    cluster.net_mut().set_shadow_verify(false);
    let dag = lowered.value.stamp(0);
    let mut engine = DagEngine::new(cluster.resource_slots());
    let run = counted(|| engine.run(cluster.net_mut(), dag, SimTime::ZERO, None));
    run.value.expect("the DAG runs");
    let rate = per_task(run.allocs as f64, dag.len());
    assert!(
        rate < 0.05,
        "one run made {} allocations for {} tasks ({rate:.3} per task)",
        run.allocs,
        dag.len()
    );
}
