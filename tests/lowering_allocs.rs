//! Allocation floor of the max-min solver, planning, lowering, execution
//! and linting.
//!
//! A counting global allocator tallies the allocations, the net live heap
//! bytes and their peak, made on the test thread while a thread-local
//! flag is set. After a warm-up that grows the flow slab, the per-link
//! flow lists and the solver's scratch buffers to their high-water marks,
//! steady-state `start_flow_capped` → `next_event_in` → `advance` cycles
//! must not allocate at all. Building and running a DAG must allocate per
//! DAG, not per task:
//!
//! * planning 14 B ZeRO-3 on a 32-GPU pod cluster makes fewer than 0.1
//!   allocations per plan op: the plan keeps its dependencies in one edge
//!   list, not one `Vec` per op;
//! * `lower` makes fewer than 0.5 allocations per task it emits on
//!   dual-node ZeRO-3 and on 14 B ZeRO-3 on a 32-GPU pod cluster, and
//!   fewer than 0.06 on single-node ZeRO-Infinity, whose striped volume
//!   I/O must not allocate per op;
//! * on the pod cluster the lowered plan holds at most 170 live heap bytes
//!   per task;
//! * one `DagEngine::run` of the dual-node ZeRO-3 DAG makes fewer than
//!   0.05 allocations per task;
//! * once two runs have sized its run state, an engine that clears its
//!   spans between runs runs that DAG again without allocating;
//! * linting the 8 B Megatron MP=2 candidate of a one-node placement
//!   search (7,591 plan ops) peaks below 2 MB of live heap: the analyzer's
//!   ancestor sets keep a bit per group of ops, far below the 7.2 MB per
//!   pass that one bit per pair of ops takes;
//! * a placement search pays only for the verdicts it needs: on one node
//!   at 1,000 B and at 10,000 B, where every candidate fails the memory
//!   verdict, the whole search makes fewer than 1,000 allocations and
//!   peaks below 100 KB, since nothing is planned or lowered; at 8 B,
//!   where seven of ten candidates fail it and three are planned, linted
//!   and run once each, fewer than 6,000 allocations and a peak below
//!   2 MB.
//!
//! Run with `cargo test --release --test lowering_allocs`. It is its own
//! test binary because the counting allocator is process-global; a guard
//! test checks that the counter sees allocations at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zerosim_analyzer::{Artifacts, LintConfig, PassManager};
use zerosim_core::{search_plans, SearchConfig};
use zerosim_hw::{Cluster, ClusterSpec, NvmeId, TopologySpec};
use zerosim_model::GptConfig;
use zerosim_simkit::flow::{FlowId, FlowNet, LinkId, NullObserver};
use zerosim_simkit::{DagEngine, SimTime, TokenBucket};
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
    /// The highest `LIVE` reached while measured.
    static PEAK: Cell<i64> = const { Cell::new(0) };
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
            let _ = LIVE.try_with(|b| {
                let live = b.get() + grown;
                b.set(live);
                let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
            });
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
    /// The most net live heap bytes `f` held at any one time.
    peak: i64,
}

fn counted<R>(f: impl FnOnce() -> R) -> Counted<R> {
    ALLOCS.with(|n| n.set(0));
    LIVE.with(|b| b.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|on| on.set(true));
    let value = f();
    COUNTING.with(|on| on.set(false));
    Counted {
        value,
        allocs: ALLOCS.with(Cell::get),
        live: LIVE.with(Cell::get),
        peak: PEAK.with(Cell::get),
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
fn planning_allocates_per_plan_not_per_op() {
    let pods = TopologySpec::parse("pods:2x2x8:2:2").expect("pod topology");
    let cluster = Cluster::new(pods.build().expect("pod spec")).expect("pod cluster");
    let model = GptConfig::wide_model_with_params(14.0);
    let opts = TrainOptions::for_nodes(pods.nodes());
    let calib = Calibration::default();
    let ctx = IterCtx {
        cluster: &cluster,
        model: &model,
        opts: &opts,
        calib: &calib,
    };
    let plan = counted(|| {
        zero3()
            .plan_iteration(&ctx)
            .expect("the configuration plans")
    });
    let ops = plan.value.len();
    let rate = per_task(plan.allocs as f64, ops);
    assert!(
        rate < 0.1,
        "planning made {} allocations for {ops} ops ({rate:.3} per op)",
        plan.allocs
    );
}

#[test]
fn linting_a_search_candidate_keeps_ancestor_sets_small() {
    let cluster = Cluster::new(TopologySpec::Flat { nodes: 1 }.build().expect("flat spec"))
        .expect("one-node cluster");
    let model = GptConfig::paper_model_with_params(8.0);
    let opts = TrainOptions::for_nodes(1);
    let calib = Calibration::default();
    let ctx = IterCtx {
        cluster: &cluster,
        model: &model,
        opts: &opts,
        calib: &calib,
    };
    let megatron = Strategy::Megatron { tp: 2, pp: 1 };
    let memory = megatron.plan_memory(&ctx).expect("the memory plan");
    let plan = megatron
        .plan_iteration(&ctx)
        .expect("the configuration plans");
    let lowered = lower(&plan, &cluster, &calib).expect("the plan lowers");
    let art = Artifacts::new(&cluster)
        .with_plan(&plan)
        .with_memory(&memory)
        .with_dag(lowered.dag())
        .with_calibration(&calib);
    let pm = PassManager::with_default_passes(LintConfig::new());
    let lint = counted(|| pm.run(&art));
    assert!(
        lint.peak < 2 << 20,
        "linting {} plan ops peaked at {} live heap bytes",
        plan.len(),
        lint.peak
    );
}

#[test]
fn a_search_allocates_per_verdict_it_needs() {
    // The floor is the production path's: the shadow oracle
    // (`ZEROSIM_SHADOW=1`) allocates a reference solve per solve. The
    // search builds its own networks, so the oracle's switch is the only
    // way to turn it off for them. No other test here depends on it: the
    // ones that solve turn the oracle off on the networks they build.
    std::env::remove_var("ZEROSIM_SHADOW");
    let search = |billions: f64| {
        let cfg = SearchConfig::new(
            TopologySpec::Flat { nodes: 1 },
            GptConfig::paper_model_with_params(billions),
        );
        let run = counted(|| search_plans(&cfg).expect("the search runs"));
        (run.value.pruned(), run.allocs, run.peak)
    };
    for billions in [1_000.0, 10_000.0] {
        let (pruned, allocs, peak) = search(billions);
        assert_eq!(pruned, 10, "{billions} B fits nowhere");
        assert!(
            allocs < 1_000 && peak < 100 << 10,
            "the all-pruned {billions} B search made {allocs} allocations and peaked at {peak} live heap bytes"
        );
    }
    let (pruned, allocs, peak) = search(8.0);
    assert_eq!(pruned, 7, "8 B prunes seven of ten on memory");
    assert!(
        allocs < 6_000 && peak < 2 << 20,
        "the 8 B search made {allocs} allocations and peaked at {peak} live heap bytes"
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

#[test]
fn a_warm_engine_runs_without_allocating() {
    let (mut cluster, mut lowered) = dual_node_zero3();
    cluster.net_mut().set_shadow_verify(false);
    let dag = lowered.value.stamp(0);
    let mut engine = DagEngine::new(cluster.resource_slots());
    let mut t = SimTime::ZERO;
    let mut run = |engine: &mut DagEngine, cluster: &mut Cluster| {
        let out = engine.run(cluster.net_mut(), dag, t, None);
        t = out.expect("the DAG runs").finished;
        engine.clear_spans();
    };
    // Two runs size the engine's run state, its span log and the
    // network's flow slots for this DAG.
    for _ in 0..2 {
        run(&mut engine, &mut cluster);
    }
    let warm = counted(|| {
        for _ in 0..3 {
            run(&mut engine, &mut cluster);
        }
    });
    assert_eq!(
        warm.allocs, 0,
        "three warm runs made {} allocations",
        warm.allocs
    );
}

const LINKS: usize = 64;
/// Steady-state bound on concurrently active flows.
const POPULATION: usize = 32;
const MEASURED_CYCLES: u64 = 10_000;

/// The net under test: link 0 is a token bucket, the rest are fixed.
struct Rig {
    net: FlowNet,
    links: Vec<LinkId>,
    /// Simulated seconds elapsed.
    t: f64,
    /// Completions of the latest step; reused across steps.
    done: Vec<FlowId>,
    /// Route of the next flow; reused across starts.
    route: Vec<LinkId>,
    /// xorshift64 state for route, size and cap choices.
    rng: u64,
}

impl Rig {
    fn new() -> Rig {
        let mut net = FlowNet::new();
        net.set_shadow_verify(false);
        let mut links = vec![net.add_bucketed_link("nvme", TokenBucket::new(4e6, 4e9, 1e9))];
        for i in 1..LINKS {
            links.push(net.add_link(format!("l{i}"), 1e9 * (1 + i % 5) as f64));
        }
        Rig {
            net,
            links,
            t: 0.0,
            done: Vec::new(),
            route: Vec::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> usize {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        usize::try_from(self.rng % 1_000_003).expect("small")
    }

    /// One network step to the next event, completions into `done`. Like
    /// the DAG engine, the step is rounded up to whole nanoseconds: a
    /// draining token bucket otherwise reports ever-shorter transitions.
    fn step(&mut self) {
        let next = self.net.next_event_in().expect("something is in motion");
        let dt = (next * 1e9).ceil().max(1.0) / 1e9;
        self.done.clear();
        self.net.advance(
            SimTime::from_secs(self.t),
            dt,
            &mut NullObserver,
            &mut self.done,
        );
        self.t += dt;
    }

    fn drain(&mut self) {
        while self.net.flow_count() > 0 {
            self.step();
        }
    }

    /// Starts one flow on a pseudo-random route: single-hop, two-hop, a
    /// route that visits its first link twice, or one through the token
    /// bucket; every third flow is rate-capped.
    fn start_random(&mut self) {
        let r = self.next();
        let a = self.links[1 + r % (LINKS - 1)];
        let b = self.links[1 + (r / LINKS) % (LINKS - 1)];
        self.route.clear();
        match (r / (LINKS * LINKS)) % 4 {
            0 => self.route.push(a),
            1 => self.route.extend([a, b]),
            2 => self.route.extend([a, b, a]),
            _ => self.route.extend([self.links[0], a, b]),
        }
        let bytes = 1e6 * (1 + r % 7) as f64;
        let cap = if r.is_multiple_of(3) {
            3e8
        } else {
            f64::INFINITY
        };
        self.net
            .start_flow_capped(&self.route, bytes, cap)
            .expect("valid flow");
    }

    /// The measured cycle: start a flow, then step to the next event (and
    /// keep stepping while the population is over its bound).
    fn cycle(&mut self) {
        self.start_random();
        self.step();
        while self.net.flow_count() > POPULATION {
            self.step();
        }
    }

    /// Grows every buffer the steady state can reach to its high-water
    /// mark, so the measured window sees only reuse.
    fn warm(&mut self) {
        // One component spanning every link: closure scratch and the dirty
        // list reach their link-count bound.
        for w in self.links.clone().windows(2) {
            self.net.start_flow(w, 1e6).expect("valid flow");
        }
        self.drain();
        // Per link, more flows than the population bound with four route
        // entries each, finishing together: the slab, every slot's route
        // buffer, each link's flow list, the component's flow scratch and
        // the completion buffer all outgrow anything the cycles need.
        for i in 0..LINKS {
            let l = self.links[i];
            for _ in 0..=POPULATION {
                self.net.start_flow(&[l, l, l, l], 1e6).expect("valid flow");
            }
            self.drain();
        }
        for _ in 0..2_000 {
            self.cycle();
        }
    }
}

#[test]
fn steady_state_solver_cycles_allocate_nothing() {
    let mut rig = Rig::new();
    rig.warm();
    let before = rig.net.solver_stats();
    let Counted { allocs, .. } = counted(|| {
        for _ in 0..MEASURED_CYCLES {
            rig.cycle();
        }
    });
    let solves = rig.net.solver_stats().delta_since(&before).solves;
    assert!(
        solves >= MEASURED_CYCLES,
        "every cycle re-solves at least once: {solves} solves"
    );
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {MEASURED_CYCLES} cycles ({solves} solves)"
    );
}

#[test]
fn the_counter_sees_allocations() {
    // Guards the gate itself: a counter that never counts would pass it.
    let Counted {
        value: v, allocs, ..
    } = counted(|| vec![0u8; 64]);
    assert_eq!(v.len(), 64);
    assert!(allocs >= 1);
}
