//! Characterization results: everything the paper measures for one
//! training configuration.

use std::collections::BTreeMap;

use zerosim_hw::{Cluster, LinkClass};
use zerosim_simkit::{
    BandwidthRecorder, BandwidthStats, EngineStats, SimTime, SolverStats, SpanLog,
};
use zerosim_strategies::MemoryPlan;

/// Bandwidth statistics per (node, interconnect class) plus the raw
/// utilization series for pattern plots.
#[derive(Debug, Clone, Default)]
pub struct BandwidthReport {
    stats: BTreeMap<(usize, LinkClass), BandwidthStats>,
    series: BTreeMap<(usize, LinkClass), Vec<f64>>,
    bucket: SimTime,
}

impl BandwidthReport {
    pub(crate) fn new(bucket: SimTime) -> Self {
        BandwidthReport {
            stats: BTreeMap::new(),
            series: BTreeMap::new(),
            bucket,
        }
    }

    pub(crate) fn insert(
        &mut self,
        node: usize,
        class: LinkClass,
        stats: BandwidthStats,
        series: Vec<f64>,
    ) {
        self.stats.insert((node, class), stats);
        self.series.insert((node, class), series);
    }

    /// Aggregate bidirectional per-node stats (Table IV cells) in
    /// bytes/second.
    pub fn stats(&self, node: usize, class: LinkClass) -> BandwidthStats {
        self.stats.get(&(node, class)).copied().unwrap_or_default()
    }

    /// Utilization series in bytes/second per sample bucket (the Figs.
    /// 9/10/12 pattern data).
    pub fn series(&self, node: usize, class: LinkClass) -> &[f64] {
        self.series
            .get(&(node, class))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The sampling bucket width.
    pub fn bucket(&self) -> SimTime {
        self.bucket
    }

    /// Repeats the measured pattern to fill a window of `window_secs`
    /// (the paper plots 200-second windows of steady-state training).
    pub fn tiled_series(&self, node: usize, class: LinkClass, window_secs: f64) -> Vec<f64> {
        let base = self.series(node, class);
        if base.is_empty() {
            return Vec::new();
        }
        // Window / bucket ratios are small (a few thousand samples).
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let want = (window_secs / self.bucket.as_secs()).ceil() as usize;
        (0..want).map(|i| base[i % base.len()]).collect()
    }
}

/// One entry of the per-link "hot wires" ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct HotLink {
    /// Link name as registered by the hardware model (e.g.
    /// `n0.nvlink.0to1`, `n0nic1.roce.tx`, `n1s0.dram`).
    pub name: String,
    /// Average bandwidth over the measured window, bytes/second.
    pub avg: f64,
    /// Fraction of the link's capacity that average represents.
    pub utilization: f64,
}

/// How many entries [`rank_hot_links`] keeps.
pub(crate) const HOT_LINKS_TOP: usize = 16;

/// Ranks every active physical link by average utilization over the
/// measured window (descending, top [`HOT_LINKS_TOP`]).
///
/// Total order via [`f64::total_cmp`]: a pathological NaN utilization
/// (zero-capacity link) sorts last instead of panicking mid-report.
pub(crate) fn rank_hot_links(
    cluster: &Cluster,
    nodes: usize,
    rec: &BandwidthRecorder,
    window_secs: f64,
) -> Vec<HotLink> {
    let window = window_secs.max(1e-12);
    let mut hot_links: Vec<HotLink> = Vec::new();
    for node in 0..nodes {
        // Table IV classes plus the aggregate fabric uplinks of generated
        // topologies (registered on each group's first node; absent on the
        // paper's flat switch, so flat-cluster rankings are unchanged).
        for class in LinkClass::TABLE_IV.into_iter().chain([LinkClass::Fabric]) {
            for &link in cluster.links(node, class) {
                let avg = rec.total_bytes(link) / window;
                if avg <= 0.0 {
                    continue;
                }
                let cap = cluster.net().link_capacity(link);
                hot_links.push(HotLink {
                    name: cluster.net().link_name(link).to_string(),
                    avg,
                    utilization: avg / cap,
                });
            }
        }
    }
    hot_links.sort_by(|a, b| b.utilization.total_cmp(&a.utilization));
    hot_links.truncate(HOT_LINKS_TOP);
    hot_links
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an already-sorted
/// sample; [`SimTime::ZERO`] for an empty one.
pub(crate) fn nearest_rank(sorted: &[SimTime], q: f64) -> SimTime {
    if sorted.is_empty() {
        return SimTime::ZERO;
    }
    // q in [0,1], so the rank is bounded by len: exact as usize.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((q * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx]
}

/// Resilience accounting of a training run (see
/// [`crate::TrainingSim::run_resilient`]). Every run carries it: a
/// healthy run applies no faults and reports zero replays and recoveries.
///
/// All counters include the warm-up window: faults do not distinguish
/// between warm-up and measured iterations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceMetrics {
    /// Useful FLOP/s over the measured window: committed model FLOPs
    /// divided by wall time *including* replayed iterations, checkpoint
    /// traffic, restart delays, and restore traffic. Equals
    /// [`TrainingReport::throughput_flops`] (up to the nanosecond
    /// truncation of the mean iteration time) when nothing faults.
    pub goodput_flops: f64,
    /// Median duration over every *completed* iteration execution
    /// (committed or later rolled back).
    pub iter_p50: SimTime,
    /// 90th-percentile completed-iteration duration.
    pub iter_p90: SimTime,
    /// 99th-percentile completed-iteration duration.
    pub iter_p99: SimTime,
    /// Iteration executions started (including ones aborted by a fault).
    pub executed_iterations: usize,
    /// Iterations committed at the end of the run (warm-up + measured).
    pub committed_iterations: usize,
    /// Committed-then-lost iterations replayed after node losses.
    pub replayed_iterations: usize,
    /// Checkpoint snapshots committed.
    pub checkpoints_taken: usize,
    /// Simulated time spent writing checkpoints.
    pub checkpoint_time: SimTime,
    /// Node-loss recoveries performed.
    pub recoveries: usize,
    /// Total simulated time from each fault to training resuming
    /// (restart delay + restore traffic).
    pub recovery_time: SimTime,
    /// Fault events consumed from the schedule during the run.
    pub faults_applied: usize,
    /// End-to-end simulated wall time (warm-up included).
    pub wall_time: SimTime,
    /// [`zerosim_simkit::FaultSchedule::digest`] of the schedule driving
    /// the run, tying the report to its fault provenance.
    pub schedule_digest: u64,
}

impl ResilienceMetrics {
    /// Goodput in TFLOP/s.
    pub fn goodput_tflops(&self) -> f64 {
        self.goodput_flops / 1e12
    }

    /// Mean time-to-recover per node loss ([`SimTime::ZERO`] when the run
    /// never faulted).
    pub fn time_to_recover(&self) -> SimTime {
        if self.recoveries == 0 {
            SimTime::ZERO
        } else {
            self.recovery_time / (self.recoveries as u64)
        }
    }
}

/// Everything measured for one training configuration.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Strategy display name.
    pub strategy: String,
    /// Model size in parameters.
    pub model_params: f64,
    /// Nodes participating.
    pub nodes: usize,
    /// Mean iteration time over the measured iterations.
    pub iter_time: SimTime,
    /// Model FLOPs per iteration (DeepSpeed-FLOPS-profiler convention).
    pub flops_per_iteration: f64,
    /// Tokens processed per iteration.
    pub tokens_per_iteration: f64,
    /// Memory placement.
    pub memory: MemoryPlan,
    /// Per-interconnect bandwidth characterization.
    pub bandwidth: BandwidthReport,
    /// Device timelines of the measured iterations (Fig. 5 substitute).
    pub spans: SpanLog,
    /// Busiest individual links, sorted by utilization descending.
    pub hot_links: Vec<HotLink>,
    /// How many times the iteration plan was lowered to a task graph for
    /// this run (1 when the lower-once / re-stamp cache works).
    pub plan_lowerings: usize,
    /// Resilience accounting: goodput, iteration-time percentiles, and
    /// fault, replay, checkpoint and recovery counts (all zero for a
    /// healthy run). Excluded from [`TrainingReport::digest`].
    pub resilience: ResilienceMetrics,
    /// Max-min solver work accounting for the *measured* window (delta of
    /// [`zerosim_simkit::FlowNet::solver_stats`] across it). This is
    /// instrumentation about *how* the run was computed, not *what* was
    /// measured, so it is excluded from [`TrainingReport::digest`].
    pub solver: SolverStats,
    /// DAG-engine work accounting for the run (runs, retired tasks,
    /// started flows, event-loop ticks — see
    /// [`zerosim_simkit::EngineStats`]). Like [`TrainingReport::solver`],
    /// these counters describe how the simulation executed, not what it
    /// measured, so they are excluded from [`TrainingReport::digest`].
    pub engine: EngineStats,
}

impl TrainingReport {
    /// Aggregate compute throughput in FLOP/s (the paper's headline
    /// metric: model FLOPs divided by iteration wall time).
    pub fn throughput_flops(&self) -> f64 {
        self.flops_per_iteration / self.iter_time.as_secs()
    }

    /// Throughput in TFLOP/s.
    pub fn throughput_tflops(&self) -> f64 {
        self.throughput_flops() / 1e12
    }

    /// Model size in billions of parameters.
    pub fn model_billions(&self) -> f64 {
        self.model_params / 1e9
    }

    /// A stable 64-bit fingerprint of the *measurement payload*: strategy,
    /// timing, FLOPs, memory plan, every bandwidth stat and sample, every
    /// timeline span, the hot-link ranking, and the lowering count.
    ///
    /// The [`TrainingReport::resilience`], [`TrainingReport::solver`] and
    /// [`TrainingReport::engine`] bookkeeping are deliberately excluded:
    /// `resilience` accounts for the fault schedule (compare it separately
    /// via its `PartialEq`), so a faulted run whose faults never bite
    /// digests like the healthy run; `solver` and `engine` describe how the
    /// simulation was computed, not the physics it measured. Equal digests
    /// mean byte-identical measurements.
    pub fn digest(&self) -> u64 {
        let mut h = mix_str(0x5153_u64, &self.strategy);
        h = mix(h, self.model_params.to_bits());
        h = mix(h, self.nodes as u64);
        h = mix(h, self.iter_time.as_nanos());
        h = mix(h, self.flops_per_iteration.to_bits());
        h = mix(h, self.tokens_per_iteration.to_bits());
        for b in [
            self.memory.per_gpu_bytes,
            self.memory.total_gpu_bytes,
            self.memory.per_node_cpu_bytes,
            self.memory.total_cpu_bytes,
            self.memory.nvme_bytes,
        ] {
            h = mix(h, b.to_bits());
        }
        for (label, bytes) in &self.memory.gpu_breakdown {
            h = mix_str(h, label);
            h = mix(h, bytes.to_bits());
        }
        h = mix(h, self.bandwidth.bucket.as_nanos());
        for ((node, class), stats) in &self.bandwidth.stats {
            h = mix_str(mix(h, *node as u64), &class.to_string());
            h = mix(h, stats.avg.to_bits());
            h = mix(h, stats.p90.to_bits());
            h = mix(h, stats.peak.to_bits());
        }
        for ((node, class), series) in &self.bandwidth.series {
            h = mix_str(mix(h, *node as u64), &class.to_string());
            for s in series {
                h = mix(h, s.to_bits());
            }
        }
        for span in self.spans.spans() {
            h = mix_str(mix(h, span.track as u64), span.label);
            h = mix(h, span.start.as_nanos());
            h = mix(h, span.end.as_nanos());
        }
        for hot in &self.hot_links {
            h = mix_str(h, &hot.name);
            h = mix(h, hot.avg.to_bits());
            h = mix(h, hot.utilization.to_bits());
        }
        mix(h, self.plan_lowerings as u64)
    }
}

/// SplitMix64-style mixing step used by [`TrainingReport::digest`] (and
/// [`crate::SearchReport::digest`]).
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub(crate) fn mix_str(h: u64, s: &str) -> u64 {
    let mut h = mix(h, s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(buf));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_report_roundtrip() {
        let mut r = BandwidthReport::new(SimTime::from_ms(50.0));
        r.insert(
            0,
            LinkClass::NvLink,
            BandwidthStats {
                avg: 83e9,
                p90: 94.8e9,
                peak: 94.8e9,
            },
            vec![80e9, 86e9],
        );
        assert_eq!(r.stats(0, LinkClass::NvLink).avg, 83e9);
        assert_eq!(r.series(0, LinkClass::NvLink).len(), 2);
        assert_eq!(r.stats(1, LinkClass::Roce), BandwidthStats::default());
        assert!(r.series(1, LinkClass::Roce).is_empty());
    }

    #[test]
    fn tiling_fills_window() {
        let mut r = BandwidthReport::new(SimTime::from_secs(1.0));
        r.insert(
            0,
            LinkClass::Dram,
            BandwidthStats::default(),
            vec![1.0, 2.0],
        );
        let t = r.tiled_series(0, LinkClass::Dram, 5.0);
        assert_eq!(t, vec![1.0, 2.0, 1.0, 2.0, 1.0]);
        assert!(r.tiled_series(0, LinkClass::Roce, 5.0).is_empty());
    }

    fn blank_report() -> TrainingReport {
        TrainingReport {
            strategy: "x".into(),
            model_params: 1.4e9,
            nodes: 1,
            iter_time: SimTime::from_ms(500.0),
            flops_per_iteration: 2.0e14,
            tokens_per_iteration: 16384.0,
            memory: MemoryPlan {
                per_gpu_bytes: 0.0,
                total_gpu_bytes: 0.0,
                per_node_cpu_bytes: 0.0,
                total_cpu_bytes: 0.0,
                nvme_bytes: 0.0,
                gpu_breakdown: vec![],
            },
            bandwidth: BandwidthReport::new(SimTime::from_ms(50.0)),
            spans: SpanLog::new(),
            hot_links: Vec::new(),
            plan_lowerings: 1,
            resilience: ResilienceMetrics::default(),
            solver: SolverStats::default(),
            engine: EngineStats::default(),
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = blank_report();
        let mut b = blank_report();
        assert_eq!(a.digest(), b.digest());
        b.iter_time = SimTime::from_ms(501.0);
        assert_ne!(a.digest(), b.digest());
        let mut c = blank_report();
        c.resilience = ResilienceMetrics {
            goodput_flops: 1.0,
            faults_applied: 3,
            ..ResilienceMetrics::default()
        };
        // Resilience bookkeeping is excluded from the measurement digest.
        assert_eq!(a.digest(), c.digest());
        // Solver work accounting likewise measures the simulator, not the
        // simulated system, and must not perturb the digest.
        let mut d = blank_report();
        d.solver.solves = 999;
        d.solver.links_touched = 12345;
        assert_eq!(a.digest(), d.digest());
        // Engine work accounting is also an execution detail.
        let mut e = blank_report();
        e.engine.ticks = 777;
        e.engine.flows_started = 42;
        assert_eq!(a.digest(), e.digest());
        assert_eq!(c.resilience.time_to_recover(), SimTime::ZERO);
    }

    #[test]
    fn throughput_math() {
        let report = TrainingReport {
            strategy: "x".into(),
            model_params: 1.4e9,
            nodes: 1,
            iter_time: SimTime::from_ms(500.0),
            flops_per_iteration: 2.0e14,
            tokens_per_iteration: 16384.0,
            memory: MemoryPlan {
                per_gpu_bytes: 0.0,
                total_gpu_bytes: 0.0,
                per_node_cpu_bytes: 0.0,
                total_cpu_bytes: 0.0,
                nvme_bytes: 0.0,
                gpu_breakdown: vec![],
            },
            bandwidth: BandwidthReport::new(SimTime::from_ms(50.0)),
            spans: SpanLog::new(),
            hot_links: Vec::new(),
            plan_lowerings: 1,
            resilience: ResilienceMetrics::default(),
            solver: SolverStats::default(),
            engine: EngineStats::default(),
        };
        assert!((report.throughput_tflops() - 400.0).abs() < 1e-9);
        assert!((report.model_billions() - 1.4).abs() < 1e-12);
    }
}
