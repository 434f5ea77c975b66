//! Measurement instrumentation: time-bucketed bandwidth recording and
//! timeline span logging.
//!
//! The paper samples every interconnect with AMD µProf / `nvidia-smi` and
//! reports average, 90th-percentile, and peak utilization (Table IV) plus
//! utilization-pattern plots (Figs. 9, 10, 12). [`BandwidthRecorder`]
//! reproduces that methodology: bytes moved on each link are accumulated
//! into fixed-width time buckets, and statistics are computed over the
//! bucket samples exactly as a periodic hardware counter would observe them.
//!
//! The recorder keeps one bucket series per link in a `Vec` indexed by
//! [`LinkId::index`]. Every callback of one
//! [`FlowNet::advance`](crate::flow::FlowNet::advance) shares its
//! `(start, dt_secs)` interval, so the recorder clips the interval at its
//! origin and finds its first and last bucket once, then only spreads
//! each callback's bytes.
//!
//! [`SpanLog`] holds the timeline spans the DAG engine emits. A caller
//! that never reads them empties the log after each run with
//! [`DagEngine::clear_spans`](crate::engine::DagEngine::clear_spans).

use crate::flow::{FlowObserver, LinkId};
use crate::time::SimTime;

/// Bandwidth statistics over a sampled series, in bytes/second.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BandwidthStats {
    /// Mean over all samples (including idle ones).
    pub avg: f64,
    /// 90th percentile sample.
    pub p90: f64,
    /// Maximum sample.
    pub peak: f64,
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an already-sorted sample:
/// the element of 1-based rank `ceil(q·n)`, clamped to `[1, n]`, or
/// `T::default()` for an empty sample.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    // q in [0,1], so the rank is bounded by len: exact as usize.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl BandwidthStats {
    /// Computes stats from raw samples in bytes/second.
    ///
    /// Returns all-zero stats for an empty slice. The 90th percentile uses
    /// the nearest-rank method ([`nearest_rank`]), matching how the paper
    /// post-processes its sampled counters.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN bandwidth sample"));
        let sum: f64 = sorted.iter().sum();
        BandwidthStats {
            avg: sum / sorted.len() as f64,
            p90: nearest_rank(&sorted, 0.90),
            peak: *sorted.last().expect("non-empty"),
        }
    }

    /// Converts all fields from bytes/second to gigabytes/second (1e9).
    pub fn to_gbps(self) -> BandwidthStats {
        BandwidthStats {
            avg: self.avg / 1e9,
            p90: self.p90 / 1e9,
            peak: self.peak / 1e9,
        }
    }
}

/// Counters describing how much work the incremental max-min solver did.
///
/// The solver re-converges only the *dirty component* — the links reachable
/// from the event's touched links through shared flows — so these counters
/// are the direct measure of how much cheaper an event was than a full
/// network recompute. They accumulate monotonically over the life of a
/// [`FlowNet`](crate::flow::FlowNet); use [`SolverStats::delta_since`] to
/// window them around a measured region (e.g. the timed iterations of a
/// training run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Number of solves (one per batch of dirty links at a read point).
    pub solves: u64,
    /// Solves whose dirty component spanned the whole network (cold start,
    /// forced full mode, or genuinely global events).
    pub full_solves: u64,
    /// Cumulative links re-converged across all solves.
    pub links_touched: u64,
    /// Cumulative flows re-converged across all solves.
    pub flows_touched: u64,
    /// Largest single dirty component, in links.
    pub max_component_links: usize,
    /// Size of the most recent dirty component, in links.
    pub last_component_links: usize,
}

impl SolverStats {
    /// Mean links re-converged per solve (0 when no solve happened).
    pub fn mean_links_per_solve(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.links_touched as f64 / self.solves as f64
        }
    }

    /// Mean flows re-converged per solve (0 when no solve happened).
    pub fn mean_flows_per_solve(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.flows_touched as f64 / self.solves as f64
        }
    }

    /// Counter difference `self - earlier` for windowed measurement. The
    /// `max_component_links` / `last_component_links` gauges are taken from
    /// `self` (an upper bound for the window).
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            solves: self.solves.saturating_sub(earlier.solves),
            full_solves: self.full_solves.saturating_sub(earlier.full_solves),
            links_touched: self.links_touched.saturating_sub(earlier.links_touched),
            flows_touched: self.flows_touched.saturating_sub(earlier.flows_touched),
            max_component_links: self.max_component_links,
            last_component_links: self.last_component_links,
        }
    }
}

/// Counters describing how much work the DAG engine did.
///
/// They accumulate monotonically over the life of a
/// [`DagEngine`](crate::engine::DagEngine); use
/// [`EngineStats::delta_since`] to window them around a measured region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Completed `run`/`run_faulted` calls.
    pub runs: u64,
    /// Tasks retired across all runs (every task finishes exactly once in
    /// an uninterrupted run).
    pub tasks_finished: u64,
    /// Flows handed to the network across all runs.
    pub flows_started: u64,
    /// Outer event-loop iterations (virtual-time advances) across all runs.
    pub ticks: u64,
}

impl EngineStats {
    /// Counter difference `self - earlier` for windowed measurement.
    pub fn delta_since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            runs: self.runs.saturating_sub(earlier.runs),
            tasks_finished: self.tasks_finished.saturating_sub(earlier.tasks_finished),
            flows_started: self.flows_started.saturating_sub(earlier.flows_started),
            ticks: self.ticks.saturating_sub(earlier.ticks),
        }
    }
}

/// Accumulates per-link bytes into fixed-width time buckets.
///
/// ```
/// use zerosim_simkit::flow::{FlowNet, FlowObserver};
/// use zerosim_simkit::record::BandwidthRecorder;
/// use zerosim_simkit::SimTime;
///
/// let mut net = FlowNet::new();
/// let l = net.add_link("pcie", 100.0);
/// net.start_flow(&[l], 200.0).unwrap();
/// let mut rec = BandwidthRecorder::new(SimTime::from_secs(1.0));
/// net.drain(&mut rec).unwrap();
/// let series = rec.series(l);
/// assert_eq!(series.len(), 2); // two 1-second buckets at 100 B/s
/// assert!((series[0] - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthRecorder {
    bucket: SimTime,
    /// Bytes per bucket of each link, indexed by [`LinkId::index`]; links
    /// that never carried traffic hold an empty series.
    bytes: Vec<Vec<f64>>,
    horizon: SimTime,
    origin: SimTime,
    /// The interval of the last recorded callback.
    last: Option<Interval>,
}

/// How an observed interval lies against the recorder's origin.
#[derive(Debug, Clone, Copy)]
enum Clip {
    /// It ends at or before the origin: nothing is recorded.
    Before,
    /// It straddles the origin: only the `kept` seconds after it count.
    Straddles { kept: f64 },
    /// It starts at or after the origin.
    After,
}

/// One observed `(start, dt_secs)` interval in recorder-local time:
/// clipped at the origin, in nanoseconds, with its first and last bucket.
#[derive(Debug, Clone, Copy)]
struct Interval {
    start: SimTime,
    /// `dt_secs` as bits, so the memo matches exactly.
    dt_bits: u64,
    clip: Clip,
    start_ns: u64,
    end_ns: u64,
    first: u64,
    last: u64,
}

impl BandwidthRecorder {
    /// Creates a recorder with the given bucket width.
    ///
    /// # Panics
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimTime) -> Self {
        Self::with_origin(bucket, SimTime::ZERO)
    }

    /// Creates a recorder whose bucket 0 starts at `origin`; transfers
    /// before the origin are ignored (e.g. warm-up iterations).
    ///
    /// # Panics
    /// Panics if `bucket` is zero.
    pub fn with_origin(bucket: SimTime, origin: SimTime) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        BandwidthRecorder {
            bucket,
            bytes: Vec::new(),
            horizon: SimTime::ZERO,
            origin,
            last: None,
        }
    }

    /// Latest instant covered by any recorded transfer.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Bandwidth series for `link` in bytes/second per bucket, padded with
    /// trailing idle buckets up to the recorder horizon.
    pub fn series(&self, link: LinkId) -> Vec<f64> {
        let n = self.bucket_count();
        let width = self.bucket.as_secs();
        let mut out = vec![0.0; n];
        for (i, v) in self.recorded(link).iter().enumerate() {
            out[i] = v / width;
        }
        out
    }

    /// Sum of the bandwidth series of several links (e.g. the two directions
    /// of a full-duplex interface, or all 12 NVLinks of a node).
    pub fn aggregate_series(&self, links: &[LinkId]) -> Vec<f64> {
        let n = self.bucket_count();
        let width = self.bucket.as_secs();
        let mut out = vec![0.0; n];
        for &link in links {
            for (i, v) in self.recorded(link).iter().enumerate() {
                out[i] += v / width;
            }
        }
        out
    }

    /// Statistics (avg/p90/peak, bytes/second) over the aggregate series of
    /// `links`.
    pub fn stats(&self, links: &[LinkId]) -> BandwidthStats {
        BandwidthStats::from_samples(&self.aggregate_series(links))
    }

    /// Total bytes recorded on `link`.
    pub fn total_bytes(&self, link: LinkId) -> f64 {
        self.recorded(link).iter().sum()
    }

    /// The recorded bytes per bucket of `link` (empty when idle).
    fn recorded(&self, link: LinkId) -> &[f64] {
        self.bytes.get(link.index()).map_or(&[], Vec::as_slice)
    }

    #[allow(clippy::cast_possible_truncation)] // bucket counts are small
    fn bucket_count(&self) -> usize {
        (self
            .horizon
            .as_nanos()
            .div_ceil(self.bucket.as_nanos().max(1))) as usize
    }

    /// Resolves `(start, dt_secs)` against the origin and the bucket grid,
    /// extending the horizon, or returns the last callback's answer when
    /// the interval repeats.
    fn interval(&mut self, start: SimTime, dt_secs: f64) -> Interval {
        let dt_bits = dt_secs.to_bits();
        if let Some(last) = self.last {
            if last.start == start && last.dt_bits == dt_bits {
                return last;
            }
        }
        let mut iv = Interval {
            start,
            dt_bits,
            clip: Clip::Before,
            start_ns: 0,
            end_ns: 0,
            first: 0,
            last: 0,
        };
        // Shift into recorder-local time; clip anything before the origin.
        let raw_end = start + SimTime::from_secs(dt_secs);
        if raw_end > self.origin {
            let (local, dt_secs) = if start < self.origin {
                let kept = (raw_end - self.origin).as_secs();
                iv.clip = Clip::Straddles { kept };
                (SimTime::ZERO, kept)
            } else {
                iv.clip = Clip::After;
                (start - self.origin, dt_secs)
            };
            let end = local + SimTime::from_secs(dt_secs);
            self.horizon = self.horizon.max(end);
            let width_ns = self.bucket.as_nanos();
            iv.start_ns = local.as_nanos();
            iv.end_ns = end.as_nanos();
            iv.first = iv.start_ns / width_ns;
            iv.last = iv.end_ns.saturating_sub(1) / width_ns;
        }
        self.last = Some(iv);
        iv
    }

    // Bucket indices are bounded by horizon / bucket width, far below
    // usize::MAX on any supported target.
    #[allow(clippy::cast_possible_truncation)]
    fn add(&mut self, link: LinkId, start: SimTime, dt_secs: f64, bytes: f64) {
        if bytes <= 0.0 || dt_secs <= 0.0 {
            return;
        }
        let iv = self.interval(start, dt_secs);
        let bytes = match iv.clip {
            Clip::Before => return,
            Clip::Straddles { kept } => bytes * kept / dt_secs,
            Clip::After => bytes,
        };
        let width_ns = self.bucket.as_nanos();
        if self.bytes.len() <= link.index() {
            self.bytes.resize_with(link.index() + 1, Vec::new);
        }
        let buf = &mut self.bytes[link.index()];
        if buf.len() <= iv.last as usize {
            buf.resize(iv.last as usize + 1, 0.0);
        }
        if iv.first == iv.last {
            buf[iv.first as usize] += bytes;
            return;
        }
        // Spread proportionally over the covered buckets.
        let total_ns = (iv.end_ns - iv.start_ns) as f64;
        for b in iv.first..=iv.last {
            let b_start = b * width_ns;
            let b_end = b_start + width_ns;
            let overlap = (iv.end_ns.min(b_end) - iv.start_ns.max(b_start)) as f64;
            buf[b as usize] += bytes * overlap / total_ns;
        }
    }
}

impl FlowObserver for BandwidthRecorder {
    fn on_transfer(&mut self, link: LinkId, start: SimTime, dt_secs: f64, bytes: f64) {
        self.add(link, start, dt_secs, bytes);
    }
}

/// A labelled interval on a device timeline (the simulated analogue of an
/// `nsys` kernel span; Fig. 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Device/track the span belongs to (e.g. a GPU index).
    pub track: u32,
    /// Category label (e.g. "gemm", "allreduce").
    pub label: &'static str,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
}

/// Collects timeline spans emitted during a simulation.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a span.
    ///
    /// # Panics
    /// Panics in debug builds if `end < start`.
    pub fn push(&mut self, track: u32, label: &'static str, start: SimTime, end: SimTime) {
        debug_assert!(end >= start, "span ends before it starts");
        self.spans.push(Span {
            track,
            label,
            start,
            end,
        });
    }

    /// Removes every span, keeping the storage.
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
    }

    /// All spans in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans on a single track, sorted by start time.
    pub fn track(&self, track: u32) -> Vec<&Span> {
        let mut v: Vec<&Span> = self.spans.iter().filter(|s| s.track == track).collect();
        v.sort_by_key(|s| s.start);
        v
    }

    /// Latest end time across all tracks ([`SimTime::ZERO`] when empty).
    pub fn horizon(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .fold(SimTime::ZERO, SimTime::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowNet;

    #[test]
    fn stats_from_samples() {
        let s = BandwidthStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((s.avg - 5.5).abs() < 1e-9);
        assert_eq!(s.p90, 9.0);
        assert_eq!(s.peak, 10.0);
    }

    #[test]
    fn stats_empty_is_zero() {
        assert_eq!(BandwidthStats::from_samples(&[]), BandwidthStats::default());
    }

    #[test]
    fn gbps_conversion() {
        let s = BandwidthStats {
            avg: 2e9,
            p90: 3e9,
            peak: 4e9,
        }
        .to_gbps();
        assert_eq!(s.avg, 2.0);
        assert_eq!(s.p90, 3.0);
        assert_eq!(s.peak, 4.0);
    }

    #[test]
    fn recorder_buckets_constant_flow() {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 100.0);
        net.start_flow(&[l], 250.0).unwrap();
        let mut rec = BandwidthRecorder::new(SimTime::from_secs(1.0));
        net.drain(&mut rec).unwrap();
        let s = rec.series(l);
        assert_eq!(s.len(), 3);
        assert!((s[0] - 100.0).abs() < 1e-9);
        assert!((s[1] - 100.0).abs() < 1e-9);
        assert!((s[2] - 50.0).abs() < 1e-6);
        assert!((rec.total_bytes(l) - 250.0).abs() < 1e-6);
    }

    #[test]
    fn recorder_spreads_across_bucket_boundaries() {
        let mut rec = BandwidthRecorder::new(SimTime::from_secs(1.0));
        // 3-second transfer of 300 bytes starting at t=0.5.
        rec.add(LinkId(0), SimTime::from_secs(0.5), 3.0, 300.0);
        let s = rec.series(LinkId(0));
        assert_eq!(s.len(), 4);
        assert!((s[0] - 50.0).abs() < 1e-6);
        assert!((s[1] - 100.0).abs() < 1e-6);
        assert!((s[2] - 100.0).abs() < 1e-6);
        assert!((s[3] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn origin_clips_warmup_traffic() {
        let mut rec =
            BandwidthRecorder::with_origin(SimTime::from_secs(1.0), SimTime::from_secs(2.0));
        // Fully before the origin: dropped.
        rec.add(LinkId(0), SimTime::ZERO, 1.0, 100.0);
        assert_eq!(rec.total_bytes(LinkId(0)), 0.0);
        // Straddling the origin: only the post-origin share counts.
        rec.add(LinkId(0), SimTime::from_secs(1.0), 2.0, 200.0);
        assert!((rec.total_bytes(LinkId(0)) - 100.0).abs() < 1e-6);
        // After the origin: shifted to local time.
        rec.add(LinkId(0), SimTime::from_secs(3.0), 1.0, 50.0);
        let s = rec.series(LinkId(0));
        assert_eq!(s.len(), 2);
        assert!((s[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn each_interval_gets_its_own_buckets() {
        let secs = SimTime::from_secs;
        let mut rec = BandwidthRecorder::with_origin(secs(1.0), secs(1.0));
        // Local [1, 2): 100 bytes in bucket 1.
        rec.add(LinkId(0), secs(2.0), 1.0, 100.0);
        // Same start, twice as long: local [1, 3), 50 + 50.
        rec.add(LinkId(0), secs(2.0), 2.0, 100.0);
        // Same length, a second later: local [2, 4), 50 + 50.
        rec.add(LinkId(0), secs(3.0), 2.0, 100.0);
        // Straddles the origin: half the interval, so half the bytes, in
        // local [0, 0.5).
        rec.add(LinkId(0), secs(0.5), 1.0, 100.0);
        // The same interval again, on another link.
        rec.add(LinkId(1), secs(0.5), 1.0, 40.0);
        assert_eq!(rec.series(LinkId(0)), vec![50.0, 150.0, 100.0, 50.0]);
        assert_eq!(rec.series(LinkId(1)), vec![20.0, 0.0, 0.0, 0.0]);
        assert_eq!(rec.horizon(), secs(4.0));
    }

    #[test]
    fn aggregate_series_sums_links() {
        let mut rec = BandwidthRecorder::new(SimTime::from_secs(1.0));
        rec.add(LinkId(0), SimTime::ZERO, 1.0, 10.0);
        rec.add(LinkId(1), SimTime::ZERO, 1.0, 20.0);
        let agg = rec.aggregate_series(&[LinkId(0), LinkId(1)]);
        assert_eq!(agg, vec![30.0]);
        let stats = rec.stats(&[LinkId(0), LinkId(1)]);
        assert_eq!(stats.peak, 30.0);
    }

    #[test]
    fn unknown_link_series_is_idle() {
        let mut rec = BandwidthRecorder::new(SimTime::from_secs(1.0));
        rec.add(LinkId(0), SimTime::ZERO, 2.0, 10.0);
        assert_eq!(rec.series(LinkId(9)), vec![0.0, 0.0]);
    }

    #[test]
    fn solver_stats_means_and_delta() {
        let earlier = SolverStats {
            solves: 2,
            full_solves: 1,
            links_touched: 10,
            flows_touched: 6,
            max_component_links: 8,
            last_component_links: 2,
        };
        let later = SolverStats {
            solves: 6,
            full_solves: 1,
            links_touched: 18,
            flows_touched: 14,
            max_component_links: 8,
            last_component_links: 1,
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.solves, 4);
        assert_eq!(d.full_solves, 0);
        assert_eq!(d.links_touched, 8);
        assert_eq!(d.flows_touched, 8);
        assert_eq!(d.max_component_links, 8);
        assert!((d.mean_links_per_solve() - 2.0).abs() < 1e-12);
        assert!((d.mean_flows_per_solve() - 2.0).abs() < 1e-12);
        assert_eq!(SolverStats::default().mean_links_per_solve(), 0.0);
        assert_eq!(SolverStats::default().mean_flows_per_solve(), 0.0);
    }

    #[test]
    fn engine_stats_delta() {
        let earlier = EngineStats {
            runs: 1,
            tasks_finished: 10,
            flows_started: 2,
            ticks: 8,
        };
        let later = EngineStats {
            runs: 3,
            tasks_finished: 30,
            flows_started: 6,
            ticks: 24,
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.runs, 2);
        assert_eq!(d.tasks_finished, 20);
        assert_eq!(d.flows_started, 4);
        assert_eq!(d.ticks, 16);
        assert_eq!(earlier.delta_since(&later), EngineStats::default());
    }

    #[test]
    fn span_log_tracks_and_horizon() {
        let mut log = SpanLog::new();
        log.push(0, "gemm", SimTime::ZERO, SimTime::from_ms(2.0));
        log.push(0, "allreduce", SimTime::from_ms(2.0), SimTime::from_ms(3.0));
        log.push(1, "gemm", SimTime::from_ms(1.0), SimTime::from_ms(4.0));
        assert_eq!(log.spans().len(), 3);
        assert_eq!(log.track(0).len(), 2);
        assert_eq!(
            log.track(1)[0].end - log.track(1)[0].start,
            SimTime::from_ms(3.0)
        );
        assert_eq!(log.horizon(), SimTime::from_ms(4.0));
    }
}

/// Interval-union coverage utilities over span logs.
impl SpanLog {
    /// Total time on `track` covered by at least one span whose label is
    /// in `labels`, overlaps counted once.
    pub fn coverage(&self, track: u32, labels: &[&str]) -> SimTime {
        let mut intervals: Vec<(SimTime, SimTime)> = self
            .spans
            .iter()
            .filter(|s| s.track == track && labels.contains(&s.label))
            .map(|s| (s.start, s.end))
            .collect();
        intervals.sort();
        let mut total = SimTime::ZERO;
        let mut current: Option<(SimTime, SimTime)> = None;
        for (start, end) in intervals {
            match current {
                Some((cs, ce)) if start <= ce => {
                    current = Some((cs, ce.max(end)));
                }
                Some((cs, ce)) => {
                    total += ce - cs;
                    current = Some((start, end));
                }
                None => current = Some((start, end)),
            }
        }
        if let Some((cs, ce)) = current {
            total += ce - cs;
        }
        total
    }

    /// Time on `track` covered by a span in `labels` but NOT by any span
    /// in `unless` — e.g. communication time not hidden under compute.
    pub fn exposed(&self, track: u32, labels: &[&str], unless: &[&str]) -> SimTime {
        // coverage(A) − coverage(A ∩ B) via inclusion-exclusion over the
        // merged sets: |A \ B| = |A ∪ B| − |B|.
        let union: Vec<&str> = labels.iter().chain(unless).copied().collect();
        self.coverage(track, &union) - self.coverage(track, unless)
    }
}

#[cfg(test)]
mod coverage_tests {
    use super::*;

    fn log() -> SpanLog {
        let mut l = SpanLog::new();
        let ms = SimTime::from_ms;
        l.push(0, "gemm", ms(0.0), ms(4.0));
        l.push(0, "gemm", ms(2.0), ms(6.0)); // overlaps the first
        l.push(0, "allreduce", ms(5.0), ms(9.0)); // 1 ms under gemm
        l.push(0, "allreduce", ms(12.0), ms(14.0)); // fully exposed
        l
    }

    #[test]
    fn coverage_merges_overlaps() {
        let l = log();
        assert_eq!(l.coverage(0, &["gemm"]), SimTime::from_ms(6.0));
        assert_eq!(l.coverage(0, &["allreduce"]), SimTime::from_ms(6.0));
        assert_eq!(
            l.coverage(0, &["gemm", "allreduce"]),
            SimTime::from_ms(11.0)
        );
        assert_eq!(l.coverage(1, &["gemm"]), SimTime::ZERO);
        assert_eq!(l.coverage(0, &["nope"]), SimTime::ZERO);
    }

    #[test]
    fn exposed_subtracts_hidden_portion() {
        let l = log();
        // allreduce spans cover 6 ms total, 1 ms of which is under gemm.
        assert_eq!(
            l.exposed(0, &["allreduce"], &["gemm"]),
            SimTime::from_ms(5.0)
        );
        // gemm is never hidden by allreduce... except the same 1 ms overlap.
        assert_eq!(
            l.exposed(0, &["gemm"], &["allreduce"]),
            SimTime::from_ms(5.0)
        );
    }
}
