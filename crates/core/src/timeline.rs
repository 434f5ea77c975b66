//! Timeline analysis — the simulated analogue of the paper's nsys
//! application-level characterization (Fig. 5).

use std::collections::BTreeMap;

use zerosim_simkit::{SimTime, SpanLog};

/// Busy-time breakdown of one device track.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackProfile {
    /// Track id (GPU/CPU resource index).
    pub track: u32,
    /// Total busy time per span label, sorted by label.
    pub by_label: Vec<(&'static str, SimTime)>,
    /// Sum over labels.
    pub busy: SimTime,
    /// Track horizon (last span end − first span start).
    pub extent: SimTime,
}

impl TrackProfile {
    /// Idle fraction of the extent (the white gaps in Fig. 5). Clamped at
    /// zero: overlapping spans (compute + concurrent comm streams) can
    /// make the raw busy sum exceed the extent.
    pub fn idle_frac(&self) -> f64 {
        if self.extent.is_zero() {
            return 0.0;
        }
        (1.0 - self.busy.as_secs() / self.extent.as_secs()).max(0.0)
    }

    /// Busy time of one label ([`SimTime::ZERO`] when absent).
    pub fn label_time(&self, label: &str) -> SimTime {
        self.by_label
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, t)| *t)
            .unwrap_or(SimTime::ZERO)
    }
}

/// Summarizes a span log into per-track profiles.
pub fn profile_tracks(spans: &SpanLog) -> Vec<TrackProfile> {
    // One accumulator per track: label times and extent bounds live in
    // the same entry, so no track can ever hold one without the other
    // (the former two-map layout indexed a bounds map by track and would
    // panic if the maps drifted).
    let mut tracks: BTreeMap<u32, (BTreeMap<&'static str, SimTime>, SimTime, SimTime)> =
        BTreeMap::new();
    for s in spans.spans() {
        let (by_label, start, end) = tracks
            .entry(s.track)
            .or_insert_with(|| (BTreeMap::new(), s.start, s.end));
        *by_label.entry(s.label).or_insert(SimTime::ZERO) += s.end - s.start;
        *start = (*start).min(s.start);
        *end = (*end).max(s.end);
    }
    tracks
        .into_iter()
        .map(|(track, (by_label, start, end))| {
            let busy: SimTime = by_label.values().copied().sum();
            TrackProfile {
                track,
                by_label: by_label.into_iter().collect(),
                busy,
                extent: end - start,
            }
        })
        .collect()
}

/// Serializes a span log as a Chrome trace (`chrome://tracing` /
/// Perfetto "JSON Array Format") so simulated timelines can be inspected
/// with the same tooling the paper used for its nsys captures.
///
/// Tracks become thread ids; span labels become event names.
pub fn to_chrome_trace(spans: &SpanLog) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("[");
    for (i, s) in spans.spans().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{}}}",
            esc(s.label),
            s.start.as_micros(),
            (s.end - s.start).as_micros(),
            s.track
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_format() {
        let mut log = SpanLog::new();
        log.push(0, "gemm", SimTime::ZERO, SimTime::from_us(5.0));
        log.push(
            2,
            "all\"reduce",
            SimTime::from_us(5.0),
            SimTime::from_us(7.5),
        );
        let t = to_chrome_trace(&log);
        assert!(t.starts_with('[') && t.ends_with(']'));
        assert!(t.contains("\"name\":\"gemm\""));
        assert!(t.contains("\"tid\":2"));
        assert!(t.contains("\\\"reduce"), "quotes must be escaped: {t}");
        assert!(t.contains("\"dur\":5.000"));
        assert_eq!(to_chrome_trace(&SpanLog::new()), "[]");
    }

    #[test]
    fn profiles_accumulate_and_measure_idle() {
        let mut log = SpanLog::new();
        log.push(0, "gemm", SimTime::ZERO, SimTime::from_ms(6.0));
        log.push(
            0,
            "allreduce",
            SimTime::from_ms(8.0),
            SimTime::from_ms(10.0),
        );
        log.push(1, "gemm", SimTime::ZERO, SimTime::from_ms(1.0));
        let profiles = profile_tracks(&log);
        assert_eq!(profiles.len(), 2);
        let p0 = &profiles[0];
        assert_eq!(p0.track, 0);
        assert_eq!(p0.label_time("gemm"), SimTime::from_ms(6.0));
        assert_eq!(p0.busy, SimTime::from_ms(8.0));
        assert_eq!(p0.extent, SimTime::from_ms(10.0));
        assert!((p0.idle_frac() - 0.2).abs() < 1e-9);
        assert_eq!(p0.label_time("nope"), SimTime::ZERO);
    }

    #[test]
    fn empty_log_is_empty_profile() {
        assert!(profile_tracks(&SpanLog::new()).is_empty());
    }
}
