//! Nearest-rank percentiles over a run's samples.

use zerosim_testkit::json::Json;

/// The nearest-rank `q`-quantile (`q` in `[0, 1]`) of an ascending
/// sample: the value at 1-based rank `ceil(q · n)`, clamped to `[1, n]`.
/// `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // q is clamped to [0, 1], so the rank is bounded by n: exact as usize.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sample size plus nearest-rank percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// 10th percentile.
    pub p10: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarizes `values` (any order); `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p10: nearest_rank(&sorted, 0.10)?,
            p25: nearest_rank(&sorted, 0.25)?,
            p50: nearest_rank(&sorted, 0.50)?,
            p75: nearest_rank(&sorted, 0.75)?,
            p90: nearest_rank(&sorted, 0.90)?,
        })
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.p50.abs()
        }
    }

    /// `{"n", "p10", "p25", "p50", "p75", "p90"}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), Json::Num(self.n as f64)),
            ("p10".into(), Json::Num(self.p10)),
            ("p25".into(), Json::Num(self.p25)),
            ("p50".into(), Json::Num(self.p50)),
            ("p75".into(), Json::Num(self.p75)),
            ("p90".into(), Json::Num(self.p90)),
        ])
    }
}
