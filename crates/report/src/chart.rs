//! Terminal charts: sparklines for utilization patterns, scatter plots
//! for trade-off figures.

const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `series` as a one-line sparkline scaled to `max` (auto when
/// `None`). Empty input renders an empty string.
///
/// ```
/// use zerosim_report::sparkline;
/// let s = sparkline(&[0.0, 0.5, 1.0], None);
/// assert_eq!(s.chars().count(), 3);
/// ```
pub fn sparkline(series: &[f64], max: Option<f64>) -> String {
    if series.is_empty() {
        return String::new();
    }
    let top = max
        .unwrap_or_else(|| series.iter().cloned().fold(0.0, f64::max))
        .max(f64::MIN_POSITIVE);
    series
        .iter()
        .map(|v| {
            // Clamped to [0, 7]: exact as usize.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let idx = ((v / top) * 8.0).floor().clamp(0.0, 7.0) as usize;
            BLOCKS[idx]
        })
        .collect()
}

/// Downsamples `series` to at most `width` points by averaging runs,
/// preserving the overall shape for terminal display.
pub fn downsample(series: &[f64], width: usize) -> Vec<f64> {
    if width == 0 || series.is_empty() || series.len() <= width {
        return series.to_vec();
    }
    let chunk = series.len() as f64 / width as f64;
    (0..width)
        .map(|i| {
            // Chunk boundaries are bounded by series.len(): exact as usize.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let lo = (i as f64 * chunk) as usize;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let hi = (((i + 1) as f64 * chunk) as usize)
                .min(series.len())
                .max(lo + 1);
            series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Renders an (x, y) scatter with point labels, for trade-off plots like
/// Fig. 8 (model size vs throughput).
pub fn scatter(points: &[(f64, f64, &str)], width: usize, height: usize) -> String {
    if points.is_empty() || width < 2 || height < 2 {
        return String::new();
    }
    let xmax = points
        .iter()
        .map(|p| p.0)
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    let ymax = points
        .iter()
        .map(|p| p.1)
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut grid = vec![vec![' '; width]; height];
    let mut legend = String::new();
    for (i, (x, y, label)) in points.iter().enumerate() {
        // Normalized coordinates land inside the grid: exact as usize.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cx = ((x / xmax) * (width - 1) as f64).round() as usize;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cy = ((y / ymax) * (height - 1) as f64).round() as usize;
        #[allow(clippy::cast_possible_truncation)] // i % 10 < 10
        let ch = char::from_digit((i % 10) as u32, 10).unwrap_or('*');
        grid[height - 1 - cy][cx] = ch;
        legend.push_str(&format!("  {ch}: {label} ({x:.1}, {y:.1})\n"));
    }
    let mut out = String::new();
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&legend);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales() {
        let s = sparkline(&[0.0, 1.0], None);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '█');
        assert_eq!(sparkline(&[], None), "");
    }

    #[test]
    fn sparkline_respects_fixed_max() {
        let s = sparkline(&[0.5], Some(1.0));
        assert_eq!(s.chars().next().unwrap(), '▅');
    }

    #[test]
    fn downsample_preserves_length_bounds() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = downsample(&series, 10);
        assert_eq!(d.len(), 10);
        assert!(d[9] > d[0]);
        assert_eq!(downsample(&series, 200).len(), 100);
        assert!(downsample(&[], 10).is_empty());
    }

    #[test]
    fn scatter_places_points() {
        let s = scatter(&[(1.0, 1.0, "low"), (10.0, 5.0, "high")], 20, 5);
        assert!(s.contains("0: low"));
        assert!(s.contains("1: high"));
        assert!(s.lines().count() > 6);
    }
}
