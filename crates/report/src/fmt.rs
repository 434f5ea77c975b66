//! Number formatting helpers for paper-style output.

/// Formats bytes/second as the paper's "GBps" figures with three
/// significant digits.
///
/// ```
/// use zerosim_report::gbps;
/// assert_eq!(gbps(83.0e9), "83.0");
/// assert_eq!(gbps(1.56e9), "1.56");
/// assert_eq!(gbps(0.0), "0.00");
/// ```
pub fn gbps(bytes_per_sec: f64) -> String {
    sig3(bytes_per_sec / 1e9)
}

/// Formats a parameter count as billions with one decimal ("11.4").
pub fn billions(params: f64) -> String {
    format!("{:.1}", params / 1e9)
}

/// Formats FLOP/s as TFLOP/s with one decimal.
pub fn tflops(flops_per_sec: f64) -> String {
    format!("{:.1}", flops_per_sec / 1e12)
}

/// Formats bytes as GB with no decimals (memory bars).
pub fn gb(bytes: f64) -> String {
    format!("{:.0}", bytes / 1e9)
}

/// Three significant digits, like the paper's Table IV.
fn sig3(v: f64) -> String {
    if v == 0.0 {
        return "0.00".into();
    }
    // Finite f64 magnitudes lie within [-308, 308]: fits i32.
    #[allow(clippy::cast_possible_truncation)]
    let mag = v.abs().log10().floor() as i32;
    let decimals = (2 - mag).clamp(0, 2) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig3_behaviour() {
        assert_eq!(sig3(123.4), "123");
        assert_eq!(sig3(12.34), "12.3");
        assert_eq!(sig3(1.234), "1.23");
        assert_eq!(sig3(0.1234), "0.12");
        assert_eq!(sig3(0.0), "0.00");
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(billions(11.4e9), "11.4");
        assert_eq!(tflops(438.2e12), "438.2");
        assert_eq!(gb(353.4e9), "353");
        assert_eq!(gbps(97.3e9), "97.3");
    }
}
