//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between the
/// two nearest ranks. Returns 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile in [`TAILS`] that has at least ten samples
/// beyond it, with its value: `(percentile, value)`. Falls back to the
/// median when there are fewer than twenty samples.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let p = TAILS
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, quantile(xs, p / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tail_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&xs), 51.0);
        assert_eq!(quantile(&xs, 0.9), 91.0);
        assert_eq!(tail(&xs).0, 90.0);
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&many).0, 99.0);
        assert_eq!(tail(&[1.0, 2.0]).0, 50.0);
        assert_eq!(median(&[]), 0.0);
    }
}
