//! Order statistics over `f64` samples.

/// The `p`-quantile (nearest rank) of `values`; 0 for an empty slice, so a
/// metric nothing contributed to reads as 0 instead of NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.95), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0, 4.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
