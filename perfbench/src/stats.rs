//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear
/// interpolation between closest ranks; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`, `0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The 90th percentile, reported only when at least ten samples lie
/// strictly above it: a tail estimate resting on fewer points is one
/// or two outliers, not a percentile.
pub fn p90(samples: &[f64]) -> Option<f64> {
    let value = quantile(samples, 0.9)?;
    let above = samples.iter().filter(|&&s| s > value).count();
    (above >= 10).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
    }

    #[test]
    fn p90_needs_ten_samples_above_it() {
        let ninety_one: Vec<f64> = (0..91).map(f64::from).collect();
        assert!(p90(&ninety_one).is_none(), "only 82..=90 exceed 81");
        let ninety_two: Vec<f64> = (0..92).map(f64::from).collect();
        let value = p90(&ninety_two).expect("82..=91 exceed 81.9");
        assert!((value - 81.9).abs() < 1e-9);
        assert!(p90(&[5.0; 500]).is_none(), "nothing lies above a constant");
        assert!(p90(&[1.0, 2.0, 3.0]).is_none());
    }
}
