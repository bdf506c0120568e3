//! Descriptive statistics helpers shared by experiments and reports.

/// Linear interpolation percentile of an unsorted slice; `q` in `[0, 1]`.
///
/// Returns `None` for an empty slice or a non-finite `q`. Copies the input;
/// use [`percentile_mut`] to avoid the allocation when the slice may be
/// reordered in place.
///
/// # Panics
///
/// Panics if any value is NaN.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !q.is_finite() {
        return None;
    }
    let mut scratch: Vec<f64> = values.to_vec();
    percentile_mut(&mut scratch, q)
}

/// [`percentile`] without the defensive copy: selects the needed order
/// statistics in place (O(n) expected, via `select_nth_unstable_by`) and may
/// reorder `values` arbitrarily.
///
/// # Panics
///
/// Panics if any value is NaN.
pub fn percentile_mut(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() || !q.is_finite() {
        return None;
    }
    // Selection may not compare every element, so check the NaN contract
    // up front (full sort used to catch it via partial_cmp).
    assert!(
        values.iter().all(|v| !v.is_nan()),
        "NaN in percentile input"
    );
    let q = q.clamp(0.0, 1.0);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let (_, &mut lo_v, rest) = values.select_nth_unstable_by(lo, |a, b| {
        a.partial_cmp(b).expect("NaN in percentile input")
    });
    if frac == 0.0 {
        return Some(lo_v);
    }
    // hi == lo + 1: the smallest element of the right partition.
    let hi_v = rest.iter().copied().fold(f64::INFINITY, f64::min);
    Some(lo_v * (1.0 - frac) + hi_v * frac)
}

/// Geometric mean of strictly positive values.
///
/// Returns `None` when empty or when any value is non-positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.5), Some(2.5));
    }

    #[test]
    fn percentile_empty_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile_mut(&mut [], 0.5), None);
    }

    #[test]
    fn percentile_mut_matches_sorting_path() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0, 2.5, -1.0, 9.5];
        for q in [0.0, 0.1, 0.25, 0.5, 0.77, 0.9, 0.99, 1.0] {
            let mut scratch = xs;
            let expected = {
                let mut sorted = xs;
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let pos = q * (sorted.len() - 1) as f64;
                let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
                let frac = pos - lo as f64;
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac
            };
            let got = percentile_mut(&mut scratch, q).unwrap();
            assert!((got - expected).abs() < 1e-12, "q={q}: {got} vs {expected}");
        }
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentile_still_panics_on_nan() {
        percentile(&[1.0, f64::NAN, 2.0], 0.5);
    }

    #[test]
    fn geomean_basic() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
