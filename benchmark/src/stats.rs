//! Order statistics over a run's samples.

/// First quartile, median and third quartile of `values`, by linear
/// interpolation between closest ranks (the "inclusive" method: the
/// median of an even count is the mean of the two middle values).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Geometric mean of strictly positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_on_an_odd_count() {
        let (q1, m, q3) = quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((q1, m, q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn median_and_quartiles_on_an_even_count() {
        let (q1, m, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(m, 2.5);
        assert_eq!((q1, q3), (1.75, 3.25));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
