//! Order statistics used by the reports and by `compare` / `noise`.

/// The `q`-quantile (0..=1) of `sorted` with linear interpolation.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(samples_ns: &[u64]) -> f64 {
    quantile_us(samples_ns, 0.5)
}

/// Quantile of nanosecond samples, in microseconds.
pub fn quantile_us(samples_ns: &[u64], q: f64) -> f64 {
    let mut v: Vec<f64> = samples_ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the benchmark's acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// acceptance rule bounds.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median_us(&[1000, 3000, 2000]), 2.0);
        assert_eq!(quantile_us(&[1000, 2000, 3000, 4000, 5000], 1.0), 5.0);
    }
}
