//! Order statistics and the spread guard for derived differences.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints are
//! the same numbers a Python reader computes from the raw samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean of `xs`. `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// First and third quartile as `statistics.quantiles(xs, n=4)` gives
/// them. `None` with fewer than two samples (Python raises there).
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    // Python's exclusive method: position i*(ld+1)/n, with the integer
    // part clamped to [1, ld-1] and linear interpolation in between.
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range: third minus first quartile.
pub fn iqr(xs: &[f64]) -> Option<f64> {
    quartiles(xs).map(|(q1, q3)| q3 - q1)
}

/// A difference of two sampled medians, with the evidence for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derived {
    /// `median(a) - median(b)`.
    pub value: f64,
    /// The larger interquartile range of the two inputs.
    pub spread: f64,
    /// Whether `|value|` exceeds `spread`. An unresolved difference is
    /// noise as far as these samples can tell, and is printed as such.
    pub resolved: bool,
}

/// The spread guard: `median(a) - median(b)`, resolved only when it is
/// larger than either input's interquartile range. Subtracting two noisy
/// minima or medians without this check is how negative "costs" and
/// absurd ratios end up in a report. With fewer than two samples on a
/// side there is no spread to compare against, so the difference is
/// unresolved.
pub fn derived_diff(a: &[f64], b: &[f64]) -> Derived {
    let value = match (median(a), median(b)) {
        (Some(ma), Some(mb)) => ma - mb,
        _ => 0.0,
    };
    match (iqr(a), iqr(b)) {
        (Some(ia), Some(ib)) => {
            let spread = ia.max(ib);
            Derived {
                value,
                spread,
                resolved: value.abs() > spread,
            }
        }
        _ => Derived {
            value,
            spread: f64::INFINITY,
            resolved: false,
        },
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
