//! Quartiles must match Python's `statistics.quantiles(xs, n=4)`, and the
//! spread guard must only resolve differences larger than the noise.

use perfbench::stats::{derived_diff, iqr, mean, median, quartiles};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn quartiles_match_python() {
    // Expected values printed by Python 3.11's statistics.quantiles.
    let cases: [(&[f64], (f64, f64)); 5] = [
        (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], (2.75, 8.25)),
        (&[1., 2.], (0.75, 2.25)),
        (&[3., 1., 2.], (1.0, 3.0)),
        (&[0.5, 0.25, 4.0, 1.0, 2.0], (0.375, 3.0)),
        (&[7., 7., 7., 7.], (7.0, 7.0)),
    ];
    for (xs, (q1, q3)) in cases {
        let (a, b) = quartiles(xs).expect("two or more samples");
        assert!(close(a, q1) && close(b, q3), "{xs:?}: got {a}, {b}");
    }
}

#[test]
fn quartiles_need_two_samples() {
    assert_eq!(quartiles(&[]), None);
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(iqr(&[1.0]), None);
}

#[test]
fn mean_of_values_and_empty() {
    assert_eq!(mean(&[1., 2., 6.]), Some(3.0));
    assert_eq!(mean(&[]), None);
}

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3., 1., 2.]), Some(2.0));
    assert_eq!(median(&[4., 1., 3., 2.]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn a_difference_beyond_the_spread_is_resolved() {
    let slow = [10.0, 10.1, 10.2, 10.3, 10.4];
    let fast = [5.0, 5.1, 5.2, 5.3, 5.4];
    let d = derived_diff(&slow, &fast);
    assert!(close(d.value, 5.0));
    assert!(d.resolved);
}

#[test]
fn a_difference_within_the_spread_is_unresolved() {
    // Medians differ by 0.1 while either input spreads by 2 or more:
    // the sign of the difference is noise.
    let a = [9.0, 10.0, 10.1, 11.0, 12.0];
    let b = [8.0, 9.0, 10.0, 11.0, 13.0];
    let d = derived_diff(&a, &b);
    assert!(close(d.value, 0.1));
    assert!(!d.resolved, "{d:?}");
    // The guard is symmetric: a negative difference is no different.
    assert!(!derived_diff(&b, &a).resolved);
}

#[test]
fn a_single_sample_never_resolves() {
    let d = derived_diff(&[100.0], &[1.0, 1.0, 1.0]);
    assert!(close(d.value, 99.0));
    assert!(!d.resolved);
}
