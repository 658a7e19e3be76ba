//! The `compare` rule.

use fracdram_benchmark::compare::{compare, rules, verdict, win_share, Rule, Verdict};

fn rule(higher_is_better: bool, bound: f64) -> Rule {
    Rule {
        name: "throughput".to_string(),
        higher_is_better,
        bound,
    }
}

fn noisy(center: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| center * (1.0 + 0.002 * (i % 3) as f64))
        .collect()
}

#[test]
fn a_clear_gain_over_ten_pairs_is_improved() {
    let parent = noisy(100.0, 10);
    let change = noisy(110.0, 10);
    assert_eq!(win_share(&parent, &change, true), 1.0);
    assert_eq!(
        verdict(&parent, &change, &rule(true, 0.1)),
        Verdict::Improved
    );
    // The same gain in a lower-is-better metric is a regression.
    assert_eq!(
        verdict(&parent, &change, &rule(false, 0.05)),
        Verdict::Worse
    );
}

#[test]
fn a_gain_needs_ten_pairs_and_nine_tenths_of_them() {
    let rule = rule(true, 0.1);
    assert_eq!(
        verdict(&noisy(100.0, 9), &noisy(110.0, 9), &rule),
        Verdict::Unchanged
    );
    let parent = noisy(100.0, 10);
    let mut change = noisy(110.0, 10);
    change[0] = 90.0;
    change[1] = 90.0;
    assert_eq!(win_share(&parent, &change, true), 0.8);
    assert_ne!(verdict(&parent, &change, &rule), Verdict::Improved);
}

#[test]
fn a_gain_must_exceed_the_parents_spread() {
    // Parent quartiles 80..120: a 5-point median shift is inside them.
    let parent: Vec<f64> = (0..10)
        .map(|i| if i % 2 == 0 { 80.0 } else { 120.0 })
        .collect();
    let change: Vec<f64> = parent.iter().map(|x| x + 5.0).collect();
    assert_eq!(win_share(&parent, &change, true), 1.0);
    assert_eq!(
        verdict(&parent, &change, &rule(true, 0.5)),
        Verdict::Unchanged
    );
    // The same spread against a tight bound is unresolved.
    assert_eq!(
        verdict(&parent, &change, &rule(true, 0.1)),
        Verdict::Unresolved
    );
}

#[test]
fn worse_beyond_the_bound_and_unchanged_within_it() {
    let parent = noisy(100.0, 6);
    assert_eq!(
        verdict(&parent, &noisy(85.0, 6), &rule(true, 0.1)),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&parent, &noisy(95.0, 6), &rule(true, 0.1)),
        Verdict::Unchanged
    );
    assert_eq!(verdict(&parent, &[], &rule(true, 0.1)), Verdict::Unresolved);
}

#[test]
fn compare_reads_result_lines_and_benchmark_bounds() {
    let rules =
        rules(r#"{"end_to_end":[{"name":"latency_ms","unit":"ms","better":"lower","bound":0.1}]}"#)
            .unwrap();
    assert_eq!(
        rules,
        vec![Rule {
            name: "latency_ms".to_string(),
            higher_is_better: false,
            bound: 0.1,
        }]
    );
    let line = |w: &str, v: f64| {
        format!(r#"{{"workload":"{w}","metrics":{{"latency_ms":{{"value":{v},"unit":"ms"}}}}}}"#)
    };
    let parent: String = (0..5)
        .map(|i| line("a", 10.0 + 0.01 * f64::from(i)) + "\n")
        .collect();
    let change: String = (0..5)
        .map(|i| line("a", 12.0 + 0.01 * f64::from(i)) + "\n")
        .collect();
    let rows = compare(&rules, &parent, &change);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].workload, "a");
    assert_eq!(rows[0].pairs, 5);
    assert_eq!(rows[0].verdict, Verdict::Worse);
    assert_eq!(
        compare(&rules, &parent, &parent)[0].verdict,
        Verdict::Unchanged
    );
}
