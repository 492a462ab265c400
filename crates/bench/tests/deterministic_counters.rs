//! Experiments are deterministic: running one twice in the same process
//! yields the same report rows and the same value for every counter in its
//! metrics snapshot. Hash-ordered iteration anywhere on the flush or
//! recovery path (each `HashMap`/`HashSet` gets fresh random keys) breaks
//! this, because extent layout then varies, and GC, scrub and cache
//! counters, and which page a seeded fault hits, vary with it.

use bg3_bench::experiments::{chaos, disk_chaos, scrub};
use bg3_obs::CounterSample;
use serde::Serialize;

fn assert_same_run<R: Serialize>(
    what: &str,
    (rows_a, counters_a): (R, Vec<CounterSample>),
    (rows_b, counters_b): (R, Vec<CounterSample>),
) {
    let differ: Vec<String> = counters_a
        .iter()
        .zip(&counters_b)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("{}: {} vs {}", a.name, a.value, b.value))
        .collect();
    assert_eq!(counters_a.len(), counters_b.len(), "{what}: counter sets");
    assert!(differ.is_empty(), "{what}: counters differ: {differ:#?}");
    assert_eq!(
        serde_json::to_value(&rows_a).unwrap(),
        serde_json::to_value(&rows_b).unwrap(),
        "{what}: report rows differ"
    );
}

#[test]
fn scrub_experiment_repeats_exactly() {
    let run = || {
        let report = scrub::run(3);
        (report.rows, report.metrics.counters)
    };
    assert_same_run("scrub", run(), run());
}

#[test]
fn chaos_experiment_repeats_exactly() {
    let run = || {
        let report = chaos::run(1_500);
        (report.rows, report.metrics.counters)
    };
    assert_same_run("chaos", run(), run());
}

#[test]
fn disk_chaos_experiment_repeats_exactly() {
    let run = || {
        let report = disk_chaos::run(3);
        (report.rounds, report.metrics.counters)
    };
    assert_same_run("disk_chaos", run(), run());
}
