//! Regenerates the paper's tables and figures.
//!
//! ```text
//! reproduce [all|table1|fig8|cost|fig9|fig10|fig11|table2|fig12|fig13|fig14
//!            |ablation|chaos|failover|scrub|cache_scaling|disk_chaos
//!            |khop|overload|profile]
//!           [--scale full|quick] [--json <path>] [--metrics-json <path>]
//!           [--threads N] [--cycles N] [--slow-log N]
//! ```
//!
//! Prints each experiment's rows in the shape of the paper's artifact and,
//! with `--json`, writes all raw results to a JSON file. Every experiment
//! additionally gets the shared [`bg3_obs::export::experiment_summary`]
//! lines: a `cache:` line when the report embeds cache-adjusted I/O
//! counters, a `fencing:` line when it embeds epoch-fence counters, and
//! `latency <op>: p50 … p95 … p99 … max …` lines from the virtual-time
//! histograms. `--metrics-json <path>` writes the merged
//! [`MetricsSnapshot`](bg3_storage::MetricsSnapshot) per experiment (plus a
//! `total` entry across all of them) for the `scripts/check.sh` drift gate.
//! `--threads N` appends real-OS-thread `cache_scaling` and `khop` runs at
//! that thread count (wall-clock throughput over one shared engine). `--cycles
//! N` overrides the failover and scrub experiments' crash/failover cycle
//! counts. `--slow-log N` overrides the `profile` experiment's slow-query-log
//! capacity (the K worst profiles kept by modelled cost). An unknown
//! experiment id or `--scale` value prints usage and exits with status 2
//! before anything runs.

use bg3_bench::experiments::*;
use bg3_obs::export;
use serde_json::{json, Value};
use std::time::Instant;

struct Scale {
    fig8_ops: usize,
    fig9_ops: usize,
    fig10_ops: usize,
    fig11_ops: usize,
    table2_ops: usize,
    cost_ops: usize,
    fig12_writes: usize,
    fig13_sim_millis: u64,
    fig14_reads: usize,
    chaos_ops: u64,
    cache_ops: usize,
    khop_queries: usize,
    failover_cycles: usize,
    scrub_cycles: usize,
    disk_chaos_rounds: usize,
    overload_ops: usize,
    profile_queries: usize,
    slow_log_k: usize,
}

const FULL: Scale = Scale {
    fig8_ops: 20_000,
    fig9_ops: 20_000,
    fig10_ops: 20_000,
    fig11_ops: 40_000,
    table2_ops: 40_000,
    cost_ops: 30_000,
    fig12_writes: 20_000,
    fig13_sim_millis: 1_500,
    fig14_reads: 30_000,
    chaos_ops: 6_000,
    cache_ops: 12_000,
    khop_queries: 1_200,
    failover_cycles: 5,
    scrub_cycles: 4,
    disk_chaos_rounds: 24,
    overload_ops: 4_000,
    profile_queries: 600,
    slow_log_k: 8,
};

const QUICK: Scale = Scale {
    fig8_ops: 3_000,
    fig9_ops: 4_000,
    fig10_ops: 4_000,
    fig11_ops: 8_000,
    table2_ops: 10_000,
    cost_ops: 8_000,
    fig12_writes: 4_000,
    fig13_sim_millis: 600,
    fig14_reads: 6_000,
    chaos_ops: 1_500,
    cache_ops: 2_000,
    khop_queries: 240,
    failover_cycles: 3,
    scrub_cycles: 2,
    disk_chaos_rounds: 6,
    overload_ops: 1_000,
    profile_queries: 150,
    slow_log_k: 5,
};

/// Every experiment id, in the order `all` runs them.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig8",
    "cost",
    "fig9",
    "fig10",
    "fig11",
    "table2",
    "fig12",
    "fig13",
    "fig14",
    "ablation",
    "chaos",
    "failover",
    "scrub",
    "cache_scaling",
    "disk_chaos",
    "khop",
    "overload",
    "profile",
];

const USAGE: &str = "usage: reproduce [all|<id>...] [--scale full|quick] [--json <path>] \
                     [--metrics-json <path>] [--threads N] [--cycles N] [--slow-log N]";

/// Rejects bad input before any experiment runs: prints `msg`, the usage
/// line and the known ids to stderr, and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}\nids: {}", EXPERIMENTS.join(" "));
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut metrics_json_path: Option<String> = None;
    let mut scale = &FULL;
    let mut threads: Option<usize> = None;
    let mut cycles: Option<usize> = None;
    let mut slow_log: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_path = it.next().cloned(),
            "--metrics-json" => metrics_json_path = it.next().cloned(),
            "--scale" => {
                scale = match it.next().map(|s| s.as_str()) {
                    Some("quick") => &QUICK,
                    Some("full") => &FULL,
                    other => usage_error(&format!("--scale takes full or quick, got {other:?}")),
                }
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .or_else(|| panic!("--threads takes a positive integer"));
            }
            "--cycles" => {
                cycles = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .or_else(|| panic!("--cycles takes a positive integer"));
            }
            "--slow-log" => {
                slow_log = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .or_else(|| panic!("--slow-log takes a positive integer"));
            }
            other => which.push(other.to_string()),
        }
    }
    if let Some(unknown) = which
        .iter()
        .find(|w| *w != "all" && !EXPERIMENTS.contains(&w.as_str()))
    {
        usage_error(&format!("unknown experiment: {unknown}"));
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    let mut results: Vec<(String, Value)> = Vec::new();
    for name in &which {
        let started = Instant::now();
        let (rendered, value) = run_one(name, scale, cycles, slow_log);
        println!("{rendered}");
        for line in export::experiment_summary(&value) {
            println!("[{name} {line}]");
        }
        println!("[{name} took {:.1}s]\n", started.elapsed().as_secs_f64());
        results.push((name.clone(), value));
    }

    if let Some(threads) = threads {
        let started = Instant::now();
        let report = cache_scaling::run_threads(threads, scale.cache_ops);
        print!("{}", cache_scaling::render_threads(&report));
        results.push((
            "cache_scaling_threads".to_string(),
            serde_json::to_value(&report).unwrap(),
        ));
        let khop_report = khop::run_threads(threads, scale.khop_queries);
        print!("{}", khop::render_threads(&khop_report));
        println!(
            "[threaded runs took {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
        results.push((
            "khop_threads".to_string(),
            serde_json::to_value(&khop_report).unwrap(),
        ));
    }

    if let Some(path) = metrics_json_path {
        // One merged registry snapshot per experiment, plus a `total`
        // across all of them — the shape the check.sh drift gate consumes.
        let mut total = bg3_storage::MetricsSnapshot::default();
        let mut entries: Vec<(String, Value)> = Vec::new();
        for (name, value) in &results {
            if let Some(snap) = export::collect_metrics(value) {
                total.merge(&snap);
                entries.push((name.clone(), serde_json::to_value(&snap).unwrap()));
            }
        }
        entries.push(("total".to_string(), serde_json::to_value(&total).unwrap()));
        let doc: Value = Value::Object(entries.into_iter().collect());
        std::fs::write(&path, serde_json::to_string_pretty(&doc).unwrap())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("metrics written to {path}");
    }

    if let Some(path) = json_path {
        let doc: Value = Value::Object(results.into_iter().collect());
        std::fs::write(&path, serde_json::to_string_pretty(&doc).unwrap())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("raw results written to {path}");
    }
}

fn run_one(
    name: &str,
    scale: &Scale,
    cycles: Option<usize>,
    slow_log: Option<usize>,
) -> (String, Value) {
    match name {
        "table1" => (table1::render(), json!(null)),
        "fig8" => {
            let report = fig8::run(scale.fig8_ops);
            let mut rendered = fig8::render(&report);
            for (workload, factor) in fig8::speedups(&report) {
                rendered.push_str(&format!("BG3 over ByteGraph on {workload}: {factor:.2}x\n"));
            }
            (rendered, serde_json::to_value(&report).unwrap())
        }
        "cost" => {
            let report = cost::run(scale.cost_ops);
            (
                cost::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "fig9" => {
            let report = fig9::run(scale.fig9_ops);
            (
                fig9::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "fig10" => {
            let report = fig10::run(scale.fig10_ops);
            (
                fig10::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "fig11" => {
            let report = fig11::run(scale.fig11_ops, 50_000);
            (
                fig11::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "table2" => {
            let report = table2::run(scale.table2_ops);
            (
                table2::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "fig12" => {
            let report = fig12::run(scale.fig12_writes);
            (
                fig12::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "fig13" => {
            let report = fig13::run(scale.fig13_sim_millis);
            (
                fig13::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "ablation" => {
            let report = ablation::run(scale.table2_ops / 2);
            (
                ablation::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "fig14" => {
            let report = fig14::run(scale.fig14_reads);
            (
                fig14::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "chaos" => {
            let report = chaos::run(scale.chaos_ops);
            (
                chaos::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "failover" => {
            let report = failover::run(cycles.unwrap_or(scale.failover_cycles));
            (
                failover::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "scrub" => {
            let report = scrub::run(cycles.unwrap_or(scale.scrub_cycles));
            (
                scrub::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "disk_chaos" => {
            let report = disk_chaos::run(scale.disk_chaos_rounds);
            (
                disk_chaos::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "cache_scaling" => {
            let report = cache_scaling::run(scale.cache_ops);
            (
                cache_scaling::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "khop" => {
            let report = khop::run(scale.khop_queries);
            (
                khop::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "overload" => {
            let report = overload::run(scale.overload_ops);
            (
                overload::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        "profile" => {
            let report = profile::run(scale.profile_queries, slow_log.unwrap_or(scale.slow_log_k));
            (
                profile::render(&report),
                serde_json::to_value(&report).unwrap(),
            )
        }
        other => usage_error(&format!("unknown experiment: {other}")),
    }
}
