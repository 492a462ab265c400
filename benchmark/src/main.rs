//! The BG3 benchmark. See `benchmark/README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload, checks its answers, and prints one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod layers;
mod metrics;
mod replay;
mod runner;
mod stats;
mod tempdir;
mod trace;
mod workload;

use runner::Inputs;
use std::time::{Duration, Instant};
use workload::Workload;

/// Identical rounds per measured run; timings are medians over them.
const ROUNDS: usize = 3;
/// A run must end well inside the driver's 180 s limit: past this the
/// measured phase stops early and says so.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
    print_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        selfcheck: false,
        print_spec: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?}; one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds: a whole number from 1 to 60")?
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--print-benchmark-json" => args.print_spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Ops in one round: the frozen per-second count times `--seconds`, split
/// over the rounds. The traced run's rounds are the same size.
fn ops_per_round(workload: Workload, seconds: u64) -> usize {
    workload.ops_per_budget_second() * seconds as usize / ROUNDS
}

/// One measured run: `ROUNDS` identical rounds, untraced.
fn measured_run(workload: Workload, seed: u64, seconds: u64) -> Result<metrics::Report, String> {
    let started = Instant::now();
    let inputs = Inputs::generate(workload, seed, ops_per_round(workload, seconds))?;
    let mut rounds = Vec::with_capacity(ROUNDS);
    for i in 0..ROUNDS {
        let round = runner::run_round(&inputs, &format!("r{i}"), None, started + RUN_DEADLINE)?;
        eprintln!(
            "{} round {i}: setup {:.3}s, {} ops in {:.3}s busy ({:.0} ops/s), recover {:.3}s, failed {}",
            workload.name(),
            round.setup_s,
            round.ops_done,
            round.busy_ns as f64 / 1e9,
            round.ops_per_s(),
            round.recover_s(),
            round.failed
        );
        rounds.push(round);
    }
    Ok(metrics::end_to_end(&inputs, rounds, seconds))
}

/// The traced run: one untraced round and one traced round of the same
/// ops (their ratio is the tracing overhead), then the layer replay. Never
/// used for end-to-end numbers.
fn traced_run(workload: Workload, seed: u64, seconds: u64) -> Result<metrics::Report, String> {
    let deadline = Instant::now() + RUN_DEADLINE;
    let inputs = Inputs::generate(workload, seed, ops_per_round(workload, seconds))?;
    let plain = runner::run_round(&inputs, "plain", None, deadline)?;
    let mut tracing = runner::Tracing::new();
    let traced = runner::run_round(&inputs, "traced", Some(&mut tracing), deadline)?;
    let replay = replay::run(&inputs, &traced.at_end, &tracing.log);
    let trace = tracing.tracer.report();
    let report = layers::per_layer(&inputs, &plain, &traced, &tracing, &trace, &replay);
    let out = tempdir::out_dir();
    let path = out.join(format!("{}.trace.json", workload.name()));
    std::fs::create_dir_all(&out)
        .and_then(|_| std::fs::write(&path, trace.to_json(workload.name(), seed)))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("{} trace written to {}", workload.name(), path.display());
    Ok(report)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.print_spec {
        println!("{}", metrics::benchmark_json());
        return Ok(true);
    }
    if args.selfcheck {
        return metrics::selfcheck(args.seed, args.seconds);
    }
    let workload = args.workload.ok_or("--workload is required")?;
    let report = if args.trace {
        traced_run(workload, args.seed, args.seconds)?
    } else {
        measured_run(workload, args.seed, args.seconds)?
    };
    for warning in &report.warnings {
        eprintln!("warning: {warning}");
    }
    println!("{}", report.to_json_line());
    Ok(report.failed == 0)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}
