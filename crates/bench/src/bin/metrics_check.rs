//! `metrics_check <path>` — the `--metrics-json` drift gate.
//!
//! Parses a file written by `reproduce --metrics-json`, re-hydrates every
//! per-experiment [`MetricsSnapshot`], and verifies the stable-name
//! contract: every entry, the merged `total` included, must carry every
//! counter in [`bg3_obs::names::REQUIRED_COUNTERS`] and every histogram in
//! [`bg3_obs::names::REQUIRED_HISTOGRAMS`]. Checking each entry means one
//! `reproduce` pass over several experiments loses no per-experiment
//! coverage. Exits nonzero (with one line per violation) on any failure,
//! so `scripts/check.sh` can gate on it.

use bg3_obs::names;
use bg3_obs::MetricsSnapshot;
use serde_json::Value;
use std::process::ExitCode;

/// Checks a `--metrics-json` document and returns its snapshot count, or
/// one line per violation.
fn check_document(text: &str) -> Result<usize, Vec<String>> {
    let doc = bg3_obs::json::parse(text).map_err(|e| vec![e.to_string()])?;
    let Value::Object(entries) = &doc else {
        return Err(vec!["top level is not an object".to_string()]);
    };

    let mut errors = Vec::new();
    let mut snapshots = 0usize;
    let mut has_total = false;
    for (entry, value) in entries.iter() {
        let Some(snap) = MetricsSnapshot::from_value(value) else {
            errors.push(format!("entry {entry:?} is not a metrics snapshot"));
            continue;
        };
        snapshots += 1;
        has_total |= entry == "total";
        for name in names::REQUIRED_COUNTERS {
            if snap.counter(name).is_none() {
                errors.push(format!("{entry}: missing required counter {name}"));
            }
        }
        for name in names::REQUIRED_HISTOGRAMS {
            if snap.histogram(name).is_none() {
                errors.push(format!("{entry}: missing required histogram {name}"));
            }
        }
    }
    if snapshots == 0 {
        errors.push("no metrics snapshots in the document".to_string());
    }
    if !has_total {
        errors.push("missing the merged `total` entry".to_string());
    }
    if errors.is_empty() {
        Ok(snapshots)
    } else {
        Err(errors)
    }
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: metrics_check <metrics.json>");
        return ExitCode::FAILURE;
    };
    let checked = std::fs::read_to_string(&path)
        .map_err(|e| vec![format!("reading {path}: {e}")])
        .and_then(|text| check_document(&text));
    match checked {
        Ok(snapshots) => {
            println!(
                "{path}: {snapshots} snapshot(s), each with all {} required counters and {} histograms",
                names::REQUIRED_COUNTERS.len(),
                names::REQUIRED_HISTOGRAMS.len(),
            );
            ExitCode::SUCCESS
        }
        Err(errors) => {
            eprintln!("{path}:\n{}", errors.join("\n"));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_storage::IoStats;

    fn document(entries: &[(&str, &MetricsSnapshot)]) -> String {
        let doc: Value = Value::Object(
            entries
                .iter()
                .map(|(name, snap)| (name.to_string(), serde_json::to_value(snap).unwrap()))
                .collect(),
        );
        serde_json::to_string(&doc).unwrap()
    }

    #[test]
    fn per_experiment_entry_missing_a_required_counter_fails() {
        let full = IoStats::new().metrics();
        assert_eq!(
            check_document(&document(&[("fig9", &full), ("total", &full)])),
            Ok(2)
        );
        // The merged total still carries the name; only the per-experiment
        // entry lacks it.
        let dropped = names::REQUIRED_COUNTERS[0];
        let mut partial = full.clone();
        partial.counters.retain(|c| c.name != dropped);
        assert_eq!(
            check_document(&document(&[("fig9", &partial), ("total", &full)])),
            Err(vec![format!("fig9: missing required counter {dropped}")])
        );
    }
}
