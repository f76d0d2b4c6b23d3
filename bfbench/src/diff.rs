//! `bfbench diff <a.json> <b.json>`: compares two ledger files (arrays
//! of run records, as `bench.sh ledger` writes them) per workload and
//! end-to-end metric, against the bounds of `BENCHMARK.json`.

use crate::json::Json;
use crate::report::median;

/// One side's values of one metric on one workload, over its untraced
/// runs.
fn values(ledger: &Json, workload: &str, metric: &str) -> Vec<f64> {
    ledger
        .as_arr()
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// `(max − min) / median`, the spread the bounds were set from.
fn spread(v: &[f64]) -> f64 {
    let (lo, hi) = v
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
            (lo.min(*x), hi.max(*x))
        });
    (hi - lo) / median(v).abs().max(f64::MIN_POSITIVE)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the table; `Ok(true)` when some metric got worse.
pub fn run(a_path: &str, b_path: &str, benchmark_path: &str) -> Result<bool, String> {
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(benchmark_path)?);
    let mut any_worse = false;
    println!(
        "{:<18} {:<20} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    for workload in bench.get("workloads").map_or(&[][..], Json::as_arr) {
        let Some(workload) = workload.get("name").and_then(Json::as_str) else {
            continue;
        };
        for metric in bench.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let field = |k| metric.get(k).and_then(Json::as_str).unwrap_or("");
            let (name, better) = (field("name"), field("better"));
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (values(&a, workload, name), values(&b, workload, name));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{workload:<18} {name:<20} {:>12} {:>12} {:>8} {bound:>6.2}  missing",
                    "-", "-", "-"
                );
                any_worse = true;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let delta = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
            // Positive `worse_by` is a regression whichever way is better.
            let worse_by = if better == "higher" { -delta } else { delta };
            let verdict = if spread(&va) > bound || spread(&vb) > bound {
                "unresolved"
            } else if worse_by > bound {
                any_worse = true;
                "worse"
            } else if worse_by < -bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{workload:<18} {name:<20} {ma:>12.4} {mb:>12.4} {:>+7.1}% {bound:>6.2}  {verdict}",
                delta * 100.0
            );
        }
    }
    Ok(any_worse)
}
