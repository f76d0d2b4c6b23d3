//! Every workload, traced and untraced, for a few seconds at the tiny
//! TPC-C scale: the emitted workload and metric names are exactly those
//! of `BENCHMARK.json`, every metric carries its unit and sample count,
//! and the correctness gate ran and passed.
//!
//! The runs are sequential inside one test: every run pins itself to the
//! same CPU, and two at once would starve each other into lock timeouts.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
use json::Json;

const SECONDS: &str = "3";

fn names(list: &Json) -> BTreeSet<String> {
    list.as_arr()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_workload_emits_the_benchmark_contract() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let workloads = names(bench.get("workloads").expect("workloads"));
    assert_eq!(workloads.len(), 4);

    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let expected = names(bench.get(key).expect(key));
            let out = Command::new(env!("CARGO_BIN_EXE_bfbench"))
                .args(["--workload", workload, "--seed", "5", "--seconds", SECONDS])
                .args(["--trace", trace, "--scale", "tiny"])
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .expect("bfbench runs");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let mut lines = stdout.lines().rev();
            let what = format!("{workload} --trace {trace}");
            let result = lines.next().unwrap_or_else(|| {
                panic!(
                    "{what}: no result line; stderr: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            });
            let result = Json::parse(result).expect("result is JSON");
            let record = Json::parse(lines.next().expect("record line")).expect("record is JSON");

            let keys: BTreeSet<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                BTreeSet::from(["attempted", "correct", "failed", "metrics"]),
                "{what}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0,
                "{what}"
            );

            let emitted: BTreeSet<String> = result
                .get("metrics")
                .expect("metrics")
                .as_obj()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(
                emitted, expected,
                "{what}: metric names differ from BENCHMARK.json"
            );

            let listed = bench.get(key).expect(key).as_arr();
            for (name, metric) in record.get("metrics").expect("record metrics").as_obj() {
                let spec = listed
                    .iter()
                    .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                    .expect("listed metric");
                assert_eq!(
                    metric.get("unit"),
                    spec.get("unit"),
                    "{what}: unit of {name}"
                );
                assert_eq!(
                    metric.get("better"),
                    spec.get("better"),
                    "{what}: direction of {name}"
                );
                assert!(
                    metric.get("n").and_then(Json::as_f64).is_some(),
                    "{what}: {name} has no sample count"
                );
                assert!(
                    metric.get("value").and_then(Json::as_f64).is_some(),
                    "{what}: {name} has no value"
                );
            }

            let gate = record.get("gate").expect("gate").as_arr();
            assert!(gate.len() >= 3, "{what}: the correctness gate did not run");
            for check in gate {
                assert_eq!(check.get("ok"), Some(&Json::Bool(true)), "{what}: {check}");
            }
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
            assert!(out.status.success(), "{what}: exit {:?}", out.status);
            assert_eq!(
                record.get("workload").and_then(Json::as_str),
                Some(workload.as_str())
            );
        }
    }
}
