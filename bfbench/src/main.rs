//! `bfbench`: the repository's benchmark. One process hosts the server,
//! loads the data, drives it over BFNET1 from two client threads, checks
//! the outcome and prints the metrics `BENCHMARK.json` names.
//!
//! ```text
//! bfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bfbench diff <a.json> <b.json> [BENCHMARK.json]
//! ```
//!
//! A run prints its full record as one JSON line, then, as the last line
//! of standard output, `{"correct", "attempted", "failed", "metrics"}`.

mod affinity;
mod conn;
mod diff;
mod gate;
mod host;
mod json;
mod pinned;
mod probes;
mod record;
mod report;
mod run;
mod tpcc_wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bullfrog_tpcc::TpccScale;

use json::Json;
use run::{Options, RunData, Workload};

const USAGE: &str = "usage: bfbench --workload <tpcc_steady|tpcc_split_flip|tpcc_join_flip|transfer_durable> \
--seed <n> --seconds <s> --trace <0|1> [--scale tiny]\n       bfbench diff <a.json> <b.json> [BENCHMARK.json]";

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = pinned::scale();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && (0.5..=600.0).contains(&s)) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            // For the smoke test: the pinned scale takes seconds to load.
            "--scale" if value == "tiny" => scale = TpccScale::tiny(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// The statement spans of the first transactions each client traced,
/// with the run's record: enough to read one transaction's statements in
/// order without writing a million spans to disk.
const TRACED_TXNS_WRITTEN: usize = 1_000;

fn write_trace(path: &Path, opts: &Options, record: &Json, data: &RunData) -> std::io::Result<()> {
    let mut spans = Vec::new();
    for (client, log) in data.logs.iter().enumerate() {
        let mut written = std::collections::BTreeSet::new();
        for s in &log.spans {
            if written.len() == TRACED_TXNS_WRITTEN && !written.contains(&s.txn) {
                break;
            }
            written.insert(s.txn);
            let name = if opts.workload.is_tpcc() {
                format!("{:?}", tpcc_wire::Stmt::ALL[s.stmt as usize])
            } else {
                "TransferBurst".to_string()
            };
            spans.push(Json::obj([
                // The parent span: client and transaction sequence.
                ("txn", Json::Str(format!("{client}.{}", s.txn))),
                ("name", Json::Str(name)),
                ("start_us", Json::Num(s.start_us as f64)),
                ("end_us", Json::Num(s.end_us as f64)),
            ]));
        }
    }
    let txns: Vec<Json> = data
        .logs
        .iter()
        .enumerate()
        .flat_map(|(client, log)| {
            log.samples
                .iter()
                .enumerate()
                .filter(|(_, s)| s.traced)
                .take(TRACED_TXNS_WRITTEN)
                .map(move |(i, s)| {
                    Json::obj([
                        ("id", Json::Str(format!("{client}.{i}"))),
                        ("kind", Json::Num(f64::from(s.kind))),
                        ("start_us", Json::Num(s.start_us as f64)),
                        ("end_us", Json::Num(s.end_us as f64)),
                        ("retries", Json::Num(f64::from(s.retries))),
                    ])
                })
        })
        .collect();
    let doc = Json::obj([
        ("record", record.clone()),
        ("txns", Json::Arr(txns)),
        ("spans", Json::Arr(spans)),
    ]);
    std::fs::write(path, doc.to_string())
}

fn run_workload(opts: &Options) -> Result<bool, String> {
    // Before the first thread is spawned: they all inherit the pin.
    let cpu = affinity::pin_to_one_cpu()?;
    let root = PathBuf::from("target/bfbench");
    let scratch = root.join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let (data, env) = run::run(opts, &scratch)?;
    let w = opts.workload;
    let mut checks = if w.is_tpcc() {
        gate::tpcc(&env.db, w.scenario(), &data)
    } else {
        Vec::new()
    };
    let mut probed = Vec::new();
    if opts.trace {
        probed = if w.is_tpcc() {
            probes::tpcc(&env.bf, &opts.scale, opts.seed)
        } else {
            probes::transfer(&env.bf, opts.seed)
        };
    }
    let wal_path = env.wal_path.clone();
    drop(env.stop());
    if let Some(scenario) = w.scenario().filter(|_| opts.trace) {
        probed.extend(probes::core(scenario, &opts.scale, opts.seed)?);
    }
    if let Some(path) = &wal_path {
        checks.extend(gate::transfer_recovery(path, &data.ledger));
    }
    let win = report::Windows::of(w, &data, opts.seconds);
    checks.push((
        "flip_finished_in_window",
        if win.flip_resolved {
            Ok(())
        } else {
            Err("the migration did not finish inside the measured window".into())
        },
    ));

    let metrics = if opts.trace {
        report::per_layer(w, &data, &win, opts.seconds, &probed)
    } else {
        report::end_to_end(&data, &win)
    };
    let attempted = win.all.len();
    let failed = win.all.iter().filter(|s| !s.ok).count();
    let correct = attempted > 0 && checks.iter().all(|(_, r)| r.is_ok());

    let record = Json::obj([
        ("bfbench", Json::Num(1.0)),
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("host", host::facts(&scratch)),
        ("pinned_to_cpu", Json::Num(cpu as f64)),
        ("pinned", pinned::echo(opts.seconds)),
        (
            "marks_us",
            Json::obj([
                ("measured_from", Json::Num(data.warm_us as f64)),
                ("measured_to", Json::Num(data.end_us as f64)),
                (
                    "flip_submitted",
                    data.submit_us.map_or(Json::Null, |v| Json::Num(v as f64)),
                ),
                (
                    "flip_complete",
                    data.complete_us.map_or(Json::Null, |v| Json::Num(v as f64)),
                ),
            ]),
        ),
        (
            "gate",
            Json::Arr(
                checks
                    .iter()
                    .map(|(name, r)| {
                        Json::obj([
                            ("check", Json::Str((*name).into())),
                            ("ok", Json::Bool(r.is_ok())),
                            ("detail", Json::Str(r.clone().err().unwrap_or_default())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failures",
            Json::Arr(data.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", report::metrics_json(&metrics, true)),
    ]);
    println!("{record}");
    if opts.trace {
        let path = root.join(format!("trace_{}.json", w.name()));
        write_trace(&path, opts, &record, &data).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if correct {
        // Kept after a failure: the WAL files are the evidence.
        let _ = std::fs::remove_dir_all(&scratch);
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", report::metrics_json(&metrics, false)),
        ])
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("diff") if (3..=4).contains(&args.len()) => {
            let benchmark = args.get(3).map_or("BENCHMARK.json", String::as_str);
            diff::run(&args[1], &args[2], benchmark).map(|any_worse| !any_worse)
        }
        Some("diff") | None => Err(USAGE.to_string()),
        Some(_) => parse_run(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|opts| run_workload(&opts)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bfbench: {e}");
            ExitCode::from(2)
        }
    }
}
