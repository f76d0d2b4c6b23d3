#!/usr/bin/env bash
# The benchmark's one entry point. Run it from the repository root.
#
#   bash bfbench/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of standard output is the result.
#   bash bfbench/bench.sh ledger <seed> <runs> <out.json>
#       every workload <runs> times untraced and once traced, at the
#       run_seconds of BENCHMARK.json; the runs' records as one JSON array.
#   bash bfbench/bench.sh diff <a.json> <b.json>
#       two ledgers compared against the bounds of BENCHMARK.json;
#       exits non-zero when a metric got worse.
set -euo pipefail

bfbench() {
    cargo run --release --quiet --manifest-path bfbench/Cargo.toml -- "$@"
}

case "${1:-}" in
ledger)
    [ $# -eq 4 ] || { echo "usage: bench.sh ledger <seed> <runs> <out.json>" >&2; exit 2; }
    seed=$2 runs=$3 out=$4
    seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
    sep='['
    : >"$out.part"
    for workload in tpcc_steady tpcc_split_flip tpcc_join_flip transfer_durable; do
        for run in $(seq 1 "$runs") traced; do
            trace=0
            [ "$run" = traced ] && trace=1
            echo "ledger: $workload seed $seed run $run" >&2
            # The record is the line before the result line.
            record=$(bfbench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 2 | head -n 1)
            printf '%s\n%s' "$sep" "$record" >>"$out.part"
            sep=','
        done
    done
    printf '\n]\n' >>"$out.part"
    mv "$out.part" "$out"
    ;;
*)
    bfbench "$@"
    ;;
esac
