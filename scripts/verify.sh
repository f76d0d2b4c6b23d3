#!/usr/bin/env bash
# Tier-1 verification plus style/lint gates. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== WAL and lock-manager tests under high thread pressure =="
RUST_TEST_THREADS=16 cargo test -q -p bullfrog-txn wal
RUST_TEST_THREADS=16 cargo test -q -p bullfrog-engine --test durability
RUST_TEST_THREADS=16 cargo test -q -p bullfrog-txn lock

echo "== server integration tests =="
cargo test -q -p bullfrog-net --test server_integration --test migration_race

echo "== pipelining + prepared statements + chunked results (both engine modes) =="
cargo test -q -p bullfrog-net --test pipeline_prepared
BULLFROG_ENGINE_MODE=si cargo test -q -p bullfrog-net --test pipeline_prepared

echo "== replication tests =="
cargo test -q -p bullfrog-repl

echo "== HA tests (fencing, quorum leases, sync replication) =="
cargo test -q -p bullfrog-ha
BULLFROG_ENGINE_MODE=si cargo test -q -p bullfrog-ha

echo "== engine + migration suites under snapshot isolation =="
BULLFROG_ENGINE_MODE=si cargo test -q -p bullfrog-engine
BULLFROG_ENGINE_MODE=si cargo test -q -p bullfrog-core
BULLFROG_ENGINE_MODE=si cargo test -q -p bullfrog-repl
BULLFROG_ENGINE_MODE=si cargo test -q -p bullfrog-net --test si_conflicts

echo "== cluster suites (both engine modes) =="
cargo test -q -p bullfrog-cluster
BULLFROG_ENGINE_MODE=si cargo test -q -p bullfrog-cluster

echo "== loadgen smoke (snapshot isolation, bounded) =="
timeout 10 cargo run --release -q -p bullfrog-ha --bin loadgen -- \
  --engine-mode si --clients 32 --accounts 128 --ops 5 --seed 42

echo "== loadgen smoke (loopback, fixed seed, bounded) =="
timeout 10 cargo run --release -q -p bullfrog-ha --bin loadgen -- \
  --clients 32 --accounts 128 --ops 5 --seed 42

echo "== loadgen high-connection smoke (readiness poller, zero dropped sessions) =="
# ~2k mostly-idle connections (4k fds across the serve-only child and the
# client process) fits comfortably under common fd limits; raise ours if
# the shell allows, and proceed on whatever we have.
ulimit -n 16384 2>/dev/null || true
timeout 60 cargo run --release -q -p bullfrog-ha --bin loadgen -- \
  --connections 2000 --clients 16 --ops 8 --seed 42 --prepared --pipeline \
  | tee /tmp/bf-net-smoke.log
# The parked herd must not drag tail latency into pathology: p99 over
# prepared+pipelined loopback point reads stays well under 50ms even on
# a loaded single-core CI box.
P99_US=$(sed -n 's/.* p99 \([0-9]*\)us .*/\1/p' /tmp/bf-net-smoke.log)
test -n "$P99_US" && test "$P99_US" -lt 50000

echo "== loadgen smoke (file-backed WAL, async commit) =="
timeout 10 cargo run --release -q -p bullfrog-ha --bin loadgen -- \
  --clients 32 --accounts 128 --ops 5 --seed 42 \
  --commit-mode nowait --wal-dir "$(mktemp -d)"

echo "== loadgen smoke (live replica, equivalence verified) =="
timeout 30 cargo run --release -q -p bullfrog-ha --bin loadgen -- \
  --clients 16 --accounts 128 --ops 5 --seed 42 --replica

echo "== repld two-process loopback smoke (zero lag after drain) =="
REPLD=target/release/repld
LOADGEN=target/release/loadgen
REPL_DIR="$(mktemp -d)"
PRIMARY=127.0.0.1:7788
REPLICA=127.0.0.1:7789
cleanup() { kill "${PRIMARY_PID:-}" "${REPLICA_PID:-}" 2>/dev/null || true; rm -rf "$REPL_DIR"; }
trap cleanup EXIT
"$REPLD" primary --listen "$PRIMARY" --wal-dir "$REPL_DIR" &
PRIMARY_PID=$!
sleep 0.5
"$REPLD" replica --listen "$REPLICA" --primary "$PRIMARY" &
REPLICA_PID=$!
sleep 0.5
timeout 30 "$LOADGEN" --addr "$PRIMARY" --clients 8 --accounts 64 --ops 5 --seed 42
timeout 30 "$REPLD" wait-zero-lag --addr "$REPLICA" --timeout-secs 25
"$REPLD" status --addr "$REPLICA" --full | grep -q '^repl.role_replica = 1$'
"$REPLD" status --addr "$REPLICA" | grep -q '^role=replica '
# The primary ran the loadgen commits, so its one-liner must carry
# nonzero commit-latency figures from the METRICS snapshot.
PSTATUS="$("$REPLD" status --addr "$PRIMARY")"
echo "$PSTATUS" | grep -q ' commit_p99_us=[1-9]'
"$REPLD" shutdown --addr "$REPLICA"
"$REPLD" shutdown --addr "$PRIMARY"
wait "$PRIMARY_PID" "$REPLICA_PID"
trap - EXIT
cleanup

echo "== HA failover smoke (SIGKILL primary mid-migration, zero lost acked commits) =="
timeout 90 "$LOADGEN" --failover --clients 8 --accounts 256 --ops 5 --seed 42

echo "== loadgen 3-node cluster smoke (mid-traffic flips, exchange, oracle equality) =="
timeout 60 cargo run --release -q -p bullfrog-ha --bin loadgen -- \
  --cluster 3 --clients 16 --accounts 120 --owners 8 --ops 5 --seed 42
timeout 60 cargo run --release -q -p bullfrog-ha --bin loadgen -- \
  --engine-mode si --cluster 3 --clients 16 --accounts 120 --owners 8 --ops 5 --seed 42

echo "== clusterd three-process loopback smoke =="
CLUSTERD=target/release/clusterd
N1=127.0.0.1:7791
N2=127.0.0.1:7792
N3=127.0.0.1:7793
NODES="$N1,$N2,$N3"
ccleanup() { kill "${N1_PID:-}" "${N2_PID:-}" "${N3_PID:-}" 2>/dev/null || true; }
trap ccleanup EXIT
"$CLUSTERD" node --listen "$N1" & N1_PID=$!
"$CLUSTERD" node --listen "$N2" & N2_PID=$!
"$CLUSTERD" node --listen "$N3" & N3_PID=$!
sleep 0.5
"$CLUSTERD" init --nodes "$NODES"
"$CLUSTERD" exec --nodes "$NODES" \
  --sql "CREATE TABLE accounts (id INT, owner CHAR(8), balance INT, PRIMARY KEY (id))"
timeout 60 "$CLUSTERD" migrate --nodes "$NODES" --finalize-drop \
  --sql "CREATE TABLE accounts_v2 AS (SELECT id, owner, balance FROM accounts) PRIMARY KEY (id)"
# Capture the full status (a bare `| grep -q` closes the pipe at first
# match) and assert both the node count and the cluster-merged latency
# one-liner sourced from each node's METRICS snapshot.
CSTATUS="$("$CLUSTERD" status --nodes "$NODES")"
echo "$CSTATUS" | grep -q '^cluster.nodes = 3$'
echo "$CSTATUS" | grep -q '^latency: commit_p50_us='
"$CLUSTERD" shutdown --nodes "$NODES"
wait "$N1_PID" "$N2_PID" "$N3_PID"
trap - EXIT
ccleanup

echo "== cluster scale bench (machine-readable JSON) =="
BENCH_CLUSTER_JSON="$PWD/target/BENCH_cluster.json" \
  timeout 120 cargo bench -q -p bullfrog-bench --bench cluster_scale
grep -q '"bench": "cluster_scale"' target/BENCH_cluster.json

echo "== net protocol bench (QUERY vs prepared vs pipelined, machine-readable JSON) =="
BENCH_NET_JSON="$PWD/target/BENCH_net.json" \
  timeout 120 cargo bench -q -p bullfrog-bench --bench micro_net
grep -q '"bench": "net"' target/BENCH_net.json
grep -q '"obs_overhead_pct"' target/BENCH_net.json

echo "== bfbench smoke (the benchmark builds and runs against the crates as they are) =="
cargo test --release -q --manifest-path bfbench/Cargo.toml

echo "== obs crate (histogram proptests, registry, tracer) =="
cargo test -q -p bullfrog-obs

echo "== obs timeline smoke (both engine modes, per-second p50/p99 across migrations) =="
BENCH_OBS_JSON="$PWD/target/BENCH_obs.json" \
  timeout 60 cargo run --release -q -p bullfrog-ha --bin loadgen -- \
  --timeline --clients 8 --accounts 128 --owners 8 --ops 5 --seed 42
grep -q '"bench": "obs_timeline"' target/BENCH_obs.json
grep -q '"mode": "2pl"' target/BENCH_obs.json
grep -q '"mode": "si"' target/BENCH_obs.json
# The loadgen run self-asserts a nonzero migration-window p99 per mode;
# check the emitted JSON carries the figures (and no zero slipped out).
test "$(grep -c '"m1_window_p99_us": 0' target/BENCH_obs.json)" -eq 0
test "$(grep -c '"m2_window_p99_us": 0' target/BENCH_obs.json)" -eq 0
test "$(grep -c '"m1_window_p99_us"' target/BENCH_obs.json)" -eq 2

echo "== rustfmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --all-targets -- -D warnings

echo "verify: OK"
