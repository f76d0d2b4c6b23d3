#!/usr/bin/env bash
# Tier-1 verification plus style/lint gates. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== abort storm + mid-migration crash recovery (the example's asserts) =="
cargo run --release -q --example abort_recovery

echo "== tests =="
cargo test -q --workspace

echo "== WAL and lock-manager tests under high thread pressure =="
RUST_TEST_THREADS=16 cargo test -q -p bullfrog-txn wal
RUST_TEST_THREADS=16 cargo test -q -p bullfrog-engine --test durability
RUST_TEST_THREADS=16 cargo test -q -p bullfrog-txn lock

echo "== net protocol bench (QUERY vs prepared vs pipelined, machine-readable JSON) =="
BENCH_NET_JSON="$PWD/target/BENCH_net.json" \
  timeout 120 cargo bench -q -p bullfrog-bench --bench micro_net
grep -q '"bench": "net"' target/BENCH_net.json
grep -q '"obs_overhead_pct"' target/BENCH_net.json

echo "== bfbench smoke (the benchmark builds and runs against the crates as they are) =="
cargo test --release -q --manifest-path bfbench/Cargo.toml

echo "== rustfmt =="
cargo fmt --check
cargo fmt --check --manifest-path bfbench/Cargo.toml

echo "== clippy =="
cargo clippy --all-targets -- -D warnings
cargo clippy --all-targets --manifest-path bfbench/Cargo.toml -- -D warnings

echo "== rustdoc (warning-free) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "verify: OK"
