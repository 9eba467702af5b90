#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the full test suite.
# Everything here runs offline — the workspace has no external
# dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> t3-lint (determinism & fidelity gate, SARIF artifact)"
# Fails on any diagnostic. The only suppressions are inline
# `t3-lint: allow(<rule>) -- <reason>` directives, so the SARIF
# artifact holds error-level results only (none on a clean tree).
cargo run --release -q -p t3-lint -- --sarif target/t3-lint.sarif

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> benchmark fmt, clippy and tests (unit tests + manifest check)"
# benchmark/ is its own workspace that imports the crates' public
# APIs; formatting, linting and testing it here keeps an API change
# from silently breaking the benchmark or leaving it with warnings.
cargo fmt --check --manifest-path benchmark/Cargo.toml
cargo clippy --offline --locked --all-targets --manifest-path benchmark/Cargo.toml -- -D warnings
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> figures smoke run (parallel runtime, fresh cache)"
# Smoke artifacts live under target/ so a CI pass leaves the working
# tree clean. The spec pair appends the 3D sweep rows to the legacy
# target list, so the report carries both for the perf gate.
rm -rf target/t3-cache
./target/release/figures all examples/specs/gpt3_3d_sweep.t3w \
    examples/specs/hierarchical.t3s --fast --jobs 2 \
    --report target/bench_report.json

echo "==> figures sweep smoke (spec frontend, --report)"
# The spec-only path: expand a small checked-in workload/system pair
# and run it through the runtime with a report artifact.
./target/release/figures sweep examples/specs/tnlg_tp.t3w \
    examples/specs/ring.t3s --fast --jobs 2 \
    --report target/sweep_report.json

echo "==> t3-prof perf-trajectory gate (vs BENCH_10.json)"
# Simulated-cycle regression gate against the checked-in baseline.
# For an intentional perf change, regenerate the baseline in the same
# change and rerun this script:
#   ./target/release/figures all examples/specs/gpt3_3d_sweep.t3w \
#       examples/specs/hierarchical.t3s --fast --jobs 2 --report BENCH_10.json
./target/release/t3-prof check target/bench_report.json BENCH_10.json

rm -rf target/t3-cache target/bench_report.json target/sweep_report.json

echo "CI OK"
