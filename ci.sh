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

echo "==> examples (release, ~1 s together)"
# The root package's examples drive the public API end to end; a panic
# in any of them fails the gate. Their output is for readers, not
# checked here.
cargo build --release --examples
for example in quickstart custom_collective inference_generation \
    tnlg_sublayers megatron_training "multinode_tp --fast"; do
    # shellcheck disable=SC2086 # the --fast argument splits on purpose
    ./target/release/examples/$example > /dev/null
done

echo "==> benchmark fmt, clippy and tests (unit tests + manifest check)"
# benchmark/ is its own workspace that imports the crates' public
# APIs; formatting, linting and testing it here keeps an API change
# from silently breaking the benchmark or leaving it with warnings.
cargo fmt --check --manifest-path benchmark/Cargo.toml
cargo clippy --offline --locked --all-targets --manifest-path benchmark/Cargo.toml -- -D warnings
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> benchmark trace: every workload (pins, digests, cross-checks)"
# One traced and one plain sample of each workload; exits 1 when a
# simulated-cycle pin, a result digest or a cross-check fails. The
# paper-matrix traced sample re-simulates every distinct engine call
# fresh and compares it with the op that came through the sublayer
# memo; the figures-fast digest covers every job's stdout bytes, which
# the cycles-only t3-prof gate below does not. fabric-16 and traced
# are the only workloads that pin the explicit multi-GPU engine's
# per-GPU results and device 0's exported trace bytes.
for workload in paper-matrix figures-fast fabric-16 traced; do
    cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml \
        -- trace --workload "$workload"
done

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
