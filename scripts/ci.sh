#!/usr/bin/env bash
# Full local CI: format, lint, tests, doc build, and the reproduction
# scorecard as the end-to-end smoke signal.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --release --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test --release --workspace

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== scorecard =="
cargo run --release -p zerosim-bench --bin repro -- scorecard | tail -n +2 | head -4

echo "CI OK"
