#!/usr/bin/env bash
# The full local gate: formatting, lints, rustdoc, and every test.
# Run from anywhere. Lints stop at the first failure; the test step runs
# every test target, then exits non-zero if any failed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test (workspace) =="
cargo test -q --workspace --no-fail-fast

echo "All checks passed."
