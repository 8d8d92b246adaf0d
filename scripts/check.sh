#!/usr/bin/env bash
# The full local gate: formatting, lints, rustdoc, and every test.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "All checks passed."
