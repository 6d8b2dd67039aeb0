#!/usr/bin/env bash
# A quick run of every workload (about two seconds measured each, same
# sizes, mixes and concurrency), failing unless every metric named in
# BENCHMARK.json is present, finite and carries its unit.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check "$@"
