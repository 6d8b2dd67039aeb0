#!/usr/bin/env bash
# The full benchmark twice on the same code: prints, per workload and
# end-to-end metric, both values, their relative difference and the
# bound, with the spread inside each run; fails if any difference
# exceeds its bound or an exact count does not repeat.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --repeat 2 "$@"
