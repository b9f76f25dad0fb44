#!/usr/bin/env bash
# drrs_bench: build the benchmark from source, then run it.
#
#   benchmarks/run.sh [--seed N] [--rounds R] [--smoke] [--strict]
#       the whole suite: every workload, every metric, every check;
#       writes benchmarks/out/latest.json and benchmarks/out/trace-<workload>.json
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is one JSON object
#       (the form BENCHMARK.json names)
#
# See benchmarks/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
# Cargo's own messages go to stderr; stdout carries only the benchmark's.
cargo build --release --offline --manifest-path benchmarks/drrs_bench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmarks/drrs_bench/target}/release/drrs_bench" "$@"
