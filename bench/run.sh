#!/usr/bin/env bash
# Builds the harness into .bench_build/ at the checkout root and runs it
# from there; the harness builds cmd/attributed itself. All arguments go to
# the harness (see bench/README.md).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
go build -C bench -o ../.bench_build/bench .
exec .bench_build/bench "$@"
