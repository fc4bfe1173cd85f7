#!/usr/bin/env bash
# Smoke-test the scale layer end to end on the 100k-gate design:
#
#   1. the MGBA_SCALE-gated tests — the closure smoke (generate, cold
#      calibrate, ten transforms with a mid-flow recalibration) and the
#      streamed-vs-materialized bit-identity check at 100k — under a hard
#      wall-clock ceiling. Both finish in seconds, so the 3m default
#      ceiling is tight enough that a k-worst search walking pin-parallel
#      plateaus again (15 s per 100k calibration) fails the job;
#   2. the benchscale artifact: experiments -run benchscale -json must
#      write a non-empty BENCH_scale.json from the full 100k design.
set -euo pipefail
cd "$(dirname "$0")/.."

timeout="${MGBA_SCALE_TIMEOUT:-3m}"

MGBA_SCALE=1 go test -timeout "$timeout" -run \
    'TestScaleSmoke100k|TestStreamedColdBitIdenticalLarge' \
    ./internal/closure/ ./internal/core/ -v

rm -f BENCH_scale.json
go run ./cmd/experiments -run benchscale -json -q
test -s BENCH_scale.json
echo "smoke_scale: OK"
