#!/bin/sh
# Modeled-number gate: reruns fig4smoke and fails (exit nonzero) unless every
# record reproduces the committed bench/baselines/BENCH_fig4smoke.json, or if
# a baseline record is no longer produced.
#
# fig4smoke throughput is computed from the calibrated device and CPU
# performance models, so it is deterministic: every host reproduces the
# committed records exactly. -compare therefore checks equality (within 1e-6,
# in either direction) — any drift in launch geometry, transfer counts or
# kernel efficiency on the accelerator path is a change to the model and must
# fail here. Wall-clock performance is not gated by a committed baseline;
# compare two commits on one host with scripts/bench_pair.sh.
#
# After a change that means to move a modeled number, regenerate with
#   go run ./cmd/beaglebench -experiment fig4smoke -json bench/baselines
# and commit the diff.
set -eu

ROOT=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
go -C "$ROOT" run ./cmd/beaglebench -experiment fig4smoke -compare "$ROOT/bench/baselines"
