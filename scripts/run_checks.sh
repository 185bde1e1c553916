#!/bin/sh
# Correctness-check scripts, the analogue of the genomictest test scripts
# the paper describes in §V-A: "a set of testing scripts which evaluate
# different analyses types by varying input parameters to our genomictest
# program". Every configuration cross-validates all compute resources
# against the serial CPU reference.
#
# Runnable from any working directory; fails fast and names the section
# that failed. Used locally and by the CI "correctness checks" job.
set -eu

ROOT=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
TIMEOUT=${CHECK_TIMEOUT:-15m}

SECTION="startup"
trap 'status=$?; if [ "$status" -ne 0 ]; then echo "FAILED in section: $SECTION (exit $status)" >&2; fi' EXIT

section() {
    SECTION=$1
    echo "== $SECTION"
}

section "go vet ./..."
go -C "$ROOT" vet ./...

# beaglevet: the repo's own analyzer suite (internal/analysis) — noalloc,
# nopanic, flagexcl, hazardcapture, allocguard, plus the interprocedural
# checks lockorder, atomicmix, goroleak, mapdeterminism and ctxhttp (all on
# by default; any unwaived diagnostic fails the run). Stock vet already ran
# above, so -stock=false avoids running it twice.
section "beaglevet ./..."
go -C "$ROOT" run ./cmd/beaglevet -stock=false ./...

section "go test -race -short ./..."
go -C "$ROOT" test -race -short -timeout "$TIMEOUT" ./...

# The wide-state kernels are AVX2 assembly selected by CPUID at start-up; on a
# host without AVX2 every test passes on the generic kernels, so say which
# family this host binds.
section "bound kernel family"
go -C "$ROOT" test -run 'TestKernelBinding|TestForStateCount' -v ./internal/kernels ./internal/cpuimpl ./internal/accelimpl | grep -E 'binds|accelerated|^(ok|FAIL|---)'

# The portable path — the Go body of the vectorised primitive and the
# generic-kernel binding every other architecture gets — on this host,
# accelerators included.
section "go test -tags purego ./internal/kernels ./internal/cpuimpl ./internal/accelimpl"
go -C "$ROOT" test -tags purego -timeout "$TIMEOUT" ./internal/kernels ./internal/cpuimpl ./internal/accelimpl

# The telemetry snapshot guarantee (exact at quiescence, monotone in flight)
# only fails intermittently when broken, so it is run many times.
section "telemetry TestConcurrentRecording -race -count=200"
go -C "$ROOT" test -race -run TestConcurrentRecording -count=200 ./internal/telemetry

# The worker pool (internal/engine) publishes each phase's task in a field
# before the channel sends that hand out task indices; a broken ordering only
# races intermittently, so the executor tests are run many times.
section "executor -race -count=50"
go -C "$ROOT" test -race -count=50 -run 'Aliased|MatchSerial|KernelBinding|TraceSpans|LevelTraces|WorkerPool' ./internal/cpuimpl ./internal/engine

# A device launch runs its work-groups concurrently on the engine's worker
# pool, and each group writes its own per-category pattern runs of the
# destination or its own category's matrix: an overlap only races
# intermittently. A worker that outlives its engine shows as a goroutine count.
section "accelerator work-groups -race -count=20"
go -C "$ROOT" test -race -count=20 -run 'Golden|MatchCPUSerial|ReferenceBits|LaunchKernel|WorkersStop|TinyDevice' ./internal/accelimpl ./internal/device

# Drained worker spans are rebased by the drain's round trip, whose legs are
# scheduled differently on every run.
section "remoteimpl span stitching -count=200 -cpu 1"
go -C "$ROOT" test -count=200 -cpu 1 -run TestDrainSpansStitchesWorkerSpans ./internal/remoteimpl

# Wire requests off the network through the worker's dispatch table: no
# request may panic a worker or leave its engine unable to evaluate.
section "fuzz FuzzApplyRequest 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzApplyRequest -fuzztime 30s ./internal/remoteimpl

run() {
    section "genomictest -check $*"
    go -C "$ROOT" run ./cmd/genomictest -check "$@"
}

# Nucleotide models: precision x rate categories x problem sizes.
run -states 4 -taxa 8   -patterns 500  -categories 1 -precision double
run -states 4 -taxa 16  -patterns 1000 -categories 4 -precision double
run -states 4 -taxa 16  -patterns 1000 -categories 4 -precision single
run -states 4 -taxa 64  -patterns 200  -categories 2 -precision double

# Amino-acid model.
run -states 20 -taxa 8 -patterns 200 -categories 2 -precision double

# Codon model.
run -states 61 -taxa 6 -patterns 100 -categories 1 -precision double
run -states 61 -taxa 6 -patterns 100 -categories 1 -precision single

# Modeled-number gate: fig4smoke is computed from the device and CPU models and
# is deterministic, so it must reproduce the committed baseline exactly (1e-6,
# up or down); a refactor of the accelerator path that moves a launch, a
# transfer or an efficiency shows up here in five seconds.
section "bench gate fig4smoke (modeled, exact)"
sh "$ROOT/scripts/bench_gate.sh"

# Telemetry smoke: -stats must report per-kernel counts without breaking
# the benchmark path.
section "genomictest -stats smoke"
stats_out=$(go -C "$ROOT" run ./cmd/genomictest -stats -taxa 8 -patterns 200 -reps 1 -threading hybrid)
echo "$stats_out" | grep -q 'telemetry:'

# Trace smoke: -trace must produce a schema-valid multi-layer timeline.
section "genomictest -trace smoke"
trace_tmp=$(mktemp)
go -C "$ROOT" run ./cmd/genomictest -taxa 8 -patterns 200 -reps 1 -threading hybrid -trace "$trace_tmp" >/dev/null
go -C "$ROOT" run ./cmd/beagletrace -require-layers "scheduler,storage" "$trace_tmp" >/dev/null
rm -f "$trace_tmp"

# Serving-layer smoke: beagled boots in-process, serves a request through the
# warm pool (cold and warm) and over HTTP, and every served log likelihood
# must be bit-identical to dedicated-instance evaluation.
section "beagled -selfcheck"
go -C "$ROOT" run ./cmd/beagled -selfcheck

# Measured-benchmark smoke: all six bench/mark workloads, every timed result
# checked — the 4-state and 61-state workloads against the serial reference,
# the reuse chain against the dirty-schedule oracle and full recomputation,
# served answers against a dedicated instance, the root sharded over two
# loopback workers == one engine; a wrong result exits non-zero.
section "beaglemark smoke"
mark_tmp=$(mktemp)
go -C "$ROOT" run ./bench/mark -workload nuc_large,codon,deep_small,mcmc_reuse,serve_http,dist_2worker -seconds 2 -out "$mark_tmp" >/dev/null
rm -f "$mark_tmp"

SECTION="done"
echo "all checks passed"
