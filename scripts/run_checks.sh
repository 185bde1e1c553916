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

section "gofmt -l ."
unformatted=$(cd "$ROOT" && gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

section "go vet ./..."
go -C "$ROOT" vet ./...

# beaglevet: the repo's own analyzer suite (internal/analysis) — noalloc,
# nopanic, allocguard, plus the interprocedural checks lockorder, goroleak,
# mapdeterminism and ctxhttp (all on by default; any unwaived diagnostic fails
# the run). Stock vet already ran above, so -stock=false avoids running it
# twice.
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
# accelerators, the engine's compact tables and the call-sequence seeds
# included: the same package list as CI's purego step.
section "go test -tags purego ./internal/kernels ./internal/cpuimpl ./internal/accelimpl ./internal/engine ./internal/multiimpl"
go -C "$ROOT" test -tags purego -timeout "$TIMEOUT" ./internal/kernels ./internal/cpuimpl ./internal/accelimpl ./internal/engine ./internal/multiimpl

# Off amd64 the compiler may fuse x*y + z, which rounds once where the AVX2
# assembly rounds twice: no fused multiply-add in a non-test kernels file
# outside the gate's allowlist, and none missing from a listed file, on
# arm64, riscv64 and ppc64le. The same step as CI's.
section "fma gate (arm64, riscv64, ppc64le)"
sh "$ROOT/scripts/fma_gate.sh"

# The telemetry snapshot guarantee (exact at quiescence, monotone in flight)
# only fails intermittently when broken, so it is run many times. The
# aggregates live in the span tracer.
section "trace TestConcurrentRecording -race -count=200"
go -C "$ROOT" test -race -run '^TestConcurrentRecording$' -count=200 ./internal/trace

# The worker pool (internal/engine) publishes each phase's task in a field
# before the channel sends that hand out task indices; a broken ordering only
# races intermittently, so the executor tests are run many times. The root
# integration's operands and the queue of matrices to compute, bound in the
# store, reach the workers the same way.
section "executor -race -count=50"
go -C "$ROOT" test -race -count=50 -run 'Aliased|MatchSerial|KernelBinding|TraceSpans|LevelTraces|WorkerPool|RootLikelihood|Compact|PoolMatrices' ./internal/cpuimpl ./internal/engine

# A device launch runs its work-groups concurrently on the engine's worker
# pool, and each group writes its own per-category pattern runs of the
# destination or its own category's matrix: an overlap only races
# intermittently. A worker that outlives its engine shows as a goroutine count.
# Instances sharing a device claim its memory concurrently through Reserve.
section "accelerator work-groups -race -count=20"
go -C "$ROOT" test -race -count=20 -run 'Golden|MatchCPUSerial|ReferenceBits|LaunchKernel|WorkersStop|TinyDevice|Reserve' ./internal/accelimpl ./internal/device

# Drained worker spans are rebased by the drain's round trip, whose legs are
# scheduled differently on every run.
section "remoteimpl span stitching -count=200 -cpu 1"
go -C "$ROOT" test -count=200 -cpu 1 -run TestDrainSpansStitchesWorkerSpans ./internal/remoteimpl

# The Newick parser on arbitrary input: no panic, and an accepted tree
# renders to a Newick fixed point.
section "fuzz FuzzParseNewick 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzParseNewick -fuzztime 30s ./internal/tree

# The wire frame reader under an arbitrary limit: no panic, and a decoded
# frame lies within the limit and the bytes given.
section "fuzz FuzzReadMsg 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzReadMsg -fuzztime 30s ./internal/remoteimpl

# Wire requests off the network through the worker's dispatch table: no
# request may panic a worker or leave its engine unable to evaluate.
section "fuzz FuzzApplyRequest 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzApplyRequest -fuzztime 30s ./internal/remoteimpl

# The vectorised primitive behind the wide-state kernels on arbitrary
# geometry: the scalar loop's bits or a Go bounds panic, never a stray access
# across the Go/assembly boundary.
section "fuzz FuzzVecMatT 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzVecMatT -fuzztime 30s ./internal/kernels

# Power-of-two rescaling: the 4-state path against the generic one, exact
# factors, non-finite inputs, nothing touched outside [lo, hi).
section "fuzz FuzzRescalePartials 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzRescalePartials -fuzztime 30s ./internal/kernels

# The 4-state kernels against their references: the assembly against the Go
# bodies, StatesStates4 against generic StatesStates, the root integration
# against the loop over states.
section "fuzz FuzzPartials4 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzPartials4 -fuzztime 30s ./internal/kernels

# The compact-table builders: SideRows4's and ClassTable4's assembly against
# their Go bodies on any row counts, canaries past each table's end.
section "fuzz FuzzCompact4 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzCompact4 -fuzztime 30s ./internal/kernels

# The site log likelihoods' log: the AVX2 body, the Go body and amd64's
# math.Log must agree bit for bit on every bit pattern, NaN payloads included.
section "fuzz FuzzLogSites 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzLogSites -fuzztime 30s ./internal/kernels

# Call sequences in lockstep on every CPU engine kind against Serial: setters
# between evaluations, reuse, compact subtrees and a forced rebalance.
section "fuzz FuzzInstanceSequence 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzInstanceSequence -fuzztime 30s ./internal/multiimpl

# beagled's compile on arbitrary JSON bodies: no panic, and a warm cache
# gives the cold compile's error or result.
section "fuzz FuzzCompileRequest 30s"
go -C "$ROOT" test -run '^$' -fuzz FuzzCompileRequest -fuzztime 30s ./internal/serve

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
