#!/bin/sh
# Fused multiply-add gate for internal/kernels' Go bodies.
#
# The Go compiler may fuse x*y + z into one instruction on arm64, riscv64 and
# ppc64le, which rounds once where amd64 rounds twice, so a Go body that
# fuses gives other bits there than the AVX2 assembly and amd64's Go body.
# This builds the kernels' test binary for each of those architectures with
# the assembly compiled out (-tags purego), disassembles it, and attributes
# every fused multiply-add to its source file. It fails when a non-test
# kernels file outside the allowlist fuses, and when a listed file no longer
# fuses on an architecture, so the list only shrinks.
#
# Usage: sh scripts/fma_gate.sh   (from any working directory; needs only
# the Go toolchain, which cross-compiles without a C toolchain)
set -eu

ROOT=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
ARCHES="arm64 riscv64 ppc64le"

# file  reason — every file here must fuse on every architecture above.
allowlist() {
    cat <<'EOF'
fma.go       PartialsPartialsFMA fuses by design (the fma4_f64 probe's kernel)
matrices.go  UpdateTransitionMatrix's sums still fuse (ROADMAP 4(a))
partials.go  the generic kernels' sums still fuse (ROADMAP 4(a))
vecmat.go    the wide family's Go primitive still fuses (ROADMAP 4(a))
EOF
}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# The package's non-test Go files, by base name: objdump names an
# instruction's source by base name only.
(cd "$ROOT/internal/kernels" && ls -- *.go) | grep -v '_test\.go$' > "$TMP/files"
allowlist | awk '{print $1}' > "$TMP/allowed"

status=0
for arch in $ARCHES; do
    GOARCH=$arch go -C "$ROOT" test -c -tags purego -o "$TMP/k.$arch" ./internal/kernels
    # Instructions of functions defined in internal/kernels (inlined code
    # keeps its own file and line) whose mnemonic is a floating-point fused
    # multiply-add or -subtract, as file:line.
    go tool objdump "$TMP/k.$arch" | awk '
        /^TEXT / { inpkg = ($NF ~ /\/internal\/kernels\/[^\/]*\.go$/); next }
        inpkg && $1 ~ /\.go:[0-9]+$/ && $4 ~ /^FN?M(ADD|SUB)/ { print $1 }
    ' | sort | uniq > "$TMP/fused.$arch"
    awk -F: 'NR == FNR { kern[$1] = 1; next } ($1 in kern) { print }' \
        "$TMP/files" "$TMP/fused.$arch" > "$TMP/ours.$arch"
    bad=$(awk -F: 'NR == FNR { ok[$1] = 1; next } !($1 in ok) { print }' "$TMP/allowed" "$TMP/ours.$arch")
    if [ -n "$bad" ]; then
        echo "$arch: fused multiply-adds outside the allowlist:" >&2
        echo "$bad" >&2
        status=1
    fi
    for f in $(cat "$TMP/allowed"); do
        n=$(grep -c "^$f:" "$TMP/ours.$arch" || true)
        if [ "$n" -eq 0 ]; then
            echo "$arch: $f no longer fuses; drop it from the allowlist" >&2
            status=1
        fi
        echo "$arch: $f fuses at $n source lines"
    done
done
exit $status
