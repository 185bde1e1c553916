#!/bin/sh
# Paired comparison of the measured benchmark (bench/mark) between a base
# commit and the working tree on this host: the way to show a change did not
# slow a workload, since wall-clock numbers are not gated against a committed
# baseline. Runs base and head alternately (odd pairs base first, even pairs
# head first), prints bench/mark's own -compare per pair (a = base, b = head)
# and a tally per metric x workload; exits non-zero when a row is worse in a
# majority of pairs. The default 16 s x six workloads takes ~4 min per pair.
#
# Usage: bench_pair.sh [base-ref] [pairs] [workloads]   (HEAD, 10, all six)
set -eu

BASE=${1:-HEAD} PAIRS=${2:-10} WORKLOADS=${3:-}
ROOT=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
OUT=$(mktemp -d)
trap 'rm -rf "$OUT/base"' EXIT # the base tree goes, the records stay
mkdir "$OUT/base"
git -C "$ROOT" archive "$BASE" | tar -x -C "$OUT/base"

mark() { # mark <tree> <name>; a wrong result exits non-zero and stops the run
    go -C "$1" run ./bench/mark ${WORKLOADS:+-workload "$WORKLOADS"} -out "$OUT/$2.json" >/dev/null
}
i=1
while [ "$i" -le "$PAIRS" ]; do
    case $((i % 2)) in
    1) mark "$OUT/base" "base_$i"; mark "$ROOT" "head_$i" ;;
    0) mark "$ROOT" "head_$i"; mark "$OUT/base" "base_$i" ;;
    esac
    echo "== pair $i of $PAIRS: $BASE (a) vs working tree (b)"
    go -C "$ROOT" run ./bench/mark -compare "$OUT/base_$i.json" "$OUT/head_$i.json" | tee -a "$OUT/compare.txt"
    i=$((i + 1))
done
echo "== tally over $PAIRS pairs (records in $OUT)"
awk -v pairs="$PAIRS" '
    $NF ~ /^(ok|equal|worse|missing|differs|unresolved)$/ {
        k = sprintf("%-34s %-13s", $1, $2); if (!(k in t)) { t[k]; row[++n] = k }
        t[k, $NF ~ /ok|equal/ ? "ok" : $NF == "unresolved" ? $NF : "worse"]++ }
    END { for (j = 1; j <= n; j++) { k = row[j]; if (2 * t[k, "worse"] > pairs) bad = 1
            printf "%s ok %d  worse %d  unresolved %d\n", k, t[k, "ok"], t[k, "worse"], t[k, "unresolved"] }
          exit bad }' "$OUT/compare.txt"
