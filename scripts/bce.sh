#!/usr/bin/env bash
# bce.sh keeps per-row bounds checks out of the scan kernels. It builds
# ./internal/engine/ with the compiler's bounds-check report
# (-gcflags=-d=ssa/check_bce/debug=1), prints every site the compiler
# reports inside scanKernel.block and scanKernel.groupCodes
# (internal/engine/kernels.go), and fails when an index check
# (IsInBounds) sits on a line without a "// bce:" marker. Only the
# lookups whose index comes from the data (acc, cnt, remap) carry the
# marker. Slice checks (IsSliceInBounds) are the per-block cuts the row
# loops range over, one per slice per block; they are listed, not
# failed. Compilers differ in what they prove, so the list is printed
# whatever the outcome.
#
#   ./scripts/bce.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SRC=internal/engine/kernels.go

# The line spans of the two functions: from the func line to the first
# closing brace in column 1.
spans=$(awk '
  /^func \(k \*scanKernel\) (block|groupCodes)\(/ { start = NR; name = $4; sub(/\(.*/, "", name) }
  start && /^}/ { print name, start, NR; start = 0 }
' "$SRC")
[ "$(wc -l <<<"$spans")" -eq 2 ] || { echo "bce.sh: cannot find block and groupCodes in $SRC" >&2; exit 1; }

# -a is not needed: the go command replays a cached package's compiler
# output, so the report is complete on a warm cache too.
out=$(go build -gcflags=-d=ssa/check_bce/debug=1 ./internal/engine/ 2>&1) || { echo "$out" >&2; exit 1; }
report=$(grep 'kernels\.go:' <<<"$out" || true)

fail=0 sites=0
while read -r name start end; do
  while IFS=: read -r _ line col kind; do
    [ "$line" -ge "$start" ] && [ "$line" -le "$end" ] || continue
    sites=$((sites + 1))
    text=$(sed -n "${line}p" "$SRC")
    verdict=ok
    if [[ "$kind" == *IsInBounds* && "$kind" != *IsSliceInBounds* && "$text" != *"// bce:"* ]]; then
      verdict=UNMARKED
      fail=1
    fi
    printf '%-8s %-10s %s:%s:%s%s\n' "$verdict" "$name" "$SRC" "$line" "$col" "$kind"
  done <<<"$report"
done <<<"$spans"

if [ "$sites" -eq 0 ]; then
  echo "bce.sh: the compiler reported no site in block or groupCodes; the check is vacuous" >&2
  exit 1
fi
if [ "$fail" -ne 0 ]; then
  echo "bce.sh: an unmarked per-row bounds check is in the scan kernels; cut the slice to the block or mark a data-indexed lookup with // bce:" >&2
  exit 1
fi
echo "bce.sh: $sites sites in block and groupCodes, every index check marked"
