#!/usr/bin/env bash
# loc.sh prints ROADMAP.md's size ledger: non-test Go lines per part, one
# line per ledger row, then the root-module total. The counting rule is
# ROADMAP's: every .go file that is not a _test.go file, outside
# benchmark/ (a nested module with its own go.mod).
#
#   ./scripts/loc.sh             # print the ledger
#   ./scripts/loc.sh -max 18500  # also exit 1 when the total exceeds 18,500
set -euo pipefail
cd "$(dirname "$0")/.."

max=""
if [ "${1:-}" = "-max" ]; then
	max="${2:?-max needs a line count}"
fi

# count PATH...: non-test .go lines under the paths.
count() {
	find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 -r cat | wc -l
}

row() { printf '%-44s %s\n' "$1" "$2"; }

for part in server engine colstore ingest core expt cluster; do
	row "$part" "$(count "./internal/$part")"
done
small=""
for part in bitmap histogram obs datagen stats; do
	small="${small:+$small / }$(count "./internal/$part")"
done
row "bitmap / histogram / obs / datagen / stats" "$small"
row "cmd/" "$(count ./cmd)"
row "examples/" "$(count ./examples)"
row "fastmatch.go" "$(count ./fastmatch.go)"
total=$(count .)
row "total" "$total"

if [ -n "$max" ] && [ "$total" -gt "$max" ]; then
	echo "non-test lines: $total exceeds the ROADMAP target of $max" >&2
	exit 1
fi
