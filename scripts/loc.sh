#!/usr/bin/env bash
# loc.sh prints ROADMAP.md's size ledger: non-test Go lines per part, one
# line per ledger row, with the part's test lines beside them, then the
# root-module totals. The counting rule is ROADMAP's: every .go file that
# is not a _test.go file, outside benchmark/ (a nested module with its
# own go.mod); test lines count the _test.go files the same way.
#
#   ./scripts/loc.sh             # print the ledger
#   ./scripts/loc.sh -max 18500  # also exit 1 when the non-test total exceeds 18,500
set -euo pipefail
cd "$(dirname "$0")/.."

max=""
if [ "${1:-}" = "-max" ]; then
	max="${2:?-max needs a line count}"
fi

# lines NOT PATH...: lines of the .go files under the paths that are
# test files, or with NOT = "!" that are not.
lines() {
	local not=$1
	shift
	find "$@" -name '*.go' $not -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 -r cat | wc -l
}
count() { lines '!' "$@"; }
tests() { lines '' "$@"; }

row() { printf '%-44s %-28s %s\n' "$1" "$2" "$3"; }

row "part" "non-test" "test"
for part in server engine colstore ingest core expt cluster; do
	row "$part" "$(count "./internal/$part")" "$(tests "./internal/$part")"
done
small="" smallTests=""
for part in bitmap histogram obs datagen stats; do
	small="${small:+$small / }$(count "./internal/$part")"
	smallTests="${smallTests:+$smallTests / }$(tests "./internal/$part")"
done
row "bitmap / histogram / obs / datagen / stats" "$small" "$smallTests"
row "cmd/" "$(count ./cmd)" "$(tests ./cmd)"
row "examples/" "$(count ./examples)" "$(tests ./examples)"
row "fastmatch.go" "$(count ./fastmatch.go)" "$(tests . -maxdepth 1)"
total=$(count .)
row "total" "$total" "$(tests .)"

if [ -n "$max" ] && [ "$total" -gt "$max" ]; then
	echo "non-test lines: $total exceeds the ROADMAP target of $max" >&2
	exit 1
fi
