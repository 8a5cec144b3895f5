#!/bin/sh
# Prints the counted cost of the canonical transaction shapes (TestCost in
# cost_test.go: allocations and bytes per transaction of an in-process
# core.System, one goroutine, a fixed seed, under WSI and SI) as one JSON
# object:
#
#   sh scripts/cost.sh > COST.json   record them (same commit as the change)
#   sh scripts/cost.sh -check        fail if any number is more than 1 %
#                                    above COST.json's
#
# The counts depend on the Go release the test is built with, which the
# file records as go_release: -check refuses to compare across releases.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
go test -count=1 -run '^TestCost$' . -args -cost.out "$tmp" >/dev/null

if [ "${1:-}" != "-check" ]; then
	cat "$tmp"
	exit 0
fi

release() { sed -n 's/^  "go_release": "\(.*\)",\{0,1\}$/\1/p' "$1"; }
if [ "$(release "$tmp")" != "$(release COST.json)" ]; then
	echo "cost: COST.json was recorded with $(release COST.json), this is $(release "$tmp"); check with that release, or record: sh scripts/cost.sh > COST.json" >&2
	exit 1
fi

# -check: every number at most 1 % above the recorded one. A number that
# rose further passes only when COST.json was regenerated in the same
# commit, which puts the rise in the commit's own diff.
sed -n 's/^  "\([a-z_]*\)": \([0-9.]*\),\{0,1\}$/\1 \2/p' "$tmp" | {
	bad=0
	while read -r key now; do
		was=$(sed -n "s/^  \"$key\": \([0-9.]*\),\{0,1\}\$/\1/p" COST.json)
		if [ -z "$was" ]; then
			echo "cost: $key is not in COST.json; run: sh scripts/cost.sh > COST.json" >&2
			bad=1
		elif awk -v now="$now" -v was="$was" 'BEGIN { exit !(now > was * 1.01) }'; then
			echo "cost: $key rose $was -> $now (more than 1 %); cut it, or record it: sh scripts/cost.sh > COST.json" >&2
			bad=1
		else
			echo "ok: $key $now (recorded $was)"
		fi
	done
	exit $bad
}
