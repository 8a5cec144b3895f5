#!/bin/sh
# Prints the quantities ROADMAP tracks ("lines, wire ops, flags and exported
# identifiers ... should go down") as one JSON object, counted the same way
# every time:
#
#   sh scripts/size.sh > SIZE.json   record them (same commit as the change)
#   sh scripts/size.sh -check        fail if any number is above SIZE.json's
#
# The root module only: benchmark/ is a module of its own with its own rules.
# engine_switches counts comparisons against an engine outside tests: the
# rule that tells SI from WSI is oracle.Engine.Rows, so it should stay 1.
# unreachable_funcs is scripts/reach.sh's count of functions under internal/
# that no shipped binary links.
set -eu
cd "$(dirname "$0")/.."

gofiles() { find . -name '*.go' -not -path './benchmark/*' -not -path '*/.*' "$@"; }
lines() { gofiles "$@" -exec cat {} + | wc -l | tr -d ' '; }
matches() { pat=$1; shift; gofiles "$@" -exec cat {} + | grep -c -E "$pat" || true; }

# Top-level declarations with an exported name (functions, methods, types,
# constants, variables; struct fields are not counted).
exported() {
	gofiles -not -name '*_test.go' -exec cat {} + | awk '
		/^func [A-Z]/ || /^func \([^)]*\) [A-Z]/ || /^type [A-Z]/ || /^(var|const) [A-Z]/ { n++ }
		/^(var|const|type) \($/ { blk = 1; next }
		blk && /^\)/ { blk = 0 }
		blk && /^\t[A-Z][A-Za-z0-9_]*( |,|$)/ { n++ }
		END { print n + 0 }'
}

current() {
	cat <<EOF
{
  "non_test_lines": $(lines -not -name '*_test.go'),
  "test_lines": $(lines -name '*_test.go'),
  "wire_ops": $(grep -c -E '^	op[A-Z][A-Za-z]* += [0-9]+$' internal/netsrv/protocol.go),
  "oracle_server_flags": $(grep -c -E 'flag\.[A-Z][A-Za-z0-9]*\(([a-zA-Z]+, )?"' cmd/oracle-server/main.go),
  "exported_identifiers": $(exported),
  "sleeps_in_tests": $(matches 'time\.Sleep\(' -name '*_test.go'),
  "sleeps_outside_tests": $(matches 'time\.Sleep\(' -not -name '*_test.go'),
  "fuzz_targets": $(matches '^func Fuzz' -name '*_test.go'),
  "engine_switches": $(matches '[!=]= (oracle\.)?(WSI|SI)\b' -not -name '*_test.go'),
  "unreachable_funcs": $(sh scripts/reach.sh),
  "design_md_lines": $(wc -l < DESIGN.md | tr -d ' ')
}
EOF
}

if [ "${1:-}" != "-check" ]; then
	current
	exit 0
fi

# -check: every number at or below the recorded one. A number that rose
# passes only when SIZE.json was regenerated in the same commit, which puts
# the rise in the diff a reviewer reads.
current | sed -n 's/^  "\([a-z_]*\)": \([0-9]*\),\{0,1\}$/\1 \2/p' | {
	bad=0
	while read -r key now; do
		was=$(sed -n "s/^  \"$key\": \([0-9]*\),\{0,1\}\$/\1/p" SIZE.json)
		if [ -z "$was" ]; then
			echo "size: $key is not in SIZE.json; run: sh scripts/size.sh > SIZE.json" >&2
			bad=1
		elif [ "$now" -gt "$was" ]; then
			echo "size: $key rose $was -> $now; shrink it, or record it: sh scripts/size.sh > SIZE.json" >&2
			bad=1
		fi
	done
	exit $bad
}
