#!/bin/sh
# Counts the functions declared under internal/ that no shipped binary links:
# the commands (cmd/*), the examples (examples/*) and the benchmark. Prints
# the count; -v also lists the unreachable functions, one per line.
#
#   sh scripts/reach.sh        the count (scripts/size.sh records it)
#   sh scripts/reach.sh -v     the count, then the functions
#
# The binaries are built with inlining off (-gcflags=all=-l), so a function
# the linker kept appears in the symbol table under its own name. Symbols
# are read with go tool nm; generic instantiations lose their bracketed type
# arguments and pointer-receiver wrappers match their value-receiver
# methods. Declarations are the ^func lines of the non-test files of every
# package under internal/. Only go, awk and sed are used.
set -eu
cd "$(dirname "$0")/.."

# Functions that stay although no binary links them, each with its reason
# (tab-separated). Keep this list short: a function that only tests call
# belongs in a test file, and one nothing calls should be deleted.
allow='
repro/internal/netsrv.DialPartitioned	the client entry point of the fleets oracle-server -partitions serves
repro/internal/netsrv.DialFailover	the client entry point of the groups oracle-server -group serves
'

bin=$(go env GOTMPDIR)
bin=${bin:-${TMPDIR:-/tmp}}/reach.$$
trap 'rm -rf "$bin"' EXIT
go build -gcflags=all=-l -o "$bin/" ./cmd/... ./examples/...
go build -C benchmark -gcflags=all=-l -buildvcs=false -o "$bin/benchmark" .

{
	printf '%s\n' "$allow" | awk -F '\t' 'NF == 2 { print "A", $1 }'
	# Linked: every prefix of every repro/internal symbol, normalised.
	for b in "$bin"/*; do go tool nm "$b"; done |
		sed -n 's,^ *[0-9a-f]* [Tt] \(repro/internal/[a-z/]*\)\.,\1 ,p' |
		awk '{
			s = substr($0, length($1) + 2)
			while (gsub(/\[[^][]*\]/, "", s)) {}
			gsub(/[(*)]/, "", s)
			n = split(s, part, ".")
			name = $1
			for (i = 1; i <= n; i++) { name = name "." part[i]; print "L", name }
		}'
	# Declared: pkg.Func or pkg.Type.Method for each ^func line.
	go list -f '{{.ImportPath}} {{.Dir}}{{range .GoFiles}} {{.}}{{end}}' ./internal/... |
		while read -r pkg dir files; do
			for f in $files; do
				sed -n 's/^func \(([^)]*) \)\{0,1\}\([A-Za-z_][A-Za-z0-9_]*\).*/\1\2/p' "$dir/$f" |
					awk -v pkg="$pkg" '{
						if ($0 ~ /^\(/) {
							recv = $0; sub(/\) .*/, "", recv); gsub(/\[.*\]/, "", recv)
							n = split(recv, w, " "); t = w[n]
							gsub(/[(*]/, "", t)
							name = $0; sub(/^\([^)]*\) /, "", name)
							print "D", pkg "." t "." name
						} else if ($0 != "init") {
							print "D", pkg "." $0
						}
					}'
			done
		done
} | awk -v verbose="${1:-}" '
	$1 == "L" { linked[$2] = 1; next }
	$1 == "A" { allowed[$2] = 1; next }
	$1 == "D" && !($2 in linked) && !($2 in allowed) { dead[++n] = $2 }
	END {
		print n + 0
		if (verbose == "-v") for (i = 1; i <= n; i++) print dead[i]
	}'
