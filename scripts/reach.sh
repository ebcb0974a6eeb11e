#!/bin/sh
# reach.sh — fail on internal/ functions that no binary reaches.
#
# The roots are every main package under cmd/, bench and examples/,
# built with inlining off so an inlined callee still shows up as a
# symbol. Every internal/ package is compiled to an archive; a text
# symbol defined in an archive and present in no root is unreachable.
# Closures, go/defer wrappers, method values, compiler-generated
# pointer-receiver wrappers and interface method stubs are not counted.
#
# A binary that formats or templates a value links every exported
# method of its type, so the symbol scan cannot see an unused exported
# method. A second pass (go run ./scripts/reachrefs) type-checks the
# module's non-test sources and adds every exported internal/ function
# or method no non-test file references, a method being exempt when its
# type satisfies an interface that declares it.
#
# Unreachable names that may stay are listed, each with its reason, in
# scripts/reach.allow ("pkg.Name" or "pkg.*" shell patterns, "# reason"
# after). A line that matches no unreachable name is stale and fails
# the run too, so the list only shrinks. Stdlib and the go tool only.
#
# Usage: scripts/reach.sh [-v]   (-v also prints the allowed names)
set -eu
cd "$(dirname "$0")/.."
mod=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

syms() { # module-internal text symbols as pkg.Name, type arguments dropped
	go tool nm "$@" | awk -v p="$mod/internal/" '{
		t = $2; s = $0; sub(/^ *[0-9a-f]+ +[^ ] +/, "", s)
		if ((t != "T" && t != "t") || index(s, p) != 1) next
		s = substr(s, length(p) + 1)
		while (gsub(/\[[^][]*\]/, "", s)) {}
		if (s ~ /\.(func|gowrap|deferwrap)[0-9]/ || s ~ /-fm$/ || s ~ /\.init(\.[0-9]+)?$/) next
		print s
	}'
}

mkdir "$tmp/bin"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./bench ./examples/...
for b in "$tmp"/bin/*; do syms "$b"; done | sort -u >"$tmp/reached"
go list -export -f '{{.Export}}' ./internal/... | while read -r a; do syms "$a"; done | sort -u >"$tmp/defined"
grep -rE '^type [A-Za-z0-9_]+ interface' --include='*.go' --exclude='*_test.go' internal |
	sed -E 's#^internal/(.*)/[^/]*\.go:type ([A-Za-z0-9_]+) .*#\1.\2#' >"$tmp/ifaces"

# Drop interface stubs (I.M) and wrappers ((*T).M where T.M is defined).
awk 'FNR == 1 { f++ }
	f == 1 { iface[$0] = 1; next }
	f == 2 { have[$0] = 1; next }
	{
		recv = $0; sub(/\.[^.]*$/, "", recv)
		if (recv in iface) next
		if (match($0, /\.\(\*[A-Za-z0-9_]+\)\./)) {
			v = substr($0, 1, RSTART) substr($0, RSTART + 3, RLENGTH - 5) substr($0, RSTART + RLENGTH - 1)
			if (v in have) next
		}
		print
	}' "$tmp/ifaces" "$tmp/defined" "$tmp/defined" | comm -23 - "$tmp/reached" >"$tmp/unlinked"
go run ./scripts/reachrefs >"$tmp/unreferenced"
sort -u "$tmp/unlinked" "$tmp/unreferenced" >"$tmp/unreached"

sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' scripts/reach.allow >"$tmp/allow"
total=0 bad=0
while read -r s; do
	total=$((total + 1))
	ok=
	while read -r pat; do
		# shellcheck disable=SC2254
		case $s in $pat) ok=1 && break ;; esac
	done <"$tmp/allow"
	if [ -z "$ok" ]; then
		echo "unreachable: $s"
		bad=$((bad + 1))
	elif [ "${1:-}" = -v ]; then
		echo "allowed:     $s"
	fi
done <"$tmp/unreached"
stale=0
while read -r pat; do
	hit=
	while read -r s; do
		# shellcheck disable=SC2254
		case $s in $pat) hit=1 && break ;; esac
	done <"$tmp/unreached"
	if [ -z "$hit" ]; then
		echo "stale allow line: $pat"
		stale=$((stale + 1))
	fi
done <"$tmp/allow"
echo "reach: $total unreachable internal functions, $bad not on scripts/reach.allow, $stale stale lines on it"
[ "$bad" -eq 0 ] && [ "$stale" -eq 0 ]
