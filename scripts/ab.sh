#!/bin/sh
# A/B a micro-benchmark of one package: build its test binary at a base
# revision (exported with git archive into a temporary directory) and
# from the working tree, run the benchmarks a -bench regexp selects K
# times on each side, alternating which side runs first, and print for
# each benchmark and side the ms/op of every run, their median and
# quartiles (the exclusive method `bench compare` uses), how many of
# the K pairs that side won and the median B/op.
#
# Usage: scripts/ab.sh [-n K] [-t benchtime] [-c cpu-list] [-p package] base-rev bench-regexp
#
# K defaults to 5, benchtime to 10x and the package to the root one
# (.); -c passes -test.cpu to both sides. Each binary runs from its
# package's directory in its own checkout, so testdata paths resolve as
# under go test. Examples:
#
#   scripts/ab.sh -n 5 -t 15x HEAD~1 'BenchmarkImport$'
#   scripts/ab.sh -p ./internal/core HEAD~1 'BenchmarkDeriveEngine/trie/full$'
set -eu

usage() {
	echo "usage: scripts/ab.sh [-n K] [-t benchtime] [-c cpu-list] [-p package] base-rev bench-regexp" >&2
	exit 2
}

runs=5
benchtime=10x
cpu=
pkg=.
while getopts n:t:c:p: opt; do
	case "$opt" in
	n) runs="$OPTARG" ;;
	t) benchtime="$OPTARG" ;;
	c) cpu="$OPTARG" ;;
	p) pkg="$OPTARG" ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -eq 2 ] || usage
base="$1"
pattern="$2"

cd "$(dirname "$0")/.."
root="$(pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

git rev-parse --quiet --verify "$base^{commit}" >/dev/null || {
	echo "ab.sh: unknown revision $base" >&2
	exit 2
}
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" "$pkg")
go test -c -o "$tmp/change.test" "$pkg"

# bench <side> <checkout> <run>: run one side's binary once from its
# package directory and append a "side run benchmark ns/op B/op" line
# per benchmark to results.
bench() {
	(cd "$2/$pkg" && "$tmp/$1.test" -test.run '^$' -test.bench "$pattern" \
		-test.benchtime "$benchtime" -test.benchmem -test.timeout 60m ${cpu:+-test.cpu "$cpu"}) |
		awk -v side="$1" -v run="$3" '/^Benchmark/ {
			ns = bytes = ""
			for (k = 3; k < NF; k++) {
				if ($(k + 1) == "ns/op") ns = $k
				if ($(k + 1) == "B/op") bytes = $k
			}
			if (ns != "") print side, run, $1, ns, bytes
		}' >>"$tmp/results"
}

i=1
while [ "$i" -le "$runs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		bench base "$tmp/base" "$i"
		bench change "$root" "$i"
	else
		bench change "$root" "$i"
		bench base "$tmp/base" "$i"
	fi
	echo "ab.sh: pair $i of $runs done" >&2
	i=$((i + 1))
done

awk -v base="$base" '
function sortv(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
			t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
		}
}
# cut returns the k-th of the three cut points of the sorted a[1..n]
# into four groups, by the exclusive method.
function cut(a, n, k,    m, j, d) {
	if (n == 1) return a[1]
	m = n + 1
	j = int(k * m / 4)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	d = k * m - j * 4
	return (a[j] * (4 - d) + a[j + 1] * d) / 4
}
{
	if (!($3 in seen)) { seen[$3] = 1; names[++nn] = $3 }
	ns[$1, $3, $2] = $4
	bop[$1, $3, $2] = $5
	if ($2 > maxrun) maxrun = $2
}
END {
	split("base change", sides, " ")
	for (b = 1; b <= nn; b++) {
		name = names[b]
		printf "%s (ms/op; base %s against the working tree)\n", name, base
		printf "  %-7s %-44s %9s %21s %4s %12s\n", "side", "runs, sorted", "median", "[q1 q3]", "won", "B/op median"
		won["base"] = 0; won["change"] = 0
		for (r = 1; r <= maxrun; r++) {
			if (!(("base", name, r) in ns) || !(("change", name, r) in ns)) continue
			x = ns["base", name, r]; y = ns["change", name, r]
			if (x < y) won["base"]++
			else if (y < x) won["change"]++
		}
		for (s = 1; s <= 2; s++) {
			side = sides[s]; n = 0; list = ""
			for (r = 1; r <= maxrun; r++)
				if ((side, name, r) in ns) {
					v[++n] = ns[side, name, r] / 1e6
					w[n] = bop[side, name, r] + 0
				}
			if (n == 0) continue
			sortv(v, n)
			sortv(w, n)
			for (k = 1; k <= n; k++) list = list sprintf("%s%.4g", k > 1 ? " " : "", v[k])
			med[side] = cut(v, n, 2)
			rel = ""
			if (side == "change" && med["base"] > 0)
				rel = sprintf(" (%+.1f%%)", 100 * (med[side] - med["base"]) / med["base"])
			printf "  %-7s %-44s %9.4g %21s %4d %12.0f%s\n", side, list, med[side],
				sprintf("[%.4g %.4g]", cut(v, n, 1), cut(v, n, 3)), won[side], cut(w, n, 2), rel
		}
	}
}' "$tmp/results"
