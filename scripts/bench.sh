#!/bin/sh
# Regenerate the pinned benchmark files:
#
#   BENCH_derive.json    every Derive* benchmark (the engine comparison
#                        in internal/core plus the trace-level
#                        derivation benchmarks at the repo root)
#   BENCH_segstore.json  the Segstore* benchmarks (state compaction,
#                        and store reopen vs trace re-import)
#   BENCH_ingest.json    trace ingest: BenchmarkImport (decode plus
#                        import) and BenchmarkSec72TraceStats (decode
#                        alone)
#   BENCH_serve.json     BenchmarkServeRead: one request of each
#                        lockdocd read route on the serve-read input
#
# Every benchmark runs five times (go test -count 5). A file's
# "benchmarks" array holds one line per benchmark in go test's form,
# each of its numbers (iterations, ns/op, B/op, allocs/op) the median
# of the five runs; the "runs" array keeps the raw lines of each, which
# benchstat reads. Both sit next to machine metadata and "count": 5.
#
# Usage: scripts/bench.sh [benchtime] [derive|segstore|ingest|serve ...]
#
# benchtime defaults to 2x (use e.g. 5s for steadier numbers on quiet
# machines). The names choose the pins to rewrite, so a change to one
# layer re-pins only its own file; with no names all four are pinned.
#
#   scripts/bench.sh 200x serve      # BENCH_serve.json alone
set -eu

cd "$(dirname "$0")/.."
count=5
benchtime=2x
case "${1:-}" in
derive | segstore | ingest | serve | "") ;;
*)
	benchtime="$1"
	shift
	;;
esac
[ $# -gt 0 ] || set -- derive segstore ingest serve
for name in "$@"; do
	case "$name" in
	derive | segstore | ingest | serve) ;;
	*)
		echo "bench.sh: unknown pin '$name': want derive, segstore, ingest or serve" >&2
		exit 2
		;;
	esac
done
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

ncpu="$(nproc)"
gomaxprocs="${GOMAXPROCS:-$ncpu}"

# The parallel-derivation numbers are the point of BENCH_derive.json;
# on a single-CPU box every workers>1 row is a lie (the sweep degrades
# to workers=1 and "speedup" is scheduler noise). Refuse to pin such
# numbers unless the caller explicitly owns the caveat.
if [ "$ncpu" -le 1 ] && [ -z "${LOCKDOC_BENCH_ALLOW_SINGLE_CPU:-}" ]; then
	echo "bench.sh: refusing to pin benchmark results on a ${ncpu}-CPU box:" >&2
	echo "bench.sh: parallel scaling cannot be measured here." >&2
	echo "bench.sh: set LOCKDOC_BENCH_ALLOW_SINGLE_CPU=1 to pin anyway" >&2
	echo "bench.sh: (the JSON records ncpu/gomaxprocs so readers can judge)." >&2
	exit 1
fi

# pin <out> <bench-regexp> <packages...>: run the benchmarks and write
# the JSON pin file.
pin() {
	out="$1"
	pattern="$2"
	shift 2

	go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" "$@" | tee "$tmp"

	{
		printf '{\n'
		printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
		printf '  "go": "%s",\n' "$(go env GOVERSION)"
		printf '  "benchtime": "%s",\n' "$benchtime"
		printf '  "count": %s,\n' "$count"
		printf '  "goos": "%s",\n' "$(go env GOOS)"
		printf '  "goarch": "%s",\n' "$(go env GOARCH)"
		printf '  "ncpu": %s,\n' "$ncpu"
		printf '  "gomaxprocs": %s,\n' "$gomaxprocs"
		printf '  "benchmarks": [\n'
		# One line per benchmark, in the order go test ran them: the
		# name, then the median of each numeric column over the runs
		# (an odd count, so the median is one run's value) with its unit.
		awk '
		function quote(s) {
			gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); gsub(/\t/, "\\t", s)
			return "\"" s "\""
		}
		/^Benchmark/ {
			if (!($1 in runs)) order[++nb] = $1
			k = ++runs[$1]
			nf[$1] = NF
			for (i = 2; i <= NF; i++) col[$1, i, k] = $i
		}
		END {
			for (b = 1; b <= nb; b++) {
				name = order[b]
				n = runs[name]
				line = name
				for (i = 2; i <= nf[name]; i++) {
					if (i > 2 && i % 2 == 0) { # a unit
						line = line " " col[name, i, 1]
						continue
					}
					for (k = 1; k <= n; k++) v[k] = col[name, i, k]
					for (k = 2; k <= n; k++) { # insertion sort, numeric
						x = v[k]
						for (j = k - 1; j >= 1 && v[j] + 0 > x + 0; j--) v[j + 1] = v[j]
						v[j + 1] = x
					}
					line = line "\t" v[int((n + 1) / 2)]
				}
				if (b > 1) printf ",\n"
				printf "    %s", quote(line)
			}
			printf "\n"
		}' "$tmp"
		printf '  ],\n'
		printf '  "runs": [\n'
		# The raw "BenchmarkX  N  ns/op ..." lines of every run, for
		# benchstat: jq -r '.runs[]' BENCH_derive.json > new.txt
		awk '/^Benchmark/ {
			gsub(/\\/, "\\\\"); gsub(/"/, "\\\""); gsub(/\t/, "\\t")
			if (n++) printf ",\n"
			printf "    \"%s\"", $0
		} END { printf "\n" }' "$tmp"
		printf '  ]\n'
		printf '}\n'
	} >"$out"

	echo "wrote $out"
}

for name in "$@"; do
	case "$name" in
	derive) pin BENCH_derive.json Derive . ./internal/core/ ;;
	segstore) pin BENCH_segstore.json Segstore . ;;
	ingest) pin BENCH_ingest.json 'BenchmarkImport$|BenchmarkSec72TraceStats$' . ;;
	serve) pin BENCH_serve.json 'BenchmarkServeRead' . ;;
	esac
done
