#!/bin/sh
# Mutation checks: apply each source mutation under scripts/mutants to a
# copy of the working tree (tracked and untracked files, in a temporary
# directory removed on exit; the working tree itself is never touched),
# build the test binary of the package the mutant names and run the
# tests its pattern selects. Every mutant must apply, build and make
# those tests fail; the script exits 1 if any does not.
#
# Usage: scripts/mutate.sh [mutant.patch ...]
#
# With no arguments every scripts/mutants/*.patch runs. A mutant is a
# unified diff against the tree, preceded by "#" lines that say what it
# breaks and which tests kill it, and by two header lines:
#
#   # package: ./internal/core
#   # run: ^TestOracle$
set -eu

cd "$(dirname "$0")/.."
root="$(pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

[ $# -gt 0 ] || set -- scripts/mutants/*.patch

mkdir "$tmp/tree"
git ls-files --cached --others --exclude-standard | while IFS= read -r f; do
	if [ -e "$f" ]; then printf '%s\n' "$f"; fi
done | tar -cf - -T - | tar -xf - -C "$tmp/tree"

failed=0
for m in "$@"; do
	case "$m" in
	/*) patch="$m" ;;
	*) patch="$root/$m" ;;
	esac
	name="$(basename "$m" .patch)"
	pkg="$(sed -n 's/^# package: //p' "$patch")"
	run="$(sed -n 's/^# run: //p' "$patch")"
	if [ -z "$pkg" ] || [ -z "$run" ]; then
		echo "FAIL $name: no '# package:' or '# run:' header"
		failed=$((failed + 1))
		continue
	fi
	if ! (cd "$tmp/tree" && git apply "$patch") >"$tmp/log" 2>&1; then
		echo "FAIL $name: does not apply"
		cat "$tmp/log"
		failed=$((failed + 1))
		continue
	fi
	if ! (cd "$tmp/tree" && go test -c -o "$tmp/mutant.test" "$pkg") >"$tmp/log" 2>&1; then
		echo "FAIL $name: does not build"
		cat "$tmp/log"
		failed=$((failed + 1))
	elif (cd "$tmp/tree/$pkg" && "$tmp/mutant.test" -test.run "$run" -test.timeout 10m) >"$tmp/log" 2>&1; then
		echo "FAIL $name: survived $pkg -run '$run'"
		failed=$((failed + 1))
	else
		echo "killed $name: $pkg -run '$run'"
	fi
	(cd "$tmp/tree" && git apply -R "$patch")
done
if [ "$failed" -gt 0 ]; then
	echo "mutate.sh: $failed of $# mutants not killed" >&2
	exit 1
fi
echo "mutate.sh: all $# mutants killed"
