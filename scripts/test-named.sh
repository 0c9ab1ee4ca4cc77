#!/usr/bin/env bash
# Run named tests and require that each one actually ran and passed.
#
#   scripts/test-named.sh 'TestA|TestB|TestC/Sub' [go test flags...] <packages>
#
# `go test -run <regex>` exits 0 when the regex matches nothing ("no tests to
# run"), so a renamed test silently drops out of a CI job that selects it by
# name. This wrapper fails unless every |-separated name in the pattern
# reports a "--- PASS": a top-level one for a plain name, an indented one for
# a Parent/Sub subtest name.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern=$1
shift
status=0
out=$(go test -run "$pattern" -v "$@" 2>&1) || status=$?
echo "$out"
[ "$status" -eq 0 ] || exit "$status"
for name in ${pattern//|/ }; do
	want="^--- PASS: ${name}"
	[[ $name == */* ]] && want="^ +--- PASS: ${name} "
	if ! grep -qE "$want" <<<"$out"; then
		echo "test-named: ${name} did not run (renamed or deleted?)" >&2
		exit 1
	fi
done
