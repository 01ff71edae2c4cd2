#!/usr/bin/env bash
# Prints the Go line counts of internal/ and cmd/: non-test lines (*.go but
# *_test.go) and test lines (*_test.go), per package directory and in total.
# Lines are counted as `cat FILES | wc -l`, the way ROADMAP and CHANGES
# quote them. It reads the working tree and writes nothing.
#
#   bash scripts/loc.sh
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# lines DEPTH KIND DIR...: the lines of the Go files of KIND (test or
# non-test) under the directories, down to DEPTH levels.
lines() {
	local depth=$1 sel=(! -name '*_test.go')
	if [ "$2" = test ]; then
		sel=(-name '*_test.go')
	fi
	shift 2
	find "$@" -maxdepth "$depth" -type f -name '*.go' "${sel[@]}" -print0 | xargs -0 -r cat | wc -l
}

row() { printf '%-28s %9s %9s\n' "$@"; }

row package non-test test
for dir in $(find internal cmd -type f -name '*.go' -printf '%h\n' | sort -u); do
	row "$dir" "$(lines 1 non-test "$dir")" "$(lines 1 test "$dir")"
done
row 'total internal/ + cmd/' "$(lines 99 non-test internal cmd)" "$(lines 99 test internal cmd)"
