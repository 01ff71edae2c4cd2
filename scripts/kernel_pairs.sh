#!/usr/bin/env bash
# Compares the kernel of a revision with the working tree's in process:
# builds the internal/core test binary of each, runs BenchmarkKernelStep
# (one op = one window of cycles on each of bench/'s three kernel machines)
# in alternating pairs, and prints per machine the ns/op median and
# quartiles of each side, the change of the medians, the median of the
# per-pair changes (head/base - 1 within each pair, which cancels the host's
# drift between pairs that swamps the unpaired medians), and the pairs the
# working tree won.
#
#   bash scripts/kernel_pairs.sh <rev> [pairs] [benchtime]
#   bash scripts/kernel_pairs.sh HEAD~1 10 20x
#
# pairs defaults to 5 and benchtime to 20x. The revision is extracted with
# git archive; it, the binaries and the raw output live in a temporary
# directory that is removed on exit, so nothing is written to the checkout.
set -euo pipefail

rev=${1:?usage: kernel_pairs.sh <rev> [pairs] [benchtime]}
pairs=${2:-5}
benchtime=${3:-20x}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"
go test -C "$tmp/base" -c -o "$tmp/base.test" ./internal/core/
go test -C "$root" -c -o "$tmp/head.test" ./internal/core/

# run SIDE PAIR appends "side pair machine ns/op" lines to the results.
run() {
	"$tmp/$1.test" -test.run '^$' -test.bench KernelStep -test.benchtime "$benchtime" |
		awk -v side="$1" -v pair="$2" '/^BenchmarkKernelStep\// {
			name = $1
			sub(/^BenchmarkKernelStep\//, "", name)
			sub(/-[0-9]+$/, "", name)
			for (i = 2; i <= NF; i++) if ($i == "ns/op") print side, pair, name, $(i - 1)
		}' >>"$tmp/results"
}
for i in $(seq 1 "$pairs"); do
	# Alternate which side runs first, so drift does not favour one.
	if ((i % 2)); then
		run base "$i"
		run head "$i"
	else
		run head "$i"
		run base "$i"
	fi
done

echo "kernel_pairs: $rev (base) vs working tree (head), $pairs pair(s) at -benchtime $benchtime, ms per op"
awk '
function sortv(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function q(a, n, p,    x, k) {
	x = 1 + (n - 1) * p
	k = int(x)
	return k >= n ? a[n] : a[k] + (x - k) * (a[k + 1] - a[k])
}
{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++m] = $3 } if ($2 > np) np = $2 }
END {
	printf "%-20s %-26s %-26s %8s %8s %6s\n", "machine", "base median (q1-q3)", "head median (q1-q3)", "change", "paired", "wins"
	for (k = 1; k <= m; k++) {
		name = order[k]; n = 0; wins = 0
		for (p = 1; p <= np; p++) {
			if (!(("base", p, name) in v) || !(("head", p, name) in v)) continue
			n++; b[n] = v["base", p, name]; h[n] = v["head", p, name]; r[n] = h[n] / b[n]
			if (h[n] < b[n]) wins++
		}
		sortv(b, n); sortv(h, n); sortv(r, n)
		mb = q(b, n, 0.5); mh = q(h, n, 0.5)
		printf "%-20s %7.3f (%7.3f-%7.3f)  %7.3f (%7.3f-%7.3f)  %+7.1f%% %+7.1f%% %3d/%d\n", name,
			mb / 1e6, q(b, n, 0.25) / 1e6, q(b, n, 0.75) / 1e6,
			mh / 1e6, q(h, n, 0.25) / 1e6, q(h, n, 0.75) / 1e6, 100 * (mh - mb) / mb, 100 * (q(r, n, 0.5) - 1), wins, n
	}
}' "$tmp/results"
