#!/usr/bin/env bash
# Paired before/after runs of one ledger workload: the protocol of the
# choosing-metrics guide §8. The parent commit is checked out into a git
# worktree under .bench_build/, its own bench/run.sh and this checkout's run
# the workload alternately (which side goes first alternates pair by pair),
# and for every end-to-end metric of BENCHMARK.json the script prints each
# side's median and quartiles, how many pairs the change won (ties count for
# neither side) and whether the medians lie further apart than the parent's
# own interquartile range — the two conditions a claimed gain has to meet.
#
#   scripts/bench_pairs.sh <workload> [pairs=10] [bench flags, e.g. -seed 2]
#
# The parent is HEAD^, or HEAD itself while the working tree holds
# uncommitted changes. It reads bench/ and BENCHMARK.json and writes only under
# .bench_build/ (the worktree is removed again on exit); -trace 0 is implied.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload=${1:?usage: scripts/bench_pairs.sh <workload> [pairs=10] [bench flags...]}
shift
pairs=10
if [[ ${1:-} =~ ^[0-9]+$ ]]; then
	pairs=$1
	shift
fi

parent_rev='HEAD^'
[[ -z $(git status --porcelain) ]] || parent_rev=HEAD
parent_dir=$PWD/.bench_build/parent
out=.bench_build/pairs/$workload
mkdir -p "$out"
: >"$out/runs.tsv"

git worktree remove --force "$parent_dir" 2>/dev/null || true
git worktree add --detach --quiet "$parent_dir" "$parent_rev"
trap 'git worktree remove --force "$parent_dir"' EXIT
echo "parent $(git rev-parse --short "$parent_rev") in .bench_build/parent, change = this checkout; $pairs pairs of $workload $*"

# run <side> <dir> <pair>: one untraced run; its metrics go to runs.tsv as
# "pair side metric value".
run() {
	local side=$1 dir=$2 pair=$3 last
	last=$(bash "$dir/bench/run.sh" -workload "$workload" -trace 0 "${@:4}" | tail -n 1)
	if [[ $last != *'"correct":true'* || $last != *'"failed":0,'* ]]; then
		echo "pair $pair, $side: wrong answers or failed operations: $last" >&2
		exit 1
	fi
	grep -o '"[a-z_0-9.]*":{"value":[^,]*' <<<"$last" |
		sed -e 's/"//g' -e 's/:{value:/ /' |
		while read -r metric value; do
			printf '%s\t%s\t%s\t%s\n' "$pair" "$side" "$metric" "$value"
		done >>"$out/runs.tsv"
}

for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then
		run parent "$parent_dir" "$p" "$@"
		run change "$PWD" "$p" "$@"
	else
		run change "$PWD" "$p" "$@"
		run parent "$parent_dir" "$p" "$@"
	fi
	echo "pair $p/$pairs done"
done

# Which way each end-to-end metric improves, from BENCHMARK.json.
tr -d ' \n' <BENCHMARK.json | sed 's/"per_layer".*//' |
	grep -o '"name":"[^"]*","unit":"[^"]*","better":"[^"]*"' |
	sed -e 's/"name":"//' -e 's/","unit":"[^"]*","better":"/\t/' -e 's/"$//' >"$out/better.tsv"

awk -F'\t' '
function quantile(a, n, q,    h, lo) {
	h = (n - 1) * q; lo = int(h)
	return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
}
function summary(side, m, s,    n, i, a) {
	n = 0
	for (i = 1; i <= pairs; i++) a[n++] = v[i, side, m]
	# insertion sort: ten values
	for (i = 1; i < n; i++) for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	s["med"] = quantile(a, n, 0.5); s["q1"] = quantile(a, n, 0.25); s["q3"] = quantile(a, n, 0.75)
}
FILENAME ~ /better/ { better[$1] = $2; order[++nm] = $1; next }
{ v[$1, $2, $3] = $4; if ($1 + 0 > pairs) pairs = $1 + 0 }
END {
	printf "%-18s %-7s %-32s %-32s %-6s %-7s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "wins", "ratio", "medians apart by more than parent IQR"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		summary("parent", m, P); summary("change", m, C)
		wins = 0
		for (i = 1; i <= pairs; i++) {
			d = v[i, "change", m] - v[i, "parent", m]
			if (better[m] == "lower") d = -d
			if (d > 0) wins++
		}
		gap = C["med"] - P["med"]; if (gap < 0) gap = -gap
		printf "%-18s %-7s %-32s %-32s %-6s %-7s %s\n", m, better[m],
			sprintf("%.4g [%.4g, %.4g]", P["med"], P["q1"], P["q3"]),
			sprintf("%.4g [%.4g, %.4g]", C["med"], C["q1"], C["q3"]),
			wins "/" pairs, (P["med"] ? sprintf("%.3f", C["med"] / P["med"]) : "-"),
			(gap > P["q3"] - P["q1"] ? "yes" : "no")
	}
}' "$out/better.tsv" "$out/runs.tsv" | tee "$out/summary.txt"
