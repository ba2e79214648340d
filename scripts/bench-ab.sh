#!/usr/bin/env bash
# Paired A/B run of the repository benchmark: the tree at a base revision
# against the working tree, on one workload or on all of them.
#
#   bash scripts/bench-ab.sh <base-rev> <workload|all> [pairs]
#
# The workload "all" runs every workload BENCHMARK.json lists, one after
# the other, and prints one summary table per workload.
#
# Run from the repository root (or via `make bench-ab`). The base revision
# is exported with `git archive` into a temporary directory, which is
# removed on exit. Pair i runs `bench/run.sh` on both trees with seed i at
# the run length BENCHMARK.json declares, the base first in odd pairs and
# the working tree first in even ones, so a drift in host speed during the
# run does not favour either side. Each tree builds its own copy of the
# driver from its own sources.
#
# For every end-to-end metric BENCHMARK.json declares, the summary gives
# each side's median and quartiles, the base/change ratio of the medians
# (above 1 when the working tree is faster or smaller), the number of
# pairs the working tree won and the metric's bound; every such metric is
# lower-is-better, and ties count for neither side. A row whose change
# median exceeds the base median by more than the bound (a fraction of
# the base median) is marked REGRESSED. It exits non-zero if a run
# fails, an op fails, the two trees print different digests for one seed
# on any workload, or any row is REGRESSED; against the merge base with
# the workload "all", that is the repository's perf gate. It refuses to
# start (exit 2) unless it reads exactly one bound per end-to-end metric
# from BENCHMARK.json, so a reformatted file cannot switch the gate off.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
	echo "usage: $0 <base-rev> <workload|all> [pairs]" >&2
	exit 2
fi
base_rev=$1 pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
run_seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
mapfile -t metrics < <(sed -n '/"end_to_end"/,/"per_layer"/s/^ *"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
mapfile -t bounds < <(sed -n '/"end_to_end"/,/"per_layer"/s/^ *"bound": *\([0-9][0-9.eE+-]*\).*/\1/p' BENCHMARK.json)
if ((${#metrics[@]} == 0 || ${#bounds[@]} != ${#metrics[@]})); then
	echo "bench-ab: read ${#bounds[@]} bounds for ${#metrics[@]} end-to-end metrics from BENCHMARK.json" >&2
	exit 2
fi
workloads=$2
if [[ $workloads == all ]]; then
	workloads=$(sed -n '/"workloads"/,/"end_to_end"/s/^ *"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
fi
if [[ -z $workloads ]]; then
	echo "bench-ab: read no workloads from BENCHMARK.json" >&2
	exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base_rev" | tar -x -C "$tmp/base"

# run <side> <tree> <seed>: one benchmark run of $workload, its stdout
# kept as $tmp/<workload>-<side>-<seed>.out.
run() {
	local out="$tmp/$workload-$1-$3"
	if ! (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" \
		--seconds "$run_seconds" --trace 0) >"$out.out" 2>"$out.err"; then
		echo "bench-ab: $1 run of $workload at seed $3 failed:" >&2
		cat "$out.err" >&2
		exit 1
	fi
}

# field <side> <seed> <name>: the value printed for a metric or line name
# in $workload's run.
field() { awk -v n="$3" '$1 == n { print $2 }' "$tmp/$workload-$1-$2.out"; }

# values <side> <name>: field over every pair, one line per seed.
values() { for ((s = 1; s <= pairs; s++)); do field "$1" "$s" "$2"; done; }

# stats: reads one value per line and prints "median q1 q3" (linear
# interpolation between order statistics).
stats() {
	sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   h, i) {
			h = (NR - 1) * p + 1; i = int(h)
			return i >= NR ? v[NR] : v[i] + (h - i) * (v[i + 1] - v[i])
		}
		END { printf "%.4g %.4g %.4g\n", q(0.5), q(0.25), q(0.75) }'
}

# ab: the alternating pairs and the summary table for $workload.
ab() {
	for ((seed = 1; seed <= pairs; seed++)); do
		if ((seed % 2)); then
			run base "$tmp/base" "$seed"
			run change "$root" "$seed"
		else
			run change "$root" "$seed"
			run base "$tmp/base" "$seed"
		fi
		same=same
		if [[ $(field base "$seed" digest) != $(field change "$seed" digest) ]]; then
			same=DIFFERENT
			status=1
		fi
		for side in base change; do
			if [[ $(field "$side" "$seed" ops_failed) != 0 ]]; then
				echo "bench-ab: $side run of $workload at seed $seed has failed ops" >&2
				status=1
			fi
		done
		printf '%s pair %d: pass_s base %s change %s, digest %s\n' "$workload" "$seed" \
			"$(field base "$seed" pass_s)" "$(field change "$seed" pass_s)" "$same"
	done

	echo
	echo "$workload: $pairs pairs, ${run_seconds} s runs, base $base_rev against the working tree"
	printf '%-12s %-28s %-28s %-12s %-12s %s\n' metric "base median [q1, q3]" "change median [q1, q3]" \
		base/change "change wins" bound
	for i in "${!metrics[@]}"; do
		m=${metrics[i]}
		read -r bm bq1 bq3 < <(values base "$m" | stats)
		read -r cm cq1 cq3 < <(values change "$m" | stats)
		wins=$(paste <(values base "$m") <(values change "$m") | awk '$2 < $1 { w++ } END { print w + 0 }')
		read -r ratio bound verdict < <(awk -v b="$bm" -v c="$cm" -v x="${bounds[i]}" 'BEGIN {
			printf "%.3f +%g%% %s\n", b / c, 100 * x, (c > b * (1 + x)) ? "REGRESSED" : "" }')
		if [[ -n $verdict ]]; then
			status=1
		fi
		printf '%-12s %-28s %-28s %-12s %-12s %-6s %s\n' "$m" "$bm [$bq1, $bq3]" "$cm [$cq1, $cq3]" \
			"$ratio" "$wins/$pairs" "$bound" "$verdict"
	done
}

status=0
for workload in $workloads; do
	ab
done
if ((status)); then
	echo "bench-ab: digests differ, ops failed or a metric regressed past its bound (see above)" >&2
fi
exit "$status"
