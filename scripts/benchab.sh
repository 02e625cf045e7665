#!/usr/bin/env bash
# Same-session A/B of the root benchmarks: the working tree against a base
# revision, on this host, in alternating rounds.
#
#   scripts/benchab.sh <rev>
#
# It checks <rev> out with `git archive` (offline, and nothing is
# registered in the repository, so an interrupted run leaves nothing to
# prune), builds the root package's test binary there and in the working
# tree, and runs 10 rounds of the benchmarks at 500ms. A round runs each
# top-level benchmark on both sides back to back, alternating which side
# goes first, so the two halves of a pair run seconds apart, not a whole
# pass apart. `benchjson -ab` then pairs the rounds and prints, per
# benchmark, the median change/base ns/op ratio, the pairs the change won,
# the ratios' IQR and each side's mean allocs/op. The exit is non-zero if
# a benchmark's median ratio exceeds 1.08 with the change slower in at
# least nine pairs of ten, or if the change's mean allocs/op exceed the
# base's by half an allocation or more. The settings come from runs of
# two identical trees on a 2-vCPU guest, 10 each at 100ms and at 500ms:
# every run passed, and the highest median ratio of a benchmark slower in
# nine pairs of ten was 1.073. The check is not yet sensitive enough: a
# 15% slowdown injected into BenchmarkServerTick failed 8 runs of 10 at
# 500ms (6 of 10 at 100ms).
#
# Environment:
#   BENCHAB_PATTERN  benchmark regexp [the Makefile's BENCH_JSON_PATTERN]
#   BENCHAB_KEEP     a directory to copy both sides' raw output into
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: scripts/benchab.sh <rev>" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify "$1^{commit}")
rounds=10
benchtime=500ms
threshold=0.08
pattern=${BENCHAB_PATTERN:-$(make -s --no-print-directory \
	--eval 'benchab-pattern: ; @printf "%s\n" $(BENCH_JSON_PATTERN)' benchab-pattern)}

work=$(mktemp -d "${TMPDIR:-/tmp}/benchab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"
# -trimpath keeps the checkouts' paths out of the binaries, so identical
# sources build identical binaries and code layout cannot differ.
(cd "$work/base" && go test -c -trimpath -o "$work/base.test" .)
go test -c -trimpath -o "$work/head.test" .

# Each binary runs in its own package directory, as `go test` runs it.
dir() { if [ "$1" = base ]; then echo "$work/base"; else echo "$root"; fi; }
# The top-level benchmarks either side has that match the pattern.
names=$(for side in base head; do
	(cd "$(dir $side)" && "$work/$side.test" -test.list "$pattern") | grep '^Benchmark' || true
done | sort -u)
# run side name: one benchmark (with its sub-benchmarks) on one side.
run() {
	(cd "$(dir "$1")" && "$work/$1.test" -test.run '^$' -test.bench "^$2\$" \
		-test.benchtime "$benchtime" -test.benchmem -test.timeout 10m) >>"$work/$1.out"
}
for ((i = 1; i <= rounds; i++)); do
	echo "benchab: round $i of $rounds" >&2
	for name in $names; do
		if ((i % 2)); then
			run base "$name"
			run head "$name"
		else
			run head "$name"
			run base "$name"
		fi
	done
done
if [ -n "${BENCHAB_KEEP:-}" ]; then
	mkdir -p "$BENCHAB_KEEP"
	cp "$work/base.out" "$work/head.out" "$BENCHAB_KEEP/"
fi
echo "benchab: $(git rev-parse --short "$base") -> working tree, $rounds rounds of $benchtime"
go run ./cmd/benchjson -ab "$work/base.out" -threshold "$threshold" <"$work/head.out"
