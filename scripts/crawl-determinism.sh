#!/usr/bin/env bash
# crawl-determinism checks the surfacer's contract that a surfacing pass
# does not depend on the worker count: deepcrawl's output with
# -workers 1 and -workers 4 must be byte-identical once the header's
# "N workers" is normalized. It checks a fault-free crawl and one with
# fault injection armed; the second prints the per-site outcome table
# (attempts, retries, timeouts), so every site's traffic ledger is
# compared too. Both runs must exit 0. Last, it holds the bulk build
# to the same contract: `deepcrawl -bulk 20000 -out DIR` on 1 and on 4
# workers must write byte-identical snapshot directories (diff -r), with
# no *.tmp left behind.
#
# Usage: scripts/crawl-determinism.sh. `make chaos` and the CI
# chaos-smoke job run it.
set -euo pipefail

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/deepcrawl" ./cmd/deepcrawl

check() {
	for w in 1 4; do
		"$work/deepcrawl" "$@" -workers "$w" | sed 's/, [0-9]* workers,/, N workers,/' >"$work/out-$w"
	done
	if ! diff -u "$work/out-1" "$work/out-4"; then
		echo "crawl-determinism: deepcrawl $* differs between -workers 1 and -workers 4" >&2
		exit 1
	fi
	echo "crawl-determinism: deepcrawl $* is identical on 1 and 4 workers"
}

check -rows 100
check -rows 100 -chaos -chaosseed 7

for w in 1 4; do
	"$work/deepcrawl" -bulk 20000 -out "$work/bulk-$w" -workers "$w" >/dev/null
done
if ! diff -r "$work/bulk-1" "$work/bulk-4"; then
	echo "crawl-determinism: deepcrawl -bulk 20000 writes different snapshots on 1 and 4 workers" >&2
	exit 1
fi
if compgen -G "$work/bulk-*/*.tmp" >/dev/null; then
	echo "crawl-determinism: deepcrawl -bulk 20000 left temp files behind" >&2
	exit 1
fi
echo "crawl-determinism: deepcrawl -bulk 20000 writes identical snapshots on 1 and 4 workers"
