#!/usr/bin/env bash
# serve-smoke checks that deepsearch refuses to start without a
# snapshot and deepcrawl refuses a bulk build without a directory, then
# boots the real server twice and checks the status of a few requests
# against each boot:
#
#   0. deepsearch with no -snapshot exits 2, and so does deepcrawl
#      -bulk with no -out;
#   1. -snapshot of a `deepcrawl -sites 1 -rows 120 -out` directory,
#      which has a tables segment: /healthz comes up, /v1/search,
#      /v1/semantics/synonyms and the HTML page (annotated) answer 200;
#      then `deepcrawl -refresh` rewrites the directory, reporting k/N
#      sites changed with 0 < k < N — so the refresh both re-surfaces
#      sites and carries the loaded documents of unchanged ones over —
#      and POST /v1/admin/reload answers 200 with a generation other
#      than the one /healthz reported before;
#   2. -snapshot of a `deepcrawl -bulk 2000 -out` directory, which has
#      no tables segment: /v1/search answers 200 and
#      /v1/semantics/values answers the 404 JSON envelope.
#
# On each snapshot one /v1/search carries a predicate on an attribute
# the world annotates (make on the surfaced used-car sites, price on
# the bulk used-car records) and must answer 200 with a nonzero total:
# the annotation tables a loaded columns segment installed, read
# through the real binary. Any other status, or no hit, fails the
# script. Usage: scripts/serve-smoke.sh [ADDR]
# (default 127.0.0.1:18080). `make serve-smoke` and the CI serve-smoke
# job run it.
set -euo pipefail

addr="${1:-127.0.0.1:18080}"
work="$(mktemp -d)"
server=""
cleanup() {
	if [ -n "$server" ]; then
		kill "$server" 2>/dev/null || true
		wait "$server" 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/deepsearch" ./cmd/deepsearch
go build -o "$work/deepcrawl" ./cmd/deepcrawl

# boot starts deepsearch with the given flags and waits for /healthz.
boot() {
	"$work/deepsearch" -addr "$addr" "$@" >"$work/server.log" 2>&1 &
	server=$!
	for _ in $(seq 1 300); do
		if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
			return 0
		fi
		if ! kill -0 "$server" 2>/dev/null; then
			break
		fi
		sleep 0.2
	done
	echo "serve-smoke: deepsearch $* never answered /healthz" >&2
	cat "$work/server.log" >&2
	exit 1
}

# stop shuts the running server down gracefully.
stop() {
	kill -TERM "$server"
	wait "$server"
	server=""
}

# expect checks that METHOD (default GET) path answers status; a 404
# must also carry the shared JSON error envelope.
expect() {
	local status="$1" path="$2" method="${3:-GET}" got
	got="$(curl -sS -X "$method" -o "$work/body" -w '%{http_code}' "http://$addr$path")"
	if [ "$got" != "$status" ]; then
		echo "serve-smoke: $method $path = $got, want $status" >&2
		cat "$work/body" >&2
		exit 1
	fi
	if [ "$status" = 404 ] && ! grep -q '"code":"not_found"' "$work/body"; then
		echo "serve-smoke: $method $path = 404 without the error envelope" >&2
		cat "$work/body" >&2
		exit 1
	fi
	echo "ok  $method $path → $got"
}

# expect_hits checks that a GET of path answers 200 with a nonzero
# "total".
expect_hits() {
	local path="$1" total
	expect 200 "$path"
	total="$(grep -o '"total":[0-9]*' "$work/body" | cut -d: -f2)"
	if [ -z "$total" ] || [ "$total" = 0 ]; then
		echo "serve-smoke: GET $path answered no hits" >&2
		cat "$work/body" >&2
		exit 1
	fi
	echo "ok  GET $path → total $total"
}

# generation prints the generation field of the last response body.
generation() {
	grep -o '"generation":[0-9]*' "$work/body" | cut -d: -f2
}

echo "== no -snapshot"
code=0
timeout 10 "$work/deepsearch" -addr "$addr" >"$work/server.log" 2>&1 || code=$?
if [ "$code" != 2 ]; then
	echo "serve-smoke: deepsearch without -snapshot exited $code, want 2" >&2
	cat "$work/server.log" >&2
	exit 1
fi
echo "ok  deepsearch without -snapshot → exit 2"
code=0
"$work/deepcrawl" -bulk 100 >"$work/crawl.log" 2>&1 || code=$?
if [ "$code" != 2 ]; then
	echo "serve-smoke: deepcrawl -bulk without -out exited $code, want 2" >&2
	cat "$work/crawl.log" >&2
	exit 1
fi
echo "ok  deepcrawl -bulk without -out → exit 2"

echo "== -snapshot of a surfaced world"
"$work/deepcrawl" -sites 1 -rows 120 -out "$work/world" >/dev/null
boot -snapshot "$work/world"
expect 200 '/v1/search?q=used+ford'
expect_hits '/v1/search?q=used+ford&filter=make:ford'
expect 200 '/v1/semantics/synonyms?attr=make'
expect 200 '/?q=used+ford&annotated=true'
expect 200 '/healthz'
before="$(generation)"
"$work/deepcrawl" -sites 1 -rows 120 -refresh "$work/world" >"$work/refresh.log"
changed="$(grep -o 'refresh: [0-9]*/[0-9]* sites changed' "$work/refresh.log" | grep -o '[0-9]*/[0-9]*')"
k="${changed%/*}" n="${changed#*/}"
if [ -z "$changed" ] || [ "$k" -le 0 ] || [ "$k" -ge "$n" ]; then
	echo "serve-smoke: deepcrawl -refresh changed '$changed' sites, want some but not all" >&2
	cat "$work/refresh.log" >&2
	exit 1
fi
echo "ok  deepcrawl -refresh: $k/$n sites changed"
expect 200 '/v1/admin/reload' POST
after="$(generation)"
if [ -z "$before" ] || [ -z "$after" ] || [ "$before" = "$after" ]; then
	echo "serve-smoke: reload after deepcrawl -refresh moved generation '$before' to '$after'" >&2
	exit 1
fi
echo "ok  deepcrawl -refresh + reload: generation $before → $after"
stop

echo "== -snapshot of a bulk build"
"$work/deepcrawl" -bulk 2000 -out "$work/snap" >/dev/null
boot -snapshot "$work/snap"
expect 200 '/v1/search?q=used+ford'
expect_hits '/v1/search?q=used+ford&filter=price%3C10000'
expect 404 '/v1/semantics/values?attr=city'
stop
