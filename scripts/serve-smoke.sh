#!/usr/bin/env bash
# serve-smoke boots the real deepsearch binary twice and checks the
# status of a few /v1 requests against each boot:
#
#   1. a built world (-sites 1 -rows 120): /healthz comes up, then
#      /v1/search and /v1/semantics/synonyms answer 200;
#   2. -snapshot of a `deepcrawl -bulk 2000 -out` directory, which has
#      no tables segment: /v1/search answers 200 and
#      /v1/semantics/values answers the 404 JSON envelope.
#
# Any other status fails the script. Usage: scripts/serve-smoke.sh [ADDR]
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

# expect checks that GET path answers status; a 404 must also carry
# the shared JSON error envelope.
expect() {
	local status="$1" path="$2" got
	got="$(curl -sS -o "$work/body" -w '%{http_code}' "http://$addr$path")"
	if [ "$got" != "$status" ]; then
		echo "serve-smoke: GET $path = $got, want $status" >&2
		cat "$work/body" >&2
		exit 1
	fi
	if [ "$status" = 404 ] && ! grep -q '"code":"not_found"' "$work/body"; then
		echo "serve-smoke: GET $path = 404 without the error envelope" >&2
		cat "$work/body" >&2
		exit 1
	fi
	echo "ok  GET $path → $got"
}

echo "== built world"
boot -sites 1 -rows 120
expect 200 '/v1/search?q=used+ford'
expect 200 '/v1/semantics/synonyms?attr=make'
stop

echo "== -snapshot of a bulk build"
"$work/deepcrawl" -bulk 2000 -out "$work/snap" >/dev/null
boot -snapshot "$work/snap"
expect 200 '/v1/search?q=used+ford'
expect 404 '/v1/semantics/values?attr=city'
stop
