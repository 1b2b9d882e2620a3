# Local mirror of the CI gates (.github/workflows/ci.yml), so every
# check a PR will face is reproducible with one command before pushing.
GO ?= go

# Lint-tool pins, the single source of truth shared with the CI lint
# job (which runs these targets rather than restating the versions).
# Bump deliberately; @latest made the lint gate non-reproducible.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: verify fmt vet build test bench bench-smoke bench-load bench-save bench-scan bench-match serve-smoke fuzz lint deepvet staticcheck govulncheck chaos bulk ingest-full lines

# verify = the CI `test` job: gofmt, vet, build, race-enabled tests.
verify: fmt vet build test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test and subtest execution order, so hidden
# inter-test state dependencies fail loudly instead of riding on
# declaration order. The seed is printed on failure; reproduce with
# `go test -race -shuffle=<seed> <pkg>`. Then three kinds of test run
# ten more times, since a race shows only when the goroutines
# interleave: the frozen-reader test (index's TestConcurrentAddSearch:
# readers scan one frozen index while its builder commits, so a write
# the builder makes in place instead of copying first races with a
# scan), api's stats counters, and the Load tests (Load's three parts —
# rows, annotation tables, postings — install into one builder
# concurrently). The step names exactly the packages with a test the
# pattern matches: index, engine, surface (its Open-then-Refresh test)
# and api.
test:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -race -count=10 -run 'Atomic|^TestLoad|^TestConcurrentAddSearch$$' ./internal/index ./internal/engine ./internal/surface ./internal/api

# bench = deepbench, the repository's one benchmark (bench/README.md,
# BENCHMARK.json): every workload, untraced then traced, results under
# bench/out/. bench-smoke = the CI bench-smoke job: the same program on
# a 3000-document corpus, a second per workload, untraced then traced
# (the traced run replays the old step sequence of Load until ROADMAP
# item 11 — its Annotate loop runs over DocsSegment.Anns, which is
# empty now that annotations live in the columns segment, so
# index.annotate_s reads about 0 — and the request layer by layer) — it
# exercises every path and checks every answer, and measures nothing;
# it ends with one iteration each of bench-load, bench-save, bench-scan
# and bench-match.
bench:
	$(GO) run ./bench

bench-smoke:
	@set -e; for w in keyword-miss structured-miss cached-zipf; do \
		$(GO) run ./bench -smoke --workload $$w; \
		$(GO) run ./bench -smoke --trace 1 --seconds 1 --workload $$w; \
	done
	$(MAKE) bench-load BENCHTIME=1x
	$(MAKE) bench-save BENCHTIME=1x
	$(MAKE) bench-scan BENCHTIME=1x
	$(MAKE) bench-match BENCHTIME=1x

# bench-load = engine.Load of a 50k-document bulkgen snapshot, built
# once: ns/op, cpu-ms/op (user plus system time: Load's jobs run
# concurrently, so wall time hides work that moves between them), B/op
# and allocs/op (BenchmarkLoad in internal/engine).
BENCHTIME ?= 10x
bench-load:
	$(GO) test -run '^$$' -bench '^BenchmarkLoad$$' -benchtime=$(BENCHTIME) ./internal/engine

# bench-save = engine.Engine.Save of that 50k-document snapshot, loaded
# once: ns/op, cpu-ms/op (user plus system time: Save encodes postings
# segments concurrently), B/op and allocs/op (BenchmarkSave in
# internal/engine).
bench-save:
	$(GO) test -run '^$$' -bench '^BenchmarkSave$$' -benchtime=$(BENCHTIME) ./internal/engine

# bench-scan = TopK's BM25 scan over a synthetic 200k-document index,
# built once, for a fixed set of queries: ns/posting (BenchmarkScan in
# internal/index).
bench-scan:
	$(GO) test -run '^$$' -bench '^BenchmarkScan$$' -benchtime=$(BENCHTIME) ./internal/index

# bench-match = Bound.Match over a synthetic 50k-document index whose
# annotation tables were installed as a load installs them, for an
# equality, a one-column numeric bound and a bound read from two
# type-compatible columns — judged document by document — and for a
# bound whose schemas plan to admit all and one whose schemas plan to
# reject all: ns/candidate (BenchmarkBoundMatch in internal/query).
bench-match:
	$(GO) test -run '^$$' -bench '^BenchmarkBoundMatch$$' -benchtime=$(BENCHTIME) ./internal/query

# serve-smoke = the CI serve-smoke job: checks that deepsearch without
# -snapshot and deepcrawl -bulk without -out exit 2, then boots the
# real binary on a deepcrawl -out snapshot and on a bulk-built one, and
# checks the status of /v1/search (plain, and with a predicate on an
# annotated attribute that must match, which reads the loaded columns
# segment), /v1/semantics and the HTML page, and that a reload after
# deepcrawl -refresh serves a new generation (scripts/serve-smoke.sh).
serve-smoke:
	./scripts/serve-smoke.sh

# bulk = generate a 100k-record world (internal/bulkgen), run the
# memory-bounded spill-to-disk snapshot build and Load-verify the
# result; ingest-full is the same at 1M rows (minutes of wall clock).
# They leave a snapshot to serve (`deepsearch -snapshot $(BULK_DIR)`);
# the build's measured throughput and memory are deepbench metrics.
BULK_DIR ?= /tmp/deepweb-bulk
bulk:
	$(GO) run ./cmd/deepcrawl -bulk 100000 -out $(BULK_DIR)

ingest-full:
	$(GO) run ./cmd/deepcrawl -bulk 1000000 -out $(BULK_DIR)

# chaos = the CI chaos-smoke gate: the convergence property (a chaos
# surface plus bounded refreshes equals a fault-free corpus bit for
# bit) under the race detector, then a deepcrawl pass with fault
# injection armed — which must finish with exit 0: every injected
# fault is transient, so nothing may be classified permanent — then
# deepcrawl with and without fault injection on 1 and 4 workers, whose
# outputs (the per-site outcome table included) must be byte-identical
# (scripts/crawl-determinism.sh).
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/surface
	$(GO) run ./cmd/deepcrawl -sites 1 -rows 60 -chaos -chaosseed 7
	./scripts/crawl-determinism.sh

# fuzz = the CI fuzz-smoke job: differential tokenizer fuzzing,
# arbitrary bodies through every snapshot segment decoder, arbitrary
# strings through the filter DSL (Parse/String round trip, Extract,
# Key), arbitrary pages through the HTML parser and extractors, the
# /v1/search append encoder against encoding/json, the index's
# host-column extractor against url.Parse, then the filter's bound
# path against Matcher.Match over fuzzed annotations. A new
# interesting input is minimized once (-fuzzminimizetime 1x), not for
# the default 60 s, which could stall a 30 s pass after its first
# seconds.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/textutil
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzQueryParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzHTMLParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/htmlx
	$(GO) test -run '^$$' -fuzz '^FuzzSearchBody$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/api
	$(GO) test -run '^$$' -fuzz '^FuzzHostOf$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzRowHosts$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzBoundMatchesReference$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x ./internal/query

# lint = the CI lint job: the project's own analyzers first (no
# install, works offline), then the pinned external tools (network
# needed the first time; pinned versions make the module cache and
# CI's cache reusable across runs).
lint: deepvet staticcheck govulncheck

# deepvet = the four project-invariant analyzers (internal/analysis)
# mounted by cmd/deepvet: clockinject, envelope, ctxflow, errcmp. Zero
# external dependencies — this is the one lint gate that runs anywhere
# the repo builds.
deepvet:
	$(GO) run ./cmd/deepvet ./...

staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	staticcheck ./...

govulncheck:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	govulncheck ./...

# lines = the size report: how many lines of non-test Go the program is,
# outside bench/ and testdata/. A report, not a gate.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -exec cat {} + | wc -l
