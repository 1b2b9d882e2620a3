package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"deepweb/internal/dist"
	"deepweb/internal/engine"
	"deepweb/internal/index"
)

// mix is one workload, a traffic mix. Every workload runs the same two
// phases — restart cycles, closed-loop serving — and reports every
// end-to-end metric; they differ in what they ask and with which
// cache.
type mix struct {
	name   string
	why    string
	cache  int  // result-cache entries; 0 serves uncached, as deepsearch -cache 0 does
	slices int  // equal parts a pass is measured in; each holds the same mix of requests
	slow   bool // a request costs tens of milliseconds, so fewer are cross-checked and traced

	// inputs generates the queries from the seed and the loaded index.
	inputs func(ix *index.Index, seed int64, sz sizes) *inputs
}

var workloads = []*mix{
	{
		name:   "keyword-miss",
		why:    "distinct df-stratified keyword queries, cache off: postings scan and selection do the work; query and rescache do none",
		slices: 10, // the five query shapes alternate, so any run of them is the same mix
		inputs: func(ix *index.Index, seed int64, sz sizes) *inputs {
			pool := keywordPool(vocabulary(ix, seed, sz.vocabDocs), seed, sz.keywordN)
			return finish(pool, identity(len(pool)))
		},
	},
	{
		name:   "structured-miss",
		why:    "typed-predicate, host-restricted and annotated queries, cache off: the per-candidate filter does the work; the scan does under 5 %",
		slices: 1, // a pass runs from its cheapest query to its dearest
		slow:   true,
		inputs: func(ix *index.Index, seed int64, sz sizes) *inputs {
			pool := structuredPool(context.Background(), ix, seed, sz.structuredN)
			return finish(pool, identity(len(pool)))
		},
	},
	{
		name:   "cached-zipf",
		why:    "Zipf draws over a pool that fits the default cache: api, JSON encoding, the cache hit path and net/http do the work; index and query do none",
		cache:  4096,
		slices: 10, // independent draws
		inputs: func(ix *index.Index, seed int64, sz sizes) *inputs {
			// A tenth of the pool carries a typed predicate, so filter
			// keying stays on the hit path; each costs its scan only once,
			// in the untimed pass.
			return finish(zipfPool(seed, sz.zipfPool, 0.1), zipfSequence(seed, sz.zipfPool, sz.zipfSeq))
		},
	},
}

func workloadByName(name string) *mix {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runConfig is one run of one workload.
type runConfig struct {
	wl      *mix
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string // temporary snapshots and trace files go here
	golden  string // path of golden.json
	update  bool   // record the answers' digest there in place of checking it
}

func (c runConfig) sizes() sizes {
	if c.smoke {
		return smokeSizes
	}
	return fullSizes
}

// run is the state of one run: what it measured and what went wrong.
type run struct {
	runConfig
	sz        sizes
	log       io.Writer
	values    map[string]float64
	attempted int
	failed    int
	wrong     int // correctness failures beyond failed requests
}

func (r *run) fail(format string, args ...any) {
	r.wrong++
	fmt.Fprintf(r.log, "WRONG: "+format+"\n", args...)
}

// runWorkload performs one run and returns its result line. An error
// means the run could not be carried out; wrong answers are not errors
// but make the result incorrect.
func runWorkload(ctx context.Context, cfg runConfig, log io.Writer) (result, error) {
	r := &run{runConfig: cfg, sz: cfg.sizes(), log: log, values: map[string]float64{}}
	fmt.Fprintf(log, "== %s seed %d, %d docs, %.0f s, trace %v, %d cores\n",
		cfg.wl.name, cfg.seed, r.sz.docs, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)

	dir, err := r.restartCycles(ctx, tmp)
	if err != nil {
		return result{}, err
	}
	// The serving engine is loaded here, outside every timing: the
	// cycles above already measured loading, in fresh processes.
	e, in, loaded, err := loadMeasured(dir, cfg.wl, cfg.seed, r.sz)
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		r.values["index.heap_bytes_per_doc"] = loaded.HeapLiveMB * (1 << 20) / float64(r.sz.docs)
	}
	e.EnableResultCache(cfg.wl.cache)
	srv, err := startServer(e)
	if err != nil {
		return result{}, err
	}
	defer srv.close()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	r.serve(ctx, srv, e, in, tr)
	if cfg.trace {
		if err := r.traced(ctx, tr, srv, e, in, dir); err != nil {
			return result{}, err
		}
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	return report(log, defs, r.values, r.attempted, r.failed, r.failed == 0 && r.wrong == 0), nil
}

// restartCycles builds the snapshot and loads it in a fresh process,
// several times, and reports the medians: a restart is what a user
// waits for before the first answer. The reference kernel runs after
// every build and every load, and the cycles' timings are reported in
// quiet seconds: scaled by what the kernel should read over the median
// of what it read. It returns the last snapshot's directory. A traced
// run needs no medians and builds once.
func (r *run) restartCycles(ctx context.Context, tmp string) (string, error) {
	var buildS, loadS, setupS, heapMB, rssMB, refMS []float64
	var dir string
	var b buildInfo
	cycles := r.sz.setupReps
	if r.trace {
		cycles = 1
	}
	for i := 0; i < cycles; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return "", err
			}
		}
		dir = filepath.Join(tmp, fmt.Sprintf("snapshot-%d", i))
		var err error
		if b, err = buildSnapshot(ctx, r.seed, r.sz.docs, dir); err != nil {
			return "", err
		}
		buildS = append(buildS, b.wall.Seconds())
		refMS = append(refMS, referenceMS())
		if r.trace {
			break
		}
		l, err := loadInChild(ctx, dir, r.wl, r.seed, r.smoke)
		if err != nil {
			return "", err
		}
		refMS = append(refMS, referenceMS())
		loadS = append(loadS, l.LoadS)
		heapMB = append(heapMB, l.HeapLiveMB)
		rssMB = append(rssMB, l.RSSPeakMB)
		setupS = append(setupS, b.wall.Seconds()+l.LoadS+l.PoolsS)
		fmt.Fprintf(r.log, "cycle %d: build %.3f s, load %.3f s, inputs %.3f s, heap %.1f MB, peak rss %.1f MB\n",
			i, b.wall.Seconds(), l.LoadS, l.PoolsS, l.HeapLiveMB, l.RSSPeakMB)
	}
	docs := float64(r.sz.docs)
	if r.trace {
		r.values["engine.bulkbuild_s"] = b.wall.Seconds()
		r.values["engine.bulkbuild.peak_heap_mb"] = b.peakHeapMB
		r.values["engine.bulkbuild.postings"] = float64(b.stats.Postings)
		r.values["store.spill_runs"] = float64(b.stats.Runs)
		r.values["store.disk_bytes.docs"] = float64(b.diskDocs)
		r.values["store.disk_bytes.postings"] = float64(b.diskPost)
		r.values["host.reference_ms"] = median(refMS)
		return dir, nil
	}
	quiet := referenceQuietMS / median(refMS)
	fmt.Fprintf(r.log, "machine: reference kernel %.2f ms, %.2f when quiet: build %.3f s, load %.3f s, set-up %.3f s as measured, scaled by %.3f\n",
		median(refMS), referenceQuietMS, median(buildS), median(loadS), median(setupS), quiet)
	r.values["build_docs_per_s"] = docs / (median(buildS) * quiet)
	r.values["load_s"] = median(loadS) * quiet
	r.values["heap_live_mb"] = median(heapMB)
	r.values["rss_peak_mb"] = median(rssMB)
	r.values["disk_bytes_per_doc"] = float64(b.diskTotal) / docs
	r.values["setup_s"] = median(setupS) * quiet
	return dir, nil
}

// serve is the serving phase. The untimed first pass fills
// caches and is where every body is parsed and checked; the timed
// passes only drain bodies.
func (r *run) serve(ctx context.Context, srv *server, e *engine.Engine, in *inputs, tr *tracer) {
	clients := runtime.GOMAXPROCS(0)
	hc := newClient(clients)
	defer hc.CloseIdleConnections()
	n := len(in.seq)

	r.verify(ctx, srv, e, hc, in, clients)

	// Timed passes, every run starting them from a freshly collected heap.
	runtime.GC()
	timed := func(_, idx int) bool {
		status, _, err := fetch(ctx, hc, srv.base+in.pool[in.seq[idx]].path, false)
		return err == nil && status == http.StatusOK
	}
	if tr != nil {
		plain := timed
		timed = func(c, idx int) bool {
			start := time.Now()
			ok := plain(c, idx)
			tr.add("client.request", -1, idx, start, time.Now())
			return ok
		}
	}
	var sv serving
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sv.add(replay(ctx, n, clients, r.duration(), timed), n/r.wl.slices)
	runtime.ReadMemStats(&after)
	allocPerReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(sv.samples)
	gcCycles := float64(after.NumGC - before.NumGC)
	gcPause := float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	r.attempted += sv.samples
	r.failed += sv.failed
	if sv.failed > 0 {
		r.fail("timed passes: %d of %d requests failed", sv.failed, sv.samples)
	}
	fmt.Fprintf(r.log, "serving: %d clients, %v; p95 has %d samples beyond it\n", clients, &sv, int(float64(sv.samples)*0.05))
	if !tailSupported(sv.samples, 0.95) {
		fmt.Fprintln(r.log, "serving: too few samples for p95 to be a tail latency; run longer")
	}
	fmt.Fprintf(r.log, "runtime: %.0f B allocated per request, %.0f collections of a %d MB heap, %.1f ms paused\n",
		allocPerReq, gcCycles, after.HeapAlloc>>20, gcPause)
	// Both summaries of the slices are printed; the metrics are the
	// second (see undisturbed).
	fmt.Fprintf(r.log, "slices, median:      qps %.6g, p50 %.6g ms, p95 %.6g ms\n", median(sv.sliceQPS), median(sv.sliceP50), median(sv.sliceP95))
	fmt.Fprintf(r.log, "slices, best decile: qps %.6g, p50 %.6g ms, p95 %.6g ms\n",
		undisturbed(sv.sliceQPS, "higher"), undisturbed(sv.sliceP50, "lower"), undisturbed(sv.sliceP95, "lower"))

	if !r.trace {
		r.values["qps"] = undisturbed(sv.sliceQPS, "higher")
		r.values["lat_p50_ms"] = undisturbed(sv.sliceP50, "lower")
		r.values["lat_p95_ms"] = undisturbed(sv.sliceP95, "lower")
		r.values["alloc_bytes_per_req"] = allocPerReq
		return
	}
	r.values["runtime.gc_cycles"] = gcCycles
	r.values["runtime.gc_pause_ms"] = gcPause
	r.values["client.lat_p99_ms"] = dist.Percentile(sv.latencies, 0.99)
	r.values["client.lat_max_ms"] = dist.Percentile(sv.latencies, 1)
	r.values["client.samples"] = float64(sv.samples)
	r.values["client.fail_frac"] = float64(r.failed) / float64(r.attempted)
	if st, ok := e.CacheStats(); ok {
		r.values["rescache.hit_ratio"] = st.HitRatio()
		r.values["rescache.evictions"] = float64(st.Evictions)
		r.values["rescache.collapsed"] = float64(st.Collapsed)
		r.values["rescache.entries"] = float64(st.Entries)
	}
}

func (r *run) duration() time.Duration {
	return time.Duration(r.seconds * float64(time.Second))
}

// verify is the untimed first pass: every request of the sequence is
// sent once, its body parsed and checked, and its answer compared with
// any earlier answer to the same request, so a cache hit must equal
// the miss that filled it.
func (r *run) verify(ctx context.Context, srv *server, e *engine.Engine, hc *http.Client, in *inputs, clients int) {
	var mu sync.Mutex
	served := make([]page, len(in.pool))
	hashes := make([]uint64, len(in.pool))
	var firstErr error
	samples := replay(ctx, len(in.seq), clients, 0, func(_, idx int) bool {
		qi := int(in.seq[idx])
		status, body, err := fetch(ctx, hc, srv.base+in.pool[qi].path, true)
		var p page
		if err == nil {
			p, err = parsePage(status, body)
		}
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			h := pageHash(qi, in.pool[qi], p)
			if hashes[qi] != 0 && hashes[qi] != h {
				err = errors.New("answer differs from an earlier answer to the same query")
			}
			served[qi], hashes[qi] = p, h
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("query %d %q: %w", qi, in.pool[qi].q, err)
		}
		return err == nil
	})
	var pass serving
	pass.add(samples, len(in.seq))
	r.attempted += pass.samples
	r.failed += pass.failed
	if firstErr != nil {
		r.fail("verification pass: %d of %d answers rejected, first: %v", pass.failed, pass.samples, firstErr)
	}
	r.checkAnswers(ctx, e, in, served, digest(hashes))
}

// checkAnswers judges the verification pass's answers: against the
// recorded digest where one applies, and always against the reference
// for a sample.
func (r *run) checkAnswers(ctx context.Context, e *engine.Engine, in *inputs, served []page, got string) {
	n := r.sz.checkN
	if r.wl.slow {
		n = r.sz.checkSlowN
	}
	var asked []request
	var answers []page
	seen := make([]bool, len(in.pool))
	for _, qi := range in.seq {
		if !seen[qi] {
			seen[qi] = true
			asked = append(asked, in.pool[qi])
			answers = append(answers, served[qi])
		}
	}
	checked, wrong, first := crossCheck(ctx, e, asked, answers, n)
	if wrong > 0 {
		r.fail("%d of %d answers disagree with the reference, first: %v", wrong, checked, first)
	}
	verdict := "no golden digest for these inputs"
	g, err := readGolden(r.golden)
	switch {
	case r.update:
		if !g.applies(r.seed, r.sz.docs) {
			g = golden{GOARCH: runtime.GOARCH, Seed: r.seed, Docs: r.sz.docs, Digests: map[string]string{}}
		}
		g.Digests[r.wl.name] = got
		if err := writeJSON(r.golden, g); err != nil {
			r.fail("golden digests: %v", err)
		}
		verdict = "recorded as golden"
	case err != nil:
		r.fail("golden digests: %v", err)
	case g.applies(r.seed, r.sz.docs):
		verdict = "matches golden"
		if want := g.Digests[r.wl.name]; want != got {
			r.fail("digest %s differs from the golden %s", got, want)
			verdict = "differs from golden"
		}
	}
	fmt.Fprintf(r.log, "answers: digest %s (%s), %d of %d agree with the reference\n", got, verdict, checked-wrong, checked)
}

// traced is the single-threaded traced part of a traced run.
func (r *run) traced(ctx context.Context, tr *tracer, srv *server, e *engine.Engine, in *inputs, dir string) error {
	n := r.sz.traceN
	if r.wl.slow {
		n = r.sz.traceSlowN
	}
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	shares := layered(ctx, tr, srv, e, hc, in, n, r.values)
	fmt.Fprintf(r.log, "layered replay of %d queries\n", min(n, len(in.seq)))
	if r.wl.cache == 0 { // a cache hit spends no time below the engine
		fmt.Fprintf(r.log, "share of engine.search time: index.topk %.3f, query.match %.3f, index.annotated_topk %.3f\n",
			shares["index.topk_us"], shares["query.match_us"], shares["index.annotated_topk_us"])
	}
	// Every run restarts, so every traced run traces a restart.
	if err := tracedBuild(r.seed, r.sz, r.values); err != nil {
		return err
	}
	if err := tracedLoad(dir, r.values); err != nil {
		return err
	}
	path := filepath.Join(r.outDir, "trace-"+r.wl.name+".json")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "trace: %d spans in %s\n", len(tr.spans), path)
	return nil
}
