package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"deepweb/internal/dist"
)

// metricDef names one metric, its unit and which way is better. An
// end-to-end metric also carries the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, from the same two phases: restart cycles (build,
// fresh-process load) and closed-loop serving through /v1/search. Every
// timing carries the largest bound the contract allows: README.md
// ("Observed spread") shows this machine has slow phases, up to minutes
// long, that move all of them by 10–45 %. The serving timings are the
// best decile over slices, the restart timings are scaled by the
// reference kernel; both are there to keep those phases out.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"alloc_bytes_per_req", "B/req", "lower", 0.15},
	{"build_docs_per_s", "1/s", "higher", 0.25},
	{"load_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.02},
	{"rss_peak_mb", "MB", "lower", 0.05},
	{"disk_bytes_per_doc", "B/doc", "lower", 0.005},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced run reports, one layer per module name.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "http.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "http.self_us", Unit: "us", Better: "lower"},
	{Name: "api.serve_us", Unit: "us", Better: "lower"},
	{Name: "api.self_us", Unit: "us", Better: "lower"},
	{Name: "api.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.search_us", Unit: "us", Better: "lower"},
	{Name: "engine.self_us", Unit: "us", Better: "lower"},
	{Name: "engine.search_pred_us", Unit: "us", Better: "lower"},
	{Name: "engine.search_host_us", Unit: "us", Better: "lower"},
	{Name: "engine.search_annotated_us", Unit: "us", Better: "lower"},
	{Name: "index.topk_us", Unit: "us", Better: "lower"},
	{Name: "index.topk_head_us", Unit: "us", Better: "lower"},
	{Name: "index.topk_torso_us", Unit: "us", Better: "lower"},
	{Name: "index.topk_tail_us", Unit: "us", Better: "lower"},
	{Name: "index.postings_scanned", Unit: "count", Better: "lower"},
	{Name: "index.candidates", Unit: "count", Better: "lower"},
	{Name: "index.ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "index.annotated_topk_us", Unit: "us", Better: "lower"},
	{Name: "textutil.query_tokenize_us", Unit: "us", Better: "lower"},
	{Name: "query.extract_us", Unit: "us", Better: "lower"},
	{Name: "query.match_us", Unit: "us", Better: "lower"},
	{Name: "query.match_evals", Unit: "count", Better: "lower"},
	{Name: "query.match_ns_per_eval", Unit: "ns", Better: "lower"},
	{Name: "query.admit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rescache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rescache.hit_us", Unit: "us", Better: "lower"},
	{Name: "rescache.evictions", Unit: "count", Better: "lower"},
	{Name: "rescache.collapsed", Unit: "count", Better: "higher"},
	{Name: "rescache.entries", Unit: "count", Better: "lower"},
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bulkgen.gen_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "index.prepare_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "engine.bulkbuild_s", Unit: "s", Better: "lower"},
	{Name: "engine.bulkbuild.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "engine.bulkbuild.postings", Unit: "count", Better: "lower"},
	{Name: "store.spill_runs", Unit: "count", Better: "lower"},
	{Name: "store.read_docs_s", Unit: "s", Better: "lower"},
	{Name: "store.read_postings_s", Unit: "s", Better: "lower"},
	{Name: "index.import_docs_s", Unit: "s", Better: "lower"},
	{Name: "index.import_terms_s", Unit: "s", Better: "lower"},
	{Name: "index.annotate_s", Unit: "s", Better: "lower"},
	{Name: "engine.load_traced_s", Unit: "s", Better: "lower"},
	{Name: "engine.load.self_s", Unit: "s", Better: "lower"},
	{Name: "store.disk_bytes.docs", Unit: "B", Better: "lower"},
	{Name: "store.disk_bytes.postings", Unit: "B", Better: "lower"},
	{Name: "index.heap_bytes_per_doc", Unit: "B/doc", Better: "lower"},
	{Name: "host.reference_ms", Unit: "ms", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of one run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report turns measured values into a result holding exactly the
// metrics of defs, and prints each by name with its unit. A value the
// run did not set reads 0; a value no definition names is a bug.
func report(w io.Writer, defs []metricDef, values map[string]float64, attempted, failed int, correct bool) result {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	for name := range values {
		if !known[name] {
			panic("bench: metric " + name + " is measured but not defined")
		}
	}
	return res
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// committed file and the program cannot name different metrics (a test
// compares them byte for byte).
func benchmarkJSON(runSeconds int) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	buf, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // strings and numbers only
	}
	return append(buf, '\n')
}

func median(xs []float64) float64 { return dist.Percentile(xs, 0.5) }

// tailSupported reports whether n samples leave at least ten beyond
// the p-quantile, the rule for reporting it as a tail latency.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver computes a spread from.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // quartile i of 4
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
