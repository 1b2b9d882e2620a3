package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deepweb/internal/dist"
	"deepweb/internal/engine"
)

// TestMain lets the test binary stand in for the command when it is
// re-executed as a child (load measurements, runAll), which it is
// whenever asMainEnv is set.
func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentilesAndSampleRule(t *testing.T) {
	five := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 0.5: 3, 0.95: 4.8, 1: 5} {
		if got := dist.Percentile(five, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if dist.Percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples is not 0")
	}
	if tailSupported(199, 0.95) || !tailSupported(200, 0.95) || tailSupported(999, 0.99) || !tailSupported(1000, 0.99) {
		t.Error("a tail percentile needs exactly ten samples beyond it")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	// The best decile is on the side the metric is better on, and is
	// not the best value.
	xs := []float64{11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if lo, hi := undisturbed(xs, "lower"), undisturbed(xs, "higher"); lo != 2 || hi != 10 {
		t.Errorf("best deciles of 1..11 = %v (lower), %v (higher), want 2, 10", lo, hi)
	}
}

func TestReplayRunsWholePasses(t *testing.T) {
	const n = 36 // three slices of twelve
	for _, clients := range []int{1, 2, 3, 8} {
		for _, minDur := range []time.Duration{0, 5 * time.Millisecond} {
			var mu sync.Mutex
			visits := make([]int, n)
			samples := replay(context.Background(), n, clients, minDur, func(_, idx int) bool {
				mu.Lock()
				visits[idx]++
				mu.Unlock()
				time.Sleep(20 * time.Microsecond)
				return true
			})
			passes := len(samples) / n
			if len(samples)%n != 0 || passes < 1 || minDur == 0 && passes != 1 {
				t.Fatalf("%d clients, %v: %d samples are not whole passes of %d", clients, minDur, len(samples), n)
			}
			for idx, v := range visits {
				if v != passes {
					t.Fatalf("%d clients, %v: index %d visited %d times in %d passes", clients, minDur, idx, v, passes)
				}
			}
			var s serving
			s.add(samples, n/3)
			if len(s.sliceQPS) != 3*passes || len(s.sliceP50) != 3*passes || len(s.sliceP95) != 3*passes ||
				s.samples != len(samples) || s.failed != 0 {
				t.Fatalf("%d clients, %v: summary %v of %d passes", clients, minDur, &s, passes)
			}
		}
	}
}

// smokeEngine builds and loads the smoke corpus for seed.
func smokeEngine(t *testing.T, seed int64) *engine.Engine {
	t.Helper()
	dir := t.TempDir()
	if _, err := buildSnapshot(context.Background(), seed, smokeSizes.docs, dir); err != nil {
		t.Fatal(err)
	}
	e, err := engine.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestInputsFollowTheSeed(t *testing.T) {
	e1, e2 := smokeEngine(t, 1), smokeEngine(t, 2)
	for _, wl := range workloads {
		a, b := wl.inputs(e1.Index, 1, smokeSizes), wl.inputs(e1.Index, 1, smokeSizes)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", wl.name)
		}
		if c := wl.inputs(e2.Index, 2, smokeSizes); reflect.DeepEqual(a.pool, c.pool) {
			t.Errorf("%s: seeds 1 and 2 gave the same queries", wl.name)
		}
		seen := map[string]bool{}
		for _, q := range a.pool {
			if seen[q.path] {
				t.Errorf("%s: query %q appears twice in the pool", wl.name, q.path)
			}
			seen[q.path] = true
		}
		for _, qi := range a.seq {
			if int(qi) >= len(a.pool) {
				t.Fatalf("%s: sequence names query %d of %d", wl.name, qi, len(a.pool))
			}
		}
		if wl.slices < 1 || len(a.seq)%wl.slices != 0 {
			t.Errorf("%s: a pass of %d is not %d whole slices", wl.name, len(a.seq), wl.slices)
		}
	}
}

func TestDFClasses(t *testing.T) {
	e := smokeEngine(t, 1)
	c := vocabulary(e.Index, 1, smokeSizes.vocabDocs)
	if len(c.head) == 0 || len(c.torso) == 0 || len(c.tail) == 0 {
		t.Fatalf("df classes: %d head, %d torso, %d tail terms", len(c.head), len(c.torso), len(c.tail))
	}
	for _, tok := range c.head {
		if df := e.Index.DF(tok); df < e.Index.Len()/100 {
			t.Errorf("head term %q has df %d of %d docs", tok, df, e.Index.Len())
		}
	}
	for _, tok := range c.tail {
		if df := e.Index.DF(tok); df != 1 {
			t.Errorf("tail term %q has df %d at smoke size", tok, df)
		}
	}
	classes := map[string]int{}
	for _, q := range keywordPool(c, 1, 500) {
		classes[q.class]++
	}
	if classes[classHead] == 0 || classes[classTorso] == 0 || classes[classTail] == 0 {
		t.Errorf("keyword pool classes: %v", classes)
	}
	kinds := map[string]int{}
	for _, q := range structuredPool(context.Background(), e.Index, 1, 32) {
		kinds[q.class]++
		if q.class == classHost && q.host == "" {
			t.Errorf("host-restricted query %q names no host", q.q)
		}
	}
	if kinds[classPred] != 16 || kinds[classHost] != 8 || kinds[classAnnotated] != 8 {
		t.Errorf("structured pool kinds: %v", kinds)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{120, 121, 119}, "worse"},
		{higher, steady, []float64{120, 121, 119}, "better"},
		{higher, steady, []float64{80, 81, 79}, "worse"},
		{lower, steady, []float64{80, 81, 79}, "better"},
		{lower, steady, []float64{104, 105, 103}, "same"},
		{lower, steady, []float64{80, 81, 100}, "unresolved"}, // one run no better than the parent's: no gain, and b spreads past the bound
		{lower, []float64{60, 100, 140, 100, 100}, []float64{104, 105, 103}, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s is better: %v then %v judged %q, want %q", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}

func TestBenchmarkJSONIsCurrent(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON(runSeconds)) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: go run ./bench -spec > BENCHMARK.json")
	}
}

// TestSmoke runs every workload end to end, untraced and traced, on
// the smoke corpus, and checks the result line against BENCHMARK.json:
// every metric it names, once, with its unit, and nothing else.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six benchmark processes' worth of work")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			code := mainExit([]string{
				"--workload", w.Name, "--seed", "3", "--seconds", "0.3", "--trace", []string{"0", "1"}[trace],
				"-smoke", "-out", out, "-golden", "golden.json",
			}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line is no result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s is %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if trace == 0 && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
				printed := 0
				for _, line := range lines[:len(lines)-1] {
					if f := strings.Fields(line); len(f) == 3 && f[0] == m.Name && f[2] == m.Unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s trace %d: metric %s printed %d times", w.Name, trace, m.Name, printed)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "run-*")); len(left) != 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
}
