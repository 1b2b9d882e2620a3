package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"deepweb/internal/index"
	"deepweb/internal/memwatch"
	"deepweb/internal/store"
)

// bulkSnapshot writes a bulkgen snapshot of docs documents over 12
// sites and 16 postings segments into a fresh directory and returns it.
func bulkSnapshot(tb testing.TB, docs int) string {
	tb.Helper()
	dir := tb.TempDir()
	src := bulkWorld(tb, 1, docs, 12).Source(2)
	defer src.Close()
	if _, err := BulkBuild(context.Background(), src, dir, BulkBuildOptions{Docs: docs, Workers: 2}); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// The builder a snapshot loads into (store.Load) holds no URL lookup
// until it is first written to or asked Has; it must then answer as if
// it had always held one:
// concurrent Has calls agree with the document table, a batch repeating
// a loaded URL gets that URL's id back unadded, and a new URL takes the
// next id.
func TestLoadedIndexBuildsURLMapOnFirstWrite(t *testing.T) {
	e := corpusEngine(t, 4)
	dir := t.TempDir()
	if err := e.Save(dir, nil); err != nil {
		t.Fatal(err)
	}

	b, _, err := store.Load(dir, DefaultWorkers)
	if err != nil {
		t.Fatal(err)
	}
	ix := b.Freeze()
	n := ix.Len()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := w; id < n; id += 97 {
				if url := ix.Doc(id).URL; !b.Has(url) {
					t.Errorf("Has(%q) = false for loaded doc %d", url, id)
				}
				if url := fmt.Sprintf("http://absent.example/%d/%d", w, id); b.Has(url) {
					t.Errorf("Has(%q) = true, never indexed", url)
				}
			}
		}()
	}
	wg.Wait()

	if b, _, err = store.Load(dir, DefaultWorkers); err != nil {
		t.Fatal(err)
	}
	old := ix.Doc(n / 2)
	fresh := index.Doc{URL: "http://new.example/1", Title: "new", Text: "a new document"}
	ids, added := b.AddPreparedBatch([]*index.Prepared{index.Prepare(old), index.Prepare(fresh)}, nil)
	if ids[0] != n/2 || added[0] {
		t.Errorf("batch repeating loaded doc %d's URL: id %d added %v, want %d false", n/2, ids[0], added[0], n/2)
	}
	if ids[1] != n || !added[1] {
		t.Errorf("new URL: id %d added %v, want %d true", ids[1], added[1], n)
	}
	if l := b.Freeze().Len(); l != n+1 || !b.Has(fresh.URL) || !b.Has(old.URL) {
		t.Errorf("after the batch: %d docs, Has(new) %v, Has(old) %v", l, b.Has(fresh.URL), b.Has(old.URL))
	}
}

// BenchmarkLoad loads a 50k-document bulkgen snapshot, built once.
// Besides wall time it reports the process's CPU time, user and
// system, per load as cpu-ms/op: Load runs its jobs concurrently, so
// wall time alone hides work that moves between them. Past the timed
// loads, one more from a collected heap reports the heap's peak,
// sampled every millisecond, as peak-heap-MB, and what it keeps —
// HeapAlloc after two collections, as deepbench's heap_live_mb reads
// it — as live-heap-MB.
func BenchmarkLoad(b *testing.B) {
	dir := bulkSnapshot(b, 50000)
	b.ReportAllocs()
	cpu := cpuTime(b)
	for b.Loop() {
		if _, err := Load(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cpuTime(b)-cpu)/1e6/float64(b.N), "cpu-ms/op")
	runtime.GC()
	w := memwatch.Start(time.Millisecond)
	e, err := Load(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(memwatch.PeakMB(w.Stop()), "peak-heap-MB")
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(e)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-heap-MB")
}

// BenchmarkSave saves a 50k-document bulkgen snapshot, loaded once,
// into one directory over and over. Besides wall time, B/op and
// allocs/op it reports the process's CPU time per save as cpu-ms/op,
// as BenchmarkLoad does: Save encodes its postings segments
// concurrently.
func BenchmarkSave(b *testing.B) {
	e, err := Load(bulkSnapshot(b, 50000))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	cpu := cpuTime(b)
	for b.Loop() {
		if err := e.Save(dir, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cpuTime(b)-cpu)/1e6/float64(b.N), "cpu-ms/op")
}

// cpuTime returns the CPU time, user and system, the process has used.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
