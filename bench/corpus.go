package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deepweb/internal/bulkgen"
	"deepweb/internal/engine"
	"deepweb/internal/memwatch"
	"deepweb/internal/store"
)

const (
	corpusSites  = 12 // hosts in the snapshot
	corpusShards = 16 // postings shards, the index default
	pageK        = 10 // page size of every request
)

// sizes fixes how much work each phase of a run does. Two sets exist:
// the measured one, and the -smoke one the tests run in a second.
type sizes struct {
	docs          int // documents in the snapshot
	keywordN      int // distinct queries of keyword-miss
	structuredN   int // distinct queries of structured-miss
	zipfPool      int // distinct queries under the Zipf draws
	zipfSeq       int // Zipf draws per pass of cached-zipf
	setupReps     int // restart cycles per run
	vocabDocs     int // documents sampled for the keyword vocabulary
	checkN        int // queries cross-checked against the reference
	checkSlowN    int // the same on a slow workload
	traceN        int // queries the layered replay pushes through
	traceSlowN    int // the same on a slow workload
	prepareSample int // documents tokenized for index.prepare_us_per_doc
}

// fullSizes is the measured configuration. 200k documents is the
// largest snapshot whose three restart cycles, load, verification pass
// and twenty measured seconds fit the driver's per-run budget on two
// cores (see README.md, "Sizing"); every cliff the roadmap names is
// already an order of magnitude at that size.
var fullSizes = sizes{
	docs:          200_000,
	keywordN:      20_000,
	structuredN:   96,
	zipfPool:      1000,
	zipfSeq:       20_000,
	setupReps:     3,
	vocabDocs:     4000,
	checkN:        32,
	checkSlowN:    8,
	traceN:        2000,
	traceSlowN:    32,
	prepareSample: 20_000,
}

var smokeSizes = sizes{
	docs:          3000,
	keywordN:      1500,
	structuredN:   32,
	zipfPool:      300,
	zipfSeq:       2000,
	setupReps:     1,
	vocabDocs:     1000,
	checkN:        16,
	checkSlowN:    8,
	traceN:        100,
	traceSlowN:    16,
	prepareSample: 1000,
}

// buildInfo is what one snapshot build cost.
type buildInfo struct {
	wall       time.Duration
	stats      engine.BulkStats
	peakHeapMB float64
	diskDocs   int64 // bytes of the docs segment
	diskPost   int64 // bytes of all postings segments
	diskTotal  int64 // bytes of the whole directory
}

// buildSnapshot generates the seed's corpus and writes it to dir with
// the spill-to-disk build, on every core.
func buildSnapshot(ctx context.Context, seed int64, docs int, dir string) (buildInfo, error) {
	var info buildInfo
	world, err := bulkgen.NewWorld(bulkgen.Spec{Seed: seed, Docs: docs, Sites: corpusSites})
	if err != nil {
		return info, err
	}
	workers := runtime.GOMAXPROCS(0)
	src := world.Source(workers)
	defer src.Close()
	watch := memwatch.Start(0)
	start := time.Now()
	info.stats, err = engine.BulkBuild(ctx, src, dir, engine.BulkBuildOptions{Docs: docs, Shards: corpusShards, Workers: workers})
	info.wall = time.Since(start)
	info.peakHeapMB = memwatch.PeakMB(watch.Stop())
	if err != nil {
		return info, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return info, err
	}
	for _, ent := range entries {
		fi, err := ent.Info()
		if err != nil {
			return info, err
		}
		info.diskTotal += fi.Size()
		switch {
		case ent.Name() == filepath.Base(store.DocsPath(dir)):
			info.diskDocs = fi.Size()
		case strings.HasPrefix(ent.Name(), "postings-"):
			info.diskPost += fi.Size()
		}
	}
	return info, nil
}

// loadInfo is what one load of the snapshot cost its process.
type loadInfo struct {
	LoadS      float64 `json:"load_s"`
	PoolsS     float64 `json:"pools_s"`
	HeapLiveMB float64 `json:"heap_live_mb"`
	RSSPeakMB  float64 `json:"rss_peak_mb"`
}

// loadMeasured loads the snapshot, settles the heap with two
// collections and generates the workload's inputs, timing each part.
func loadMeasured(dir string, wl *mix, seed int64, sz sizes) (*engine.Engine, *inputs, loadInfo, error) {
	var info loadInfo
	start := time.Now()
	e, err := engine.Load(dir)
	if err != nil {
		return nil, nil, info, err
	}
	info.LoadS = time.Since(start).Seconds()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	info.HeapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	start = time.Now()
	in := wl.inputs(e.Index, seed, sz)
	info.PoolsS = time.Since(start).Seconds()
	info.RSSPeakMB = peakRSSMB()
	return e, in, info, nil
}

// peakRSSMB is this process's high-water resident set. On Linux it is
// read from VmHWM, not getrusage: ru_maxrss of a process started with
// vfork+exec also counts the parent's resident set at the fork, so a
// child of a large parent would report the parent's memory.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
				if err == nil {
					return kb / (1 << 10)
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" { // bytes there, kilobytes elsewhere
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / (1 << 10)
}

// childLoad is the body of the re-executed child: load, generate
// inputs, print what it cost as one JSON line, exit. A fresh process
// is the only place peak RSS and a cold heap mean what an operator
// restarting the server would see.
func childLoad(dir string, wl *mix, seed int64, sz sizes) error {
	_, _, info, err := loadMeasured(dir, wl, seed, sz)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(info)
}

// loadInChild runs childLoad in a fresh copy of this binary.
func loadInChild(ctx context.Context, dir string, wl *mix, seed int64, smoke bool) (loadInfo, error) {
	var info loadInfo
	exe, err := os.Executable()
	if err != nil {
		return info, err
	}
	args := []string{"-child-load", dir, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10)}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return info, fmt.Errorf("child load: %w", err)
	}
	if err := json.Unmarshal(out, &info); err != nil {
		return info, fmt.Errorf("child load: reading its report %q: %w", out, err)
	}
	return info, nil
}
