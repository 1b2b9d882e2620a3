package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"deepweb/internal/bulkgen"
	"deepweb/internal/index"
	"deepweb/internal/query"
)

func bulkWorld(t *testing.T, seed int64, docs, sites int) *bulkgen.World {
	t.Helper()
	w, err := bulkgen.NewWorld(bulkgen.Spec{Seed: seed, Docs: docs, Sites: sites, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The tentpole property: a spill-to-disk build writes the directory
// BulkIngest-then-Save of the same stream writes, byte for byte, across
// shard counts, with and without tombstones — run under -race in CI.
// (What a loaded directory answers is TestEngineFollowsOracle's.)
func TestBulkBuildEquivalentToRAMBuild(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			world := bulkWorld(t, 99, 3000, 5)

			ramDir := t.TempDir()
			ram := NewEmpty()
			ram.Index = index.NewSharded(shards)
			ram.Workers = 4
			stats, err := ram.BulkIngest(context.Background(), world.Source(4), BulkOptions{Batch: 512})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Docs != 3000 || stats.Duplicates != 0 {
				t.Fatalf("ingest stats: %+v", stats)
			}
			if err := ram.Save(ramDir); err != nil {
				t.Fatal(err)
			}

			spillDir := t.TempDir()
			bstats, err := BulkBuild(context.Background(), world.Source(4), spillDir, BulkBuildOptions{
				Docs: 3000, Shards: shards, Batch: 300, SpillDocs: 500, Workers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if bstats.Docs != 3000 || bstats.Runs == 0 {
				t.Fatalf("build stats: %+v (expected multiple spill flushes)", bstats)
			}
			if runsLeft(t, spillDir) != 0 {
				t.Fatal("spill runs leaked after merge")
			}

			// The whole directories are byte-identical — docs, every
			// postings shard, meta: same stream, same id order, same
			// snapshot id, same index.ShardOf placement on both paths.
			requireSameDir(t, "save-vs-bulkbuild", ramDir, spillDir)

			// The tombstone path: delete every 7th document on the live
			// engine and on the one loaded from the spill build, Save
			// both — byte-identical again.
			eb, err := Load(spillDir)
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < 3000; id += 7 {
				if !ram.Index.Delete(id) || !eb.Index.Delete(id) {
					t.Fatalf("delete doc %d failed", id)
				}
			}
			delA, delB := t.TempDir(), t.TempDir()
			if err := ram.Save(delA); err != nil {
				t.Fatal(err)
			}
			if err := eb.Save(delB); err != nil {
				t.Fatal(err)
			}
			requireSameDir(t, "save-with-tombstones", delA, delB)
			reloaded, err := Load(delA)
			if err != nil {
				t.Fatal(err)
			}
			if reloaded.Index.Deleted() != ram.Index.Deleted() || reloaded.Index.Deleted() == 0 {
				t.Fatalf("tombstones: %d reloaded, %d live", reloaded.Index.Deleted(), ram.Index.Deleted())
			}
		})
	}
}

// Refresh-then-compact after a bulk load: delete the same URL set on
// both arms, compact, and the normal forms must save byte-identically.
func TestBulkBuildCompactEquivalence(t *testing.T) {
	world := bulkWorld(t, 7, 2000, 4)

	ram := NewEmpty()
	ram.Workers = 4
	if _, err := ram.BulkIngest(context.Background(), world.Source(2), BulkOptions{}); err != nil {
		t.Fatal(err)
	}

	spillDir := t.TempDir()
	if _, err := BulkBuild(context.Background(), world.Source(8), spillDir, BulkBuildOptions{
		Docs: 2000, SpillDocs: 300, Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(spillDir)
	if err != nil {
		t.Fatal(err)
	}

	// Delete every 7th document on both engines — ids coincide because
	// both arms assigned them in stream order.
	docs, _, _ := ram.Index.ExportDocs()
	for i := 0; i < len(docs); i += 7 {
		if !ram.Index.Delete(i) || !loaded.Index.Delete(i) {
			t.Fatalf("delete doc %d failed", i)
		}
	}
	if got, want := ram.Index.Compact(), loaded.Index.Compact(); got != want {
		t.Fatalf("compact reclaimed %d vs %d", got, want)
	}
	ramDir, loadedDir := t.TempDir(), t.TempDir()
	if err := ram.Save(ramDir); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(loadedDir); err != nil {
		t.Fatal(err)
	}
	requireSameDir(t, "post-compact", ramDir, loadedDir)
}

// Reproducibility: the snapshot directory is byte-identical however
// the build was parallelized or budgeted.
func TestBulkBuildByteIdenticalAcrossBudgets(t *testing.T) {
	world := bulkWorld(t, 1234, 1500, 3)
	configs := []BulkBuildOptions{
		{Docs: 1500, Shards: 4, Batch: 64, SpillDocs: 200, Workers: 1},
		{Docs: 1500, Shards: 4, Batch: 1024, SpillDocs: 999, Workers: 4},
		{Docs: 1500, Shards: 4, Batch: 512, SpillDocs: 1 << 20, Workers: 16},
	}
	var ref string
	for ci, opts := range configs {
		dir := t.TempDir()
		if _, err := BulkBuild(context.Background(), world.Source(opts.Workers), dir, opts); err != nil {
			t.Fatal(err)
		}
		if ci == 0 {
			ref = dir
			continue
		}
		requireSameDir(t, fmt.Sprintf("config %d vs reference build", ci), ref, dir)
	}
}

// The bytes BulkBuild writes are pinned: these digests of the whole
// directory were computed at the commit before the single store.Writer
// existed (8e8434d), in another process. With Save ≡ BulkBuild pinned
// file by file above, they also pin Save across processes — nothing
// about a snapshot depends on who wrote it or where.
func TestBulkBuildDirectoryDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; bulkgen's float ladders may round differently elsewhere")
	}
	want := map[int]string{
		1:  "e9127c011a7a925c1d59a2fab28e60173b2324c6d7bd283ee4536d9fc5b8d264",
		4:  "991a8dfeba63c6b2b0b8d1faee8c1b3c5739f974ba593ae8629d3b0bd26b70e0",
		16: "14b1a1741f64cd94f2af5b138e603f3174666e0b426aa14b0b7359bdad78a066",
	}
	for _, shards := range []int{1, 4, 16} {
		world := bulkWorld(t, 1234, 1500, 3)
		dir := t.TempDir()
		if _, err := BulkBuild(context.Background(), world.Source(2), dir, BulkBuildOptions{
			Docs: 1500, Shards: shards, Batch: 128, SpillDocs: 400, Workers: 2,
		}); err != nil {
			t.Fatal(err)
		}
		files := readDir(t, dir)
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		h := sha256.New()
		for _, name := range names {
			fmt.Fprintf(h, "%s %d\n", name, len(files[name]))
			h.Write(files[name])
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[shards] {
			t.Errorf("shards=%d: directory digest %s, want %s", shards, got, want[shards])
		}
	}
}

func TestBulkBuildStreamLengthMismatch(t *testing.T) {
	world := bulkWorld(t, 5, 100, 2)
	dir := t.TempDir()
	if _, err := BulkBuild(context.Background(), world.Source(1), dir, BulkBuildOptions{Docs: 150}); err == nil {
		t.Fatal("short stream accepted")
	}
	if _, err := BulkBuild(context.Background(), world.Source(1), dir, BulkBuildOptions{Docs: 40}); err == nil {
		t.Fatal("long stream accepted")
	}
	if runsLeft(t, dir) != 0 {
		t.Fatal("failed builds leaked spill runs")
	}
	if _, err := os.Stat(filepath.Join(dir, "docs.seg")); !os.IsNotExist(err) {
		t.Fatal("failed build left a docs segment")
	}
}

func TestBulkIngestCancel(t *testing.T) {
	world := bulkWorld(t, 6, 5000, 2)
	src := world.Source(2)
	defer src.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEmpty()
	if _, err := e.BulkIngest(ctx, src, BulkOptions{Batch: 100}); err == nil {
		t.Fatal("canceled ingest reported success")
	}
}

func TestBulkIngestDeduplicates(t *testing.T) {
	world := bulkWorld(t, 8, 200, 1)
	e := NewEmpty()
	if _, err := e.BulkIngest(context.Background(), world.Source(1), BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	stats, err := e.BulkIngest(context.Background(), world.Source(1), BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Docs != 0 || stats.Duplicates != 200 {
		t.Fatalf("re-ingest stats: %+v", stats)
	}
}

// sliceSource replays recorded bulkgen documents as a BulkSource.
type sliceSource []bulkgen.Doc

func (s *sliceSource) Next() (index.Doc, map[string]string, bool) {
	if len(*s) == 0 {
		return index.Doc{}, nil, false
	}
	d := (*s)[0]
	*s = (*s)[1:]
	return d.Doc, d.Anns, true
}

// BulkIngest commits batch by batch, and a reader sees a whole batch or
// none of it: every answer a search gives beside the ingest — plain,
// filtered by a predicate and a host, annotated — equals, in ids, score
// bits and Total, the answer of a twin engine holding exactly the first
// j batches, for some j. A document counted in N and avgdl before its
// postings or annotations land scores no state. Run with -race.
func TestBulkIngestIsAtomicToReaders(t *testing.T) {
	const batch = 150
	world := bulkWorld(t, 21, 1800, 3)
	var docs []bulkgen.Doc
	for _, ref := range world.Blocks() {
		docs = world.GenBlock(ref, docs)
	}
	reqs := []SearchRequest{
		{Query: "used ford focus", K: 10},
		{Query: "used toyota price", K: 10, Host: world.Host(0), Filters: []query.Predicate{query.Eq("make", "toyota")}},
		{Query: "house portland", K: 10, Annotated: true},
	}
	answer := func(e *Engine, req SearchRequest) string {
		resp, err := e.Search(context.Background(), req)
		var b strings.Builder
		fmt.Fprintf(&b, "total=%d err=%v", resp.Total, err)
		for _, r := range resp.Results {
			fmt.Fprintf(&b, " %d:%x", r.DocID, math.Float64bits(r.Score))
		}
		return b.String()
	}

	// Every state between batches, from a twin fed one batch at a time.
	valid := make([]map[string]bool, len(reqs))
	for i := range valid {
		valid[i] = map[string]bool{}
	}
	twin := NewEmpty()
	for lo := 0; ; lo += batch {
		for i, req := range reqs {
			valid[i][answer(twin, req)] = true
		}
		if lo >= len(docs) {
			break
		}
		next := sliceSource(docs[lo:min(lo+batch, len(docs))])
		if _, err := twin.BulkIngest(context.Background(), &next, BulkOptions{Batch: batch}); err != nil {
			t.Fatal(err)
		}
	}

	e := NewEmpty()
	e.Workers = 2
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got := answer(e, req); !valid[i][got] {
					t.Errorf("%+v: answer matches no batch boundary of the ingest:\n%s", req, got)
					return
				}
			}
		}()
	}
	all := sliceSource(docs)
	_, err := e.BulkIngest(context.Background(), &all, BulkOptions{Batch: batch})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

func runsLeft(t *testing.T, dir string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(paths)
}

// readDir returns every file of a snapshot directory by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = b
	}
	return files
}

// requireSameDir asserts two snapshot directories hold the same files
// with the same bytes.
func requireSameDir(t *testing.T, label, dirA, dirB string) {
	t.Helper()
	a, b := readDir(t, dirA), readDir(t, dirB)
	if len(a) != len(b) {
		t.Fatalf("%s: %d files vs %d", label, len(a), len(b))
	}
	for name, want := range a {
		got, ok := b[name]
		if !ok {
			t.Fatalf("%s: %s missing from the second directory", label, name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %s differs (%d vs %d bytes)", label, name, len(want), len(got))
		}
	}
}
