package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"deepweb/internal/bulkgen"
	"deepweb/internal/index"
)

func bulkWorld(t testing.TB, seed int64, docs, sites int) *bulkgen.World {
	t.Helper()
	w, err := bulkgen.NewWorld(bulkgen.Spec{Seed: seed, Docs: docs, Sites: sites, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// ingest commits src into b batch by batch, each batch one
// Builder.AddPreparedBatch, and returns how many documents were added
// and how many were duplicate URLs.
func ingest(b *index.Builder, src BulkSource, batch int) (added, dups int) {
	for {
		var ps []*index.Prepared
		var anns []map[string]string
		for len(ps) < batch {
			d, a, ok := src.Next()
			if !ok {
				break
			}
			ps, anns = append(ps, index.Prepare(d)), append(anns, a)
		}
		if len(ps) == 0 {
			return added, dups
		}
		_, ok := b.AddPreparedBatch(ps, anns)
		for _, a := range ok {
			if a {
				added++
			} else {
				dups++
			}
		}
	}
}

// serve returns an engine over a reader frozen from b.
func serve(b *index.Builder) *Engine { return &Engine{Index: b.Freeze()} }

// The tentpole property: a spill-to-disk build writes the directory
// Save of an index holding the same stream writes, byte for byte,
// across shard counts — run under -race in CI. (What a loaded
// directory answers is TestEngineFollowsOracle's.)
func TestBulkBuildEquivalentToRAMBuild(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			world := bulkWorld(t, 99, 3000, 5)

			ramDir := t.TempDir()
			b := index.NewSharded(shards)
			if added, dups := ingest(b, world.Source(4), 512); added != 3000 || dups != 0 {
				t.Fatalf("ingest added %d, %d duplicates", added, dups)
			}
			ram := serve(b)
			if err := ram.Save(ramDir, nil); err != nil {
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
			// snapshot id, the writer's placement on both paths.
			requireSameDir(t, "save-vs-bulkbuild", ramDir, spillDir)
		})
	}
}

// Two keys of one annotation map that name one attribute ("Make" and
// "make ") give the document the greater key's value, and only that
// value enters the attribute's dictionary — on a live index as in a
// bulk build — so Save of the ingested index and BulkBuild of the same
// stream write the same directory.
func TestSaveEqualsBulkBuildWhenKeysNameOneAttribute(t *testing.T) {
	var (
		docs []index.Doc
		anns []map[string]string
	)
	for i := range 5 {
		docs = append(docs, index.Doc{URL: fmt.Sprintf("http://cars.example/%d", i), Title: "listing", Text: "used honda civic"})
		anns = append(anns, map[string]string{"Make": "ford", "make ": "honda", "year": fmt.Sprint(2000 + i)})
	}
	b := index.New()
	if added, _ := ingest(b, &docSource{docs, anns}, 2); added != len(docs) {
		t.Fatalf("ingest added %d of %d documents", added, len(docs))
	}
	e := serve(b)
	saved, built := t.TempDir(), t.TempDir()
	if err := e.Save(saved, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := BulkBuild(context.Background(), &docSource{docs, anns}, built, BulkBuildOptions{Docs: len(docs)}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(built)
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*index.Index{"ingested": e.Index, "bulk-built": loaded.Index} {
		tables := ix.AnnotationTables()
		for _, a := range tables.Schemas[1].Attrs {
			if col := tables.Column(a); col.Attr == "make" && (len(col.Ends) != 1 || col.Value(0) != "honda") {
				t.Errorf("%s: make dictionary holds %q, want honda alone", name, col.Text)
			}
		}
	}
	requireSameDir(t, "save-vs-bulkbuild", saved, built)
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
// directory were recorded in another process, at format v4 (the first
// without a list of deleted documents). With Save ≡ BulkBuild pinned
// file by file above, they also pin Save across processes — nothing
// about a snapshot depends on who wrote it or where.
func TestBulkBuildDirectoryDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; bulkgen's float ladders may round differently elsewhere")
	}
	want := map[int]string{
		1:  "a6d5577bc5cd6436283ed324fef781374cfe70cfb4c57653449557b5b40cbd17",
		4:  "ae45fae5fe07e23bae22ea62bc559b408328cf5e6f207732824e09e60ea5157a",
		16: "b353b6a713de6377616e3f34e29ccc83ff199c873b37c1cde06d1b846abbe8ab",
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
	requireNoSnapshot(t, dir)
}

// cancelAfter cancels its build once n documents have been read.
type cancelAfter struct {
	BulkSource
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() (index.Doc, map[string]string, bool) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.BulkSource.Next()
}

// A build canceled after it has spilled runs errors and sweeps them,
// and no docs segment appears.
func TestBulkBuildCancel(t *testing.T) {
	world := bulkWorld(t, 6, 5000, 2)
	src := world.Source(2)
	defer src.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	opts := BulkBuildOptions{Docs: 5000, Batch: 100, SpillDocs: 200}
	if _, err := BulkBuild(ctx, &cancelAfter{src, 1000, cancel}, dir, opts); err == nil {
		t.Fatal("canceled build reported success")
	}
	requireNoSnapshot(t, dir)
}

// A duplicate URL fails the build, which leaves nothing behind.
func TestBulkBuildRejectsDuplicateURL(t *testing.T) {
	docs := []index.Doc{
		{URL: "http://a.example/1", Text: "ford"},
		{URL: "http://a.example/2", Text: "fiat"},
		{URL: "http://a.example/1", Text: "saab"},
	}
	src := &docSource{docs, make([]map[string]string, len(docs))}
	dir := t.TempDir()
	// A spill window of one writes runs before the duplicate arrives.
	_, err := BulkBuild(context.Background(), src, dir, BulkBuildOptions{Docs: len(docs), SpillDocs: 1})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate URL: err %v", err)
	}
	requireNoSnapshot(t, dir)
}

// requireNoSnapshot asserts a failed build left no spill runs and no
// docs segment in dir.
func requireNoSnapshot(t *testing.T, dir string) {
	t.Helper()
	if runsLeft(t, dir) != 0 {
		t.Fatal("failed build leaked spill runs")
	}
	if _, err := os.Stat(filepath.Join(dir, "docs.seg")); !os.IsNotExist(err) {
		t.Fatal("failed build left a docs segment")
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
