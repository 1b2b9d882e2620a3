package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"deepweb/internal/index"
	"deepweb/internal/store"
)

// corpusEngine returns an engine whose index, on the given shard count,
// holds an annotated bulkgen world: an annotated corpus, built without
// surfacing.
func corpusEngine(t testing.TB, shards int) *Engine {
	t.Helper()
	b := index.NewSharded(shards)
	if added, _ := ingest(b, bulkWorld(t, 7, 1200, 6).Source(1), 256); added != 1200 {
		t.Fatalf("corpus holds %d of 1200 documents", added)
	}
	return serve(b)
}

// A snapshot saved by a 1-worker engine must be byte-identical — every
// file — to one saved by a parallel engine, across shard counts:
// directory bytes are a function of the index alone.
func TestSaveDeterministicAcrossWorkers(t *testing.T) {
	prev := DefaultWorkers
	defer func() { DefaultWorkers = prev }()
	for _, shards := range []int{1, 4, 16} {
		e := corpusEngine(t, shards)
		seq, par := t.TempDir(), t.TempDir()
		DefaultWorkers = 1
		if err := e.Save(seq, nil); err != nil {
			t.Fatal(err)
		}
		DefaultWorkers = 4
		if err := e.Save(par, nil); err != nil {
			t.Fatal(err)
		}
		if n := len(readDir(t, seq)); n != shards+3 {
			t.Fatalf("shards=%d: snapshot holds %d files, want docs + columns + %d postings + meta", shards, n, shards)
		}
		requireSameDir(t, fmt.Sprintf("shards=%d: 1-worker vs 4-worker save", shards), seq, par)
	}
}

// loadFails loads a damaged snapshot, requires the load to fail, and
// requires it to leave no goroutine behind: Load joins its parts before
// it returns, on failure as on success.
func loadFails(t *testing.T, dir string) error {
	t.Helper()
	before := runtime.NumGoroutine()
	if _, err := Load(dir); err != nil {
		for i := 0; runtime.NumGoroutine() > before; i++ {
			if i == 100 {
				t.Fatalf("failed Load left %d goroutines behind", runtime.NumGoroutine()-before)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return err
	}
	t.Fatal("damaged snapshot loaded")
	return nil
}

// reseal recomputes a segment's body and header CRCs after an edit, so
// a test reaches the check it aims at instead of tripping a CRC.
func reseal(raw []byte) {
	table := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(raw[36:40], crc32.Checksum(raw[44:], table))
	binary.LittleEndian.PutUint32(raw[40:44], crc32.Checksum(raw[0:40], table))
}

// editRows rewrites the docs segment of the snapshot in dir behind
// valid CRCs: edit gets the segment's rows, each as the body holds it,
// and returns what the body holds after its doc count.
func editRows(t *testing.T, dir string, edit func(rows []string) string) {
	t.Helper()
	path := store.DocsPath(dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw[44:])
	n, start := index.Uvarint(body)
	rows, off := make([]string, n), start
	for i := range rows {
		_, _, size := index.ParseRow(body[off:])
		if size == 0 {
			t.Fatalf("row %d of the saved docs segment does not parse", i)
		}
		rows[i], off = body[off:off+size], off+size
	}
	out := append(raw[:44+start:44+start], edit(rows)...)
	binary.LittleEndian.PutUint64(out[28:36], uint64(len(out)-44))
	reseal(out)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A damaged snapshot directory must fail the load with a diagnosable
// error — the serving binary exits at startup instead of serving a
// silently wrong index.
func TestLoadRejectsDamagedSnapshot(t *testing.T) {
	e := corpusEngine(t, 4)
	save := func(t *testing.T) string {
		dir := t.TempDir()
		if err := e.Save(dir, nil); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("missing directory", func(t *testing.T) {
		if err := loadFails(t, filepath.Join(t.TempDir(), "nope")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("want not-exist, got %v", err)
		}
	})
	t.Run("missing postings segment", func(t *testing.T) {
		dir := save(t)
		if err := os.Remove(store.PostingsPath(dir, 2)); err != nil {
			t.Fatal(err)
		}
		if err := loadFails(t, dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("want not-exist, got %v", err)
		}
	})
	t.Run("truncated postings segment", func(t *testing.T) {
		dir := save(t)
		path := store.PostingsPath(dir, 1)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := loadFails(t, dir); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("postings from a different generation", func(t *testing.T) {
		// Rewrite one postings segment with its own decoded contents but
		// a perturbed snapshot id — the shape a crash mid-save leaves
		// behind (old-generation postings under a new docs segment).
		dir := save(t)
		path := store.PostingsPath(dir, 0)
		terms, ph, err := store.ReadPostings(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WritePostings(path, int(ph.Shards), 0, int(ph.DocCount), ph.SnapID+1, terms); err != nil {
			t.Fatal(err)
		}
		if err := loadFails(t, dir); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("mixed-generation snapshot loaded: %v", err)
		}
	})
	t.Run("segments from different snapshots", func(t *testing.T) {
		dir := save(t)
		other := corpusEngine(t, 8)
		otherDir := t.TempDir()
		if err := other.Save(otherDir, nil); err != nil {
			t.Fatal(err)
		}
		// A docs segment claiming 8 shards over 4-shard postings files.
		if err := os.Rename(store.DocsPath(otherDir), store.DocsPath(dir)); err != nil {
			t.Fatal(err)
		}
		loadFails(t, dir)
	})
	t.Run("duplicate URL in the docs segment", func(t *testing.T) {
		// A loaded index keeps no URL lookup until its first write, so
		// the rows' URLs are checked apart from it, by their hashes.
		dir := t.TempDir()
		w, err := store.NewWriter(dir, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Abort()
		for _, u := range []string{"http://a.example/1", "http://a.example/2", "http://a.example/1"} {
			if err := w.AddRow(string(index.AppendRow(nil, index.Doc{URL: u, Text: "used car"}, 2))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Commit(1, nil, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		err = loadFails(t, dir)
		if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), `duplicate URL "http://a.example/1" (docs 0 and 2)`) {
			t.Fatalf("want an ErrCorrupt naming the duplicate, got %v", err)
		}
	})
	// A row damaged behind valid CRCs fails the load, naming the row.
	for _, tc := range []struct {
		name, wantMsg string
		edit          func(rows []string) string
	}{
		{"row that does not parse", "row 7: truncated or malformed", func(rows []string) string {
			rows[7] = "\xff\xff\xff\xff\x0f" // a URL length past the body
			return strings.Join(rows, "")
		}},
		{"length past MaxInt32", "row 7: length 2147483648 past 2147483647", func(rows []string) string {
			d, _, _ := index.ParseRow(rows[7])
			rows[7] = string(index.AppendRow(nil, d, 1<<31))
			return strings.Join(rows, "")
		}},
		{"bytes after the last row", "3 undecoded bytes after the last of 1200 rows", func(rows []string) string {
			return strings.Join(rows, "") + "\x00\x00\x00"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := save(t)
			editRows(t, dir, tc.edit)
			err := loadFails(t, dir)
			if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("want an ErrCorrupt mentioning %q, got %v", tc.wantMsg, err)
			}
		})
	}
	t.Run("missing columns segment", func(t *testing.T) {
		dir := save(t)
		if err := os.Remove(store.ColumnsPath(dir)); err != nil {
			t.Fatal(err)
		}
		if err := loadFails(t, dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("want not-exist, got %v", err)
		}
	})

	// Each remaining case replaces the columns segment of a four-document
	// snapshot with tables made by hand and stamped with the snapshot's
	// id, so only the tables' own rule is broken. valid is the base each
	// case edits; as it is, it loads.
	b := index.New()
	for i := range 4 {
		b.Add(index.Doc{URL: fmt.Sprintf("http://cars.example/%d", i), Text: "used car"})
	}
	tables := serve(b)
	valid := func() ([]index.AnnColumn, []index.AnnSchema) {
		return []index.AnnColumn{
				{Attr: "make", Text: []byte("fordsaab"), Ends: []uint32{4, 8}},
				{Attr: "model", Text: []byte("focus"), Ends: []uint32{5}},
			}, []index.AnnSchema{
				{Attrs: []uint32{0}, Codes: [][]uint32{{1}}, Docs: []int32{2}},
				{Attrs: []uint32{0, 1}, Codes: [][]uint32{{0, 0}, {0, 0}}, Docs: []int32{0, 1}},
			}
	}
	saveWith := func(t *testing.T, snapOffset uint32, edit func([]index.AnnColumn, []index.AnnSchema)) string {
		t.Helper()
		dir := t.TempDir()
		if err := tables.Save(dir, nil); err != nil {
			t.Fatal(err)
		}
		cols, schemas := valid()
		edit(cols, schemas)
		if err := store.WriteColumns(store.ColumnsPath(dir), 4, tables.Generation+snapOffset, cols, schemas); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	unedited := func([]index.AnnColumn, []index.AnnSchema) {}
	if _, err := Load(saveWith(t, 0, unedited)); err != nil {
		t.Fatalf("the hand-made tables the cases below break do not load: %v", err)
	}
	t.Run("columns from a different generation", func(t *testing.T) {
		err := loadFails(t, saveWith(t, 1, unedited))
		if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "different snapshot generations") {
			t.Fatalf("want the generation check's ErrCorrupt, got %v", err)
		}
	})
	for _, tc := range []struct {
		name, wantMsg string
		edit          func([]index.AnnColumn, []index.AnnSchema)
	}{
		{"code past its dictionary", "past attribute \"make\"'s 2 values", func(c []index.AnnColumn, s []index.AnnSchema) {
			s[0].Codes[0][0] = 2
		}},
		{"attribute named twice", "attribute \"make\" named twice", func(c []index.AnnColumn, s []index.AnnSchema) {
			c[1].Attr = "make"
		}},
		{"value twice in a dictionary", "value \"ford\" twice", func(c []index.AnnColumn, s []index.AnnSchema) {
			c[0].Text = []byte("fordford")
		}},
		{"attribute ids descend", "do not ascend", func(c []index.AnnColumn, s []index.AnnSchema) {
			s[1].Attrs = []uint32{1, 0}
		}},
		{"attribute id out of range", "do not ascend", func(c []index.AnnColumn, s []index.AnnSchema) {
			s[1].Attrs[1] = 2
		}},
		{"annotation ids descend", "after doc", func(c []index.AnnColumn, s []index.AnnSchema) {
			s[1].Docs = []int32{1, 0}
		}},
		{"annotation id past the documents", "holds doc 4 of 4", func(c []index.AnnColumn, s []index.AnnSchema) {
			s[0].Docs[0] = 4
		}},
		{"document in two schemas", "doc 1 in schemas", func(c []index.AnnColumn, s []index.AnnSchema) {
			s[0].Docs[0] = 1
		}},
		{"value no document carries", "value \"saab\" carried by no document", func(c []index.AnnColumn, s []index.AnnSchema) {
			s[0].Codes[0][0] = 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := loadFails(t, saveWith(t, 0, tc.edit))
			if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("want an ErrCorrupt mentioning %q, got %v", tc.wantMsg, err)
			}
		})
	}
}

// A duplicate URL is found wherever it sits: a 20k-document snapshot
// whose last row repeats doc 0's URL fails the load naming both.
func TestLoadFindsDuplicateURLAcrossTable(t *testing.T) {
	const docs = 20000
	dir := bulkSnapshot(t, docs)
	var first string
	editRows(t, dir, func(rows []string) string {
		d0, _, _ := index.ParseRow(rows[0])
		last, dl, _ := index.ParseRow(rows[docs-1])
		first, last.URL = d0.URL, d0.URL
		rows[docs-1] = string(index.AppendRow(nil, last, int(dl)))
		return strings.Join(rows, "")
	})
	err := loadFails(t, dir)
	if want := fmt.Sprintf("duplicate URL %q (docs 0 and %d)", first, docs-1); !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("want an ErrCorrupt mentioning %s, got %v", want, err)
	}
}

// Every load of one snapshot gives the annotation store the same
// attribute ids, dictionaries, schemas, codes and slots. Each of the
// first ten documents brings three attributes no earlier one has — the
// case where the order a Go map handed them to Annotate used to pick
// the ids, ten times over.
func TestLoadIsDeterministic(t *testing.T) {
	b := index.New()
	for i := range 60 {
		id, _ := b.Add(index.Doc{
			URL:  fmt.Sprintf("http://cars.example/p%d", i),
			Text: fmt.Sprintf("used car %d", i),
		})
		g := i % 10
		anns := map[string]string{
			"make":                    []string{"ford", "saab", "audi"}[i%3],
			fmt.Sprintf("model%d", g): fmt.Sprintf("m%d", i%7),
			fmt.Sprintf("trim%d", g):  fmt.Sprint(i % 4),
			fmt.Sprintf("city%d", g):  []string{"seattle", "portland"}[i%2],
		}
		if i%4 == 0 {
			delete(anns, "make")
		}
		b.Annotate(id, anns)
	}
	e := serve(b)
	dir := t.TempDir()
	if err := e.Save(dir, nil); err != nil {
		t.Fatal(err)
	}
	var first index.AnnTables
	for i := range 5 {
		loaded, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		tables := loaded.Index.AnnotationTables()
		if i == 0 {
			first = tables
			continue
		}
		if !reflect.DeepEqual(first, tables) {
			t.Fatalf("load %d: annotation tables differ from the first load's:\n%+v\n%+v", i, first.Schemas, tables.Schemas)
		}
	}
}

// An index annotated in doc-id order — as every index is, the store
// being append-only — round-trips its annotation tables exactly through
// Save and Load.
func TestLoadedTablesAreCanonical(t *testing.T) {
	b := index.New()
	for i := range 40 {
		id, _ := b.Add(index.Doc{URL: fmt.Sprintf("http://cars.example/p%d", i), Text: fmt.Sprintf("used car %d", i)})
		b.Annotate(id, map[string]string{
			"make":                      []string{"ford", "saab", "audi"}[i%3],
			fmt.Sprintf("model%d", i%4): fmt.Sprintf("m%d", i%7),
			"City ":                     []string{"Seattle", "portland"}[i%2],
		})
	}
	e := serve(b)
	dir := t.TempDir()
	if err := e.Save(dir, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if before, after := e.Index.AnnotationTables(), loaded.Index.AnnotationTables(); !reflect.DeepEqual(before, after) {
		t.Fatalf("tables of an index annotated in doc-id order changed across save and load:\n%+v\n%+v", before.Schemas, after.Schemas)
	}
}

// Load edge cases: an empty directory, a snapshot without the optional
// semantics segment, one whose meta segment is damaged, and a
// version-skewed (v1, v2, v3) snapshot must each fail — or degrade —
// cleanly, never panic or misread.
func TestLoadEdgeCases(t *testing.T) {
	t.Run("empty directory", func(t *testing.T) {
		// The directory exists but holds no segments: "no snapshot
		// here", distinguishable from corruption.
		if _, err := Load(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("want not-exist, got %v", err)
		}
	})
	t.Run("missing semantics segment", func(t *testing.T) {
		// Engine.Save writes no tables segment; the index must load
		// anyway (the segment is optional).
		e := corpusEngine(t, 4)
		dir := t.TempDir()
		if err := e.Save(dir, nil); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(dir)
		if err != nil {
			t.Fatalf("index-only snapshot rejected: %v", err)
		}
		if loaded.Index.Len() != e.Index.Len() {
			t.Fatalf("loaded %d of %d docs", loaded.Index.Len(), e.Index.Len())
		}
	})
	t.Run("damaged meta segment", func(t *testing.T) {
		// The meta segment is the surfacer's refresh metadata; Load
		// never reads it, so damage there cannot stop a server.
		e := corpusEngine(t, 4)
		dir := t.TempDir()
		if err := e.Save(dir, []store.SiteMeta{{Host: "cars.example", Signature: 7}}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(store.MetaPath(dir), []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(dir)
		if err != nil {
			t.Fatalf("snapshot with a damaged meta segment rejected: %v", err)
		}
		if loaded.Index.Len() != e.Index.Len() || loaded.Generation != e.Generation {
			t.Fatalf("loaded %d docs of generation %08x, saved %d of %08x", loaded.Index.Len(), loaded.Generation, e.Index.Len(), e.Generation)
		}
	})
	t.Run("v3 version skew", func(t *testing.T) {
		// A v3 docs segment ends with a list of deleted documents, which
		// v4 dropped: ErrVersion, not a misread of that list.
		e := corpusEngine(t, 4)
		dir := t.TempDir()
		if err := e.Save(dir, nil); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{store.DocsPath(dir), store.ColumnsPath(dir)} {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint16(raw[4:6], 3)
			reseal(raw)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Load(dir); !errors.Is(err, store.ErrVersion) {
			t.Fatalf("v3 snapshot: want ErrVersion, got %v", err)
		}
	})
	t.Run("v2 version skew", func(t *testing.T) {
		// A v2 snapshot spells annotations out in its docs segment and
		// has no columns segment: ErrVersion, not a misread.
		e := corpusEngine(t, 4)
		dir := t.TempDir()
		if err := e.Save(dir, nil); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(store.ColumnsPath(dir)); err != nil {
			t.Fatal(err)
		}
		path := store.DocsPath(dir)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(raw[4:6], 2)
		reseal(raw)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); !errors.Is(err, store.ErrVersion) {
			t.Fatalf("v2 docs segment: want ErrVersion, got %v", err)
		}
	})
	t.Run("v1 version skew", func(t *testing.T) {
		// A v1-era segment (version field 1, CRCs resealed) must come
		// back as a clean ErrVersion from the whole-engine Load.
		e := corpusEngine(t, 4)
		dir := t.TempDir()
		if err := e.Save(dir, nil); err != nil {
			t.Fatal(err)
		}
		path := store.DocsPath(dir)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(raw[4:6], 1)
		reseal(raw)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); !errors.Is(err, store.ErrVersion) {
			t.Fatalf("v1 docs segment: want ErrVersion, got %v", err)
		}
	})
}

// Save sweeps a crashed predecessor's *.tmp droppings from the target
// directory before writing, so they can neither accumulate nor be
// mistaken for live segments.
func TestSaveSweepsStaleTmp(t *testing.T) {
	e := corpusEngine(t, 4)
	dir := t.TempDir()
	stale := filepath.Join(dir, "docs.seg.999.tmp")
	if err := os.WriteFile(stale, []byte("crashed writer"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale tmp survived Save: %v", err)
	}
	if _, err := Load(dir); err != nil {
		t.Errorf("snapshot unreadable after sweep: %v", err)
	}
}
