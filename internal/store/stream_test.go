package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deepweb/internal/index"
)

func streamCorpus() *DocsSegment {
	return &DocsSegment{
		Docs: []index.Doc{
			{URL: "http://a.example/1", Title: "first doc", Text: "ford focus excellent", Source: "a.example"},
			{URL: "http://a.example/2", Title: "second", Text: "toyota camry", Source: "a.example"},
			{URL: "http://b.example/1", Title: "", Text: "no title here", Source: "b.example"},
			{URL: "http://b.example/2", Title: "fourth", Text: "annotated", Source: "b.example"},
		},
		Lens: []int32{5, 4, 3, 2},
	}
}

// streamAnns annotates streamCorpus' documents, by doc id.
var streamAnns = []map[string]string{
	{"make": "ford", "model": "focus"},
	{"make": "saab"},
	nil,
	{"city": "austin", "zip": "78701", "price": "9500"},
}

// The docs and columns formats, pinned by constants: the snapshot id of
// streamCorpus annotated by streamAnns, and the digest of its docs
// segment followed by its columns body, recorded at format v4. Any
// byte the writers emit differently — and therefore any snapshot id
// they would stamp differently — fails here.
func TestDocsSegmentDigest(t *testing.T) {
	const (
		wantID  = 0x36e73265
		wantSHA = "2700137201be01b8c1c67eff5fffef243a7b97badfe6c4ed4b2c00f7dc3af178"
	)
	seg := streamCorpus()
	path := filepath.Join(t.TempDir(), "docs.seg")
	w, err := newDocsWriter(path, 4, len(seg.Docs))
	if err != nil {
		t.Fatal(err)
	}
	anns := index.NewAnnBuilder()
	for id, d := range seg.Docs {
		if err := w.Add(index.AppendRow(nil, d, int(seg.Lens[id]))); err != nil {
			t.Fatal(err)
		}
		anns.Annotate(id, streamAnns[id])
	}
	columns := encodeColumns(anns.Tables())
	gotID, err := w.Close(columns)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(append(raw, columns...))); gotID != wantID || sum != wantSHA {
		t.Fatalf("docs and columns drifted: snapshot id %08x sha256 %s (%d+%d bytes), want %08x %s",
			gotID, sum, len(raw), len(columns), uint32(wantID), wantSHA)
	}

	// And it round-trips through the reader.
	rt, h, err := ReadDocs(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.SnapID != wantID || int(h.DocCount) != len(seg.Docs) || h.Shards != 4 {
		t.Fatalf("header mismatch: %+v", h)
	}
	if !reflect.DeepEqual(rt, seg) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", rt, seg)
	}
}

func TestDocsWriterCountMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "docs.seg")

	w, err := newDocsWriter(path, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(index.AppendRow(nil, index.Doc{URL: "u1"}, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(nil); err == nil {
		t.Fatal("Close accepted 1 of 3 declared docs")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed close left a segment under the final name")
	}
	if leftovers(t, dir) != 0 {
		t.Fatal("failed close leaked temp files")
	}

	// Overflow is refused at Add time.
	w2, err := newDocsWriter(path, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Add(index.AppendRow(nil, index.Doc{URL: "u1"}, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Add(index.AppendRow(nil, index.Doc{URL: "u2"}, 1)); err == nil {
		t.Fatal("Add accepted more docs than declared")
	}
	w2.Abort()
	if leftovers(t, dir) != 0 {
		t.Fatal("abort leaked temp files")
	}
}

// A docs segment whose checked rows repeat a URL is refused at Close,
// naming both doc ids, and leaves nothing behind; two rows whose URL
// hashes merely collide are read back, found distinct, and written.
func TestDocsWriterChecksURLs(t *testing.T) {
	seg := streamCorpus()
	write := func(t *testing.T, dir string, docs []index.Doc, collide bool) error {
		w, err := newDocsWriter(filepath.Join(dir, "docs.seg"), 1, len(docs))
		if err != nil {
			t.Fatal(err)
		}
		for id, d := range docs {
			if err := w.AddChecked(index.AppendRow(nil, d, int(seg.Lens[id]))); err != nil {
				t.Fatal(err)
			}
		}
		if collide {
			w.urls[3] = w.urls[0]
		}
		_, err = w.Close(nil)
		return err
	}

	dir := t.TempDir()
	docs := append([]index.Doc(nil), seg.Docs...)
	docs[3].URL = docs[1].URL
	err := write(t, dir, docs, false)
	if want := `duplicate URL "http://a.example/2" (docs 1 and 3)`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Close = %v, want an error naming %s", err, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "docs.seg")); !os.IsNotExist(err) || leftovers(t, dir) != 0 {
		t.Fatal("a refused segment left a file behind")
	}

	if err := write(t, dir, seg.Docs, true); err != nil {
		t.Fatalf("colliding hashes of distinct URLs: %v", err)
	}
	got, _, err := ReadDocs(filepath.Join(dir, "docs.seg"))
	if err != nil || !reflect.DeepEqual(got, seg) {
		t.Fatalf("segment written past a collision reads back as %+v, %v", got, err)
	}
}

func leftovers(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			n++
		}
	}
	return n
}

// prepared tokenizes a one-line document for the writer tests.
func prepared(i int, text string) *index.Prepared {
	return index.Prepare(index.Doc{URL: fmt.Sprintf("http://w.example/%d", i), Text: text})
}

// A crashed writer's temp files do not survive the next writer, and
// neither do this writer's: the sweep at writer start collects a stale
// *.tmp, Commit leaves none, and Abort mid-build sweeps the docs temp
// but leaves the committed segments readable. A term said by every
// document lands in its shard's segment as one ascending list.
func TestWriterCrashHygiene(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "postings-0001.seg.tmp")
	if err := os.WriteFile(stale, []byte("crashed build"), 0o644); err != nil {
		t.Fatal(err)
	}
	const docs = 12
	w, err := NewWriter(dir, 2, docs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the writer's opening sweep: %v", err)
	}
	for i := 0; i < docs; i++ {
		if err := w.AddPrepared(prepared(i, "shared")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Commit(2, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := leftovers(t, dir); n != 0 {
		t.Fatalf("commit left %d temp files", n)
	}
	si := shardOf(prepared(0, "shared").Terms()[0], 2) // the stemmed term
	terms, _, err := ReadPostings(PostingsPath(dir, si))
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 1 || terms[0].Postings.Len() != docs {
		t.Fatalf("segment: %+v", terms)
	}
	for i := range docs {
		if doc := terms[0].Postings.Doc(i); int(doc) != i {
			t.Fatalf("posting %d is doc %d: postings out of doc-id order", i, doc)
		}
	}

	// An aborted build sweeps its temp files but leaves live segments
	// alone.
	w2, err := NewWriter(dir, 2, docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AddPrepared(prepared(0, "shared")); err != nil {
		t.Fatal(err)
	}
	if leftovers(t, dir) == 0 {
		t.Fatal("no temp file on disk mid-build")
	}
	w2.Abort()
	if n := leftovers(t, dir); n != 0 {
		t.Fatalf("abort left %d temp files", n)
	}
	if _, _, err := ReadDocs(DocsPath(dir)); err != nil {
		t.Fatalf("abort damaged the committed docs segment: %v", err)
	}
	if _, _, err := ReadPostings(PostingsPath(dir, si)); err != nil {
		t.Fatalf("abort damaged a committed postings segment: %v", err)
	}
}

// The snapshot id covers the columns body: two snapshots of the same
// documents that differ only in one annotation value differ in id.
func TestSnapIDCoversColumns(t *testing.T) {
	ids := map[uint32]string{}
	for _, mk := range []string{"ford", "saab"} {
		dir := t.TempDir()
		w, err := NewWriter(dir, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddPrepared(index.Prepare(index.Doc{URL: "http://a.example/1", Text: "used car"})); err != nil {
			t.Fatal(err)
		}
		anns := index.NewAnnBuilder()
		anns.Annotate(0, map[string]string{"make": mk})
		cols, schemas := anns.Tables()
		snapID, err := w.Commit(1, nil, nil, cols, schemas)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := ids[snapID]; dup {
			t.Fatalf("make=%s and make=%s share snapshot id %08x", other, mk, snapID)
		}
		ids[snapID] = mk
	}
}

// A writer takes its posting lists from one source: a writer fed
// through AddPrepared holds its own and refuses lists handed to Commit.
func TestPreparedWriterRefusesResidentPostings(t *testing.T) {
	w, err := NewWriter(t.TempDir(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.AddPrepared(prepared(0, "shared")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Commit(1, nil, samplePostings(), nil, nil); err == nil || !strings.Contains(err.Error(), "holds its own") {
		t.Fatalf("Commit of a prepared stream handed posting lists: %v", err)
	}
}
