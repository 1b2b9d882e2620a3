package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
		Lens: []int{5, 4, 3, 2},
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
		if err := w.Add(d, seg.Lens[id]); err != nil {
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
	if err := w.Add(index.Doc{URL: "u1"}, 1); err != nil {
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
	if err := w2.Add(index.Doc{URL: "u1"}, 1); err != nil {
		t.Fatal(err)
	}
	if err := w2.Add(index.Doc{URL: "u2"}, 1); err == nil {
		t.Fatal("Add accepted more docs than declared")
	}
	w2.Abort()
	if leftovers(t, dir) != 0 {
		t.Fatal("abort leaked temp files")
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

func TestSpillRunRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	for i, text := range []string{"alpha beta", "alpha", "gamma"} {
		if err := w.AddPrepared(prepared(i, text), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Two documents filled the window: one run, holding docs 0 and 1.
	if w.Runs() != 1 || len(w.runs[0]) != 1 {
		t.Fatalf("runs after 3 docs at window 2: %d (%v)", w.Runs(), w.runs)
	}
	path := w.runs[0][0]
	got, h, err := readPostings(path, KindSpill)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != KindSpill || h.Shards != 1 || h.ShardID != 0 || h.DocCount != 2 {
		t.Fatalf("header mismatch: %+v", h)
	}
	want := []index.TermPostings{
		{Term: "alpha", Postings: []index.Posting{{Doc: 0, TF: 1}, {Doc: 1, TF: 1}}},
		{Term: "beta", Postings: []index.Posting{{Doc: 0, TF: 1}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run holds %+v, want %+v", got, want)
	}

	// A run is not a postings segment: the kind check must refuse it.
	if _, _, err := ReadPostings(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadPostings accepted a spill run: %v", err)
	}

	// Doc ids beyond the run's declared count are corruption.
	var e enc
	encodePostingsBody(&e, want)
	bad := filepath.Join(dir, "bad-run.tmp")
	if err := writeFramed(bad, Header{Version: Version, Kind: KindSpill, Shards: 1, DocCount: 1}, e.b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readPostings(bad, KindSpill); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-bounds doc id not rejected: %v", err)
	}
}

// Runs merge in flush order however many there are, and neither a
// crashed build's runs nor this build's survive: the sweep at writer
// start, at Commit and at Abort collects them and leaves segments be.
func TestSpillRunsOrderAndCleanSpills(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "spill-s0001-r0099.tmp")
	if err := os.WriteFile(stale, []byte("crashed build"), 0o644); err != nil {
		t.Fatal(err)
	}
	const docs = 12
	w, err := NewWriter(dir, 2, docs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale run survived the writer's opening sweep: %v", err)
	}
	for i := 0; i < docs; i++ {
		if err := w.AddPrepared(prepared(i, "shared"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if w.Runs() != docs {
		t.Fatalf("%d runs for %d one-document windows", w.Runs(), docs)
	}
	if _, err := w.Commit(2, nil, nil); err != nil {
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
	if len(terms) != 1 || len(terms[0].Postings) != docs {
		t.Fatalf("merged segment: %+v", terms)
	}
	for i, p := range terms[0].Postings {
		if int(p.Doc) != i {
			t.Fatalf("posting %d is doc %d: runs merged out of flush order", i, p.Doc)
		}
	}

	// An aborted build sweeps its runs but leaves live segments alone.
	w2, err := NewWriter(dir, 2, docs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AddPrepared(prepared(0, "shared"), nil); err != nil {
		t.Fatal(err)
	}
	if leftovers(t, dir) == 0 {
		t.Fatal("no run or temp file on disk mid-build")
	}
	w2.Abort()
	if n := leftovers(t, dir); n != 0 {
		t.Fatalf("abort left %d temp files", n)
	}
	if _, _, err := ReadDocs(DocsPath(dir)); err != nil {
		t.Fatalf("abort damaged the committed docs segment: %v", err)
	}
}

// The snapshot id covers the columns body: two snapshots of the same
// documents that differ only in one annotation value differ in id.
func TestSnapIDCoversColumns(t *testing.T) {
	ids := map[uint32]string{}
	for _, mk := range []string{"ford", "saab"} {
		dir := t.TempDir()
		w, err := NewWriter(dir, 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddDoc(index.Doc{URL: "http://a.example/1", Text: "used car"}, 2, map[string]string{"make": mk}); err != nil {
			t.Fatal(err)
		}
		snapID, err := w.Commit(1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := ids[snapID]; dup {
			t.Fatalf("make=%s and make=%s share snapshot id %08x", other, mk, snapID)
		}
		ids[snapID] = mk
	}
}
