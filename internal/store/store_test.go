package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deepweb/internal/index"
	"deepweb/internal/webtables"
)

func sampleDocs() *DocsSegment {
	return &DocsSegment{
		Docs: []index.Doc{
			{URL: "http://a/1", Title: "one", Text: "ford focus compact", Source: "form-a"},
			{URL: "http://a/2", Title: "two", Text: "honda civic — überschnell", Source: ""},
			{URL: "http://b/1", Title: "", Text: "", Source: "form-b"},
		},
		Lens: []int32{7, 5, 0},
	}
}

// sampleAnns annotates sampleDocs' documents, by doc id.
var sampleAnns = []map[string]string{
	{"make": "ford", "model": "focus"},
	nil,
	{"make": "Honda", "notes": "two owners"},
}

// sampleColumns returns the annotation tables of sampleAnns as a
// writer builds them.
func sampleColumns() ([]index.AnnColumn, []index.AnnSchema) {
	b := index.NewAnnBuilder()
	for id, anns := range sampleAnns {
		b.Annotate(id, anns)
	}
	return b.Tables()
}

// postingsOf returns the posting list of the given doc id, tf pairs.
func postingsOf(docTFs ...int32) index.PostingList {
	var pl index.PostingList
	for i := 0; i < len(docTFs); i += 2 {
		pl.Append(docTFs[i], docTFs[i+1])
	}
	return pl
}

func samplePostings() []index.TermPostings {
	return []index.TermPostings{
		{Term: "civic", Postings: postingsOf(1, 1)},
		{Term: "ford", Postings: postingsOf(0, 3, 2, 1)},
		// Out-of-order doc ids must round-trip too (zig-zag deltas).
		{Term: "zig", Postings: postingsOf(2, 1, 0, 9)},
	}
}

func sampleTables() *TablesSegment {
	return &TablesSegment{
		PagesCrawled: 120,
		RawTables:    9,
		Tables: []webtables.RawTable{
			{URL: "http://a/t", Headers: []string{"make", "model"}, Rows: [][]string{{"ford", "focus"}, {"honda", "civic"}}},
			{URL: "http://b/t", Headers: []string{"city"}, Rows: [][]string{{"seattle"}, {}}},
		},
	}
}

// writeDocs streams seg through the docs writer — the only docs
// encoder — and returns the snapshot id.
func writeDocs(path string, shards int, seg *DocsSegment) (uint32, error) {
	w, err := newDocsWriter(path, shards, len(seg.Docs))
	if err != nil {
		return 0, err
	}
	for id, d := range seg.Docs {
		if err := w.Add(index.AppendRow(nil, d, int(seg.Lens[id]))); err != nil {
			w.Abort()
			return 0, err
		}
	}
	return w.Close(nil)
}

func TestDocsRoundTrip(t *testing.T) {
	path := DocsPath(t.TempDir())
	want := sampleDocs()
	snapID, err := writeDocs(path, 4, want)
	if err != nil {
		t.Fatal(err)
	}
	got, h, err := ReadDocs(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != Version || h.Kind != KindDocs || h.Shards != 4 || h.DocCount != 3 {
		t.Fatalf("bad header: %+v", h)
	}
	if snapID == 0 || h.SnapID != snapID {
		t.Fatalf("snapshot id not round-tripped: wrote %08x, read %08x", snapID, h.SnapID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestPostingsRoundTrip(t *testing.T) {
	path := PostingsPath(t.TempDir(), 2)
	want := samplePostings()
	if err := WritePostings(path, 8, 2, 3, 0xBEEF, want); err != nil {
		t.Fatal(err)
	}
	got, h, err := ReadPostings(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards != 8 || h.ShardID != 2 || h.DocCount != 3 || h.SnapID != 0xBEEF {
		t.Fatalf("bad header: %+v", h)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestTablesRoundTrip(t *testing.T) {
	path := TablesPath(t.TempDir())
	want := sampleTables()
	if err := WriteTables(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTables(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// Identical inputs must produce byte-identical segments (maps are
// emitted in sorted order), so snapshots diff cleanly.
func TestWriteDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.seg"), filepath.Join(dir, "b.seg")
	if _, err := writeDocs(a, 4, sampleDocs()); err != nil {
		t.Fatal(err)
	}
	if _, err := writeDocs(b, 4, sampleDocs()); err != nil {
		t.Fatal(err)
	}
	ba, _ := os.ReadFile(a)
	bb, _ := os.ReadFile(b)
	if string(ba) != string(bb) {
		t.Fatal("two writes of the same docs segment differ")
	}
}

// writeSample writes one valid docs segment and returns its path and
// bytes, as the substrate for corruption tests.
func writeSample(t *testing.T) (string, []byte) {
	t.Helper()
	path := DocsPath(t.TempDir())
	if _, err := writeDocs(path, 4, sampleDocs()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// rewrite replaces the file with mutated bytes.
func rewrite(t *testing.T, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Every corruption mode must come back as a wrapped error — never a
// panic, never silent success.
func TestCorruptionDetected(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
		wantMsg string
	}{
		{"truncated header", func(b []byte) []byte { return b[:headerSize-8] }, ErrCorrupt, "truncated header"},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-5] }, ErrCorrupt, "truncated segment body"},
		{"empty file", func(b []byte) []byte { return nil }, ErrCorrupt, "truncated header"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrCorrupt, "bad magic"},
		{"header bit flip", func(b []byte) []byte { b[9] ^= 0x40; return b }, ErrCorrupt, "header CRC"},
		{"body bit flip", func(b []byte) []byte { b[headerSize+3] ^= 0x01; return b }, ErrCorrupt, "body CRC"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xEE) }, ErrCorrupt, "trailing"},
		{"wrong version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], Version+1)
			reseal(b)
			return b
		}, ErrVersion, "version"},
		{"wrong kind", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], uint16(KindPostings))
			reseal(b)
			return b
		}, ErrCorrupt, "kind"},
		{"doc count lies", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], 99)
			reseal(b)
			return b
		}, ErrCorrupt, "header says"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, raw := writeSample(t)
			rewrite(t, path, tc.mutate(append([]byte(nil), raw...)))
			_, _, err := ReadDocs(path)
			if err == nil {
				t.Fatal("corrupt segment read succeeded")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v not wrapped in %v", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// reseal recomputes both CRCs after a deliberate header edit, so the
// test reaches the semantic check it is aiming at instead of tripping
// the CRC first.
func reseal(b []byte) {
	binary.LittleEndian.PutUint32(b[36:40], crc32.Checksum(b[headerSize:], castagnoli))
	binary.LittleEndian.PutUint32(b[40:44], crc32.Checksum(b[0:40], castagnoli))
}

// A postings body whose doc ids exceed the declared doc count is
// structurally valid varint data but semantically corrupt.
func TestPostingsDocBoundsChecked(t *testing.T) {
	path := PostingsPath(t.TempDir(), 0)
	if err := WritePostings(path, 1, 0, 2, 0, []index.TermPostings{
		{Term: "ok", Postings: postingsOf(5, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadPostings(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range doc id not rejected: %v", err)
	}
}

// A missing segment surfaces the underlying not-exist error so callers
// can distinguish "no snapshot" from "broken snapshot".
func TestMissingSegment(t *testing.T) {
	_, _, err := ReadDocs(DocsPath(t.TempDir()))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want not-exist, got %v", err)
	}
}

// A lying shard count must be rejected before it can size anything: 0
// would silently load a postings-free index, huge would OOM building
// shards. Both writer and reader refuse it.
func TestShardCountBounds(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeDocs(DocsPath(dir), 0, sampleDocs()); err == nil {
		t.Error("docs writer accepted 0 shards")
	}
	if _, err := writeDocs(DocsPath(dir), MaxShards+1, sampleDocs()); err == nil {
		t.Error("docs writer accepted > MaxShards shards")
	}
	for _, shards := range []uint32{0, MaxShards + 1} {
		path, raw := writeSample(t)
		binary.LittleEndian.PutUint32(raw[8:12], shards)
		reseal(raw)
		rewrite(t, path, raw)
		if _, _, err := ReadDocs(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("shards=%d accepted by reader: %v", shards, err)
		}
	}
	// A postings segment claiming a shard id outside its shard count.
	path := PostingsPath(t.TempDir(), 0)
	if err := WritePostings(path, 4, 0, 3, 0, samplePostings()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[12:16], 4)
	reseal(raw)
	rewrite(t, path, raw)
	if _, _, err := ReadPostings(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("shard id == shard count accepted: %v", err)
	}
}

// A v3 docs segment ends its body with a list of deleted documents,
// which v4 dropped. Framed by hand — three empty documents and an
// empty list — it fails with ErrVersion, and under a v4 header its
// trailing list is corruption, never a misread.
func TestV3DocsSegmentRejected(t *testing.T) {
	e := &enc{}
	e.uvarint(3)
	for range 3 {
		for range 4 {
			e.str("")
		}
		e.uvarint(0)
	}
	e.uvarint(0) // the v3 list of deleted documents, empty
	for version, want := range map[uint16]error{3: ErrVersion, Version: ErrCorrupt} {
		path := DocsPath(t.TempDir())
		if err := writeSegment(path, Header{Version: version, Kind: KindDocs, Shards: 4, DocCount: 3}, e.b); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadDocs(path); !errors.Is(err, want) {
			t.Errorf("v3 docs body under a v%d header: want %v, got %v", version, want, err)
		}
	}
}

// The columns segment round-trips into the tables a fresh index
// annotated in doc-id order holds, and only into the snapshot it was
// stamped for.
func TestColumnsRoundTrip(t *testing.T) {
	path := ColumnsPath(t.TempDir())
	cols, schemas := sampleColumns()
	if err := WriteColumns(path, 3, 0xBEEF, cols, schemas); err != nil {
		t.Fatal(err)
	}
	want := index.New()
	for id, d := range sampleDocs().Docs {
		want.Add(d)
		want.Annotate(id, sampleAnns[id])
	}
	got := index.New()
	if err := readColumns(path, Header{DocCount: 3, SnapID: 0xBEEF}, got); err != nil {
		t.Fatal(err)
	}
	if a, b := want.Freeze().AnnotationTables(), got.Freeze().AnnotationTables(); !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", b, a)
	}
	for _, docs := range []Header{{DocCount: 3, SnapID: 0xBEEE}, {DocCount: 4, SnapID: 0xBEEF}} {
		if err := readColumns(path, docs, index.New()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("columns of snapshot (docs=3 snap=beef) read for %+v: %v", docs, err)
		}
	}
}

// A schema's slots name their documents in strictly ascending id
// order, as the writer lays them out; a repeated or descending id is
// corruption, not a second slot for the document.
func TestDocsAnnotationIDsAscend(t *testing.T) {
	for name, ids := range map[string][]int32{
		"repeated":   {1, 1},
		"descending": {2, 0},
	} {
		path := ColumnsPath(t.TempDir())
		cols := []index.AnnColumn{{Attr: "make", Text: []byte("ford"), Ends: []uint32{4}}}
		schemas := []index.AnnSchema{{Attrs: []uint32{0}, Codes: [][]uint32{{0, 0}}, Docs: ids}}
		if err := WriteColumns(path, 3, 0, cols, schemas); err != nil {
			t.Fatal(err)
		}
		if err := readColumns(path, Header{DocCount: 3}, index.New()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s annotation ids accepted: %v", name, err)
		}
	}
}

// The meta segment round-trips in sorted host order and writes
// deterministically.
func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	seg := &MetaSegment{Sites: []SiteMeta{
		{Host: "z.example", Signature: 42},
		{Host: "a.example", Signature: 7},
	}}
	if err := WriteMeta(MetaPath(dir), seg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMeta(MetaPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := []SiteMeta{{Host: "a.example", Signature: 7}, {Host: "z.example", Signature: 42}}
	if !reflect.DeepEqual(got.Sites, want) {
		t.Fatalf("meta round trip: %+v", got.Sites)
	}
	other := filepath.Join(dir, "other.seg")
	if err := WriteMeta(other, &MetaSegment{Sites: []SiteMeta{
		{Host: "a.example", Signature: 7}, {Host: "z.example", Signature: 42},
	}}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(MetaPath(dir))
	b, _ := os.ReadFile(other)
	if string(a) != string(b) {
		t.Fatal("meta segment bytes depend on input order")
	}
}

// A v1 segment — the pre-freshness format — must fail with a clean
// ErrVersion before any body byte is interpreted: the v1 docs body is
// laid out differently, and a misread would take its bytes for
// something they are not.
func TestV1SegmentRejected(t *testing.T) {
	path, raw := writeSample(t)
	binary.LittleEndian.PutUint16(raw[4:6], 1)
	reseal(raw)
	rewrite(t, path, raw)
	_, _, err := ReadDocs(path)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 segment: want ErrVersion, got %v", err)
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("error %q does not name the found version", err)
	}
}

// A tf outside int32 range is valid varint data that would silently
// wrap through the int32 cast and corrupt BM25 scores; the decoder
// must reject it like an out-of-range doc id.
func TestPostingsTFBoundsChecked(t *testing.T) {
	for _, tf := range []uint64{0, 1 << 31, 1 << 32} {
		var e enc
		e.uvarint(1)  // one term
		e.str("ok")   //
		e.uvarint(1)  // one posting
		e.varint(0)   // doc 0
		e.uvarint(tf) // out-of-range tf
		path := PostingsPath(t.TempDir(), 0)
		err := writeSegment(path, Header{
			Version: Version, Kind: KindPostings, Shards: 1, DocCount: 1,
		}, e.b)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadPostings(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("tf=%d accepted: %v", tf, err)
		}
	}
}

// A writer that crashes mid-Save leaves a torn segment only under a
// .tmp name (final names appear by rename); a reader must also survive
// the worst case of a torn file under a final name — os.Truncate
// mid-body — with a wrapped ErrCorrupt, never a panic or silent data.
func TestTornWriteDetected(t *testing.T) {
	dir := t.TempDir()
	path := DocsPath(dir)
	if _, err := writeDocs(path, 2, sampleDocs()); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{fi.Size() - 3, headerSize + 2, headerSize, 5, 0} {
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadDocs(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("docs torn at %d bytes read as %v, want ErrCorrupt", cut, err)
		}
	}
}

// CleanTmp sweeps crashed writers' droppings and nothing else.
func TestCleanTmp(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeDocs(DocsPath(dir), 1, sampleDocs()); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "docs.seg.123.tmp")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A directory with a .tmp suffix must be left alone.
	tmpDir := filepath.Join(dir, "keep.tmp")
	if err := os.Mkdir(tmpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := CleanTmp(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale tmp survived the sweep: %v", err)
	}
	if _, _, err := ReadDocs(DocsPath(dir)); err != nil {
		t.Errorf("sweep damaged a live segment: %v", err)
	}
	if _, err := os.Stat(tmpDir); err != nil {
		t.Errorf("sweep removed a directory: %v", err)
	}
	if err := CleanTmp(filepath.Join(dir, "no-such-dir")); err != nil {
		t.Errorf("missing dir is an error: %v", err)
	}
}

// A dictionary's end offsets are 32 bits: a columns body whose value
// lengths add up past 4 GiB is corrupt, though each length fits the
// bytes that remain.
func TestColumnsTextPast4GiBIsCorrupt(t *testing.T) {
	const values, length = 1 << 16, 1<<16 + 1 // 4,295,032,832 bytes in all
	var e enc
	e.uvarint(1)
	e.str("make")
	e.uvarint(values)
	for range values {
		e.uvarint(length)
	}
	e.b = append(e.b, make([]byte, length)...)
	e.uvarint(0) // no schemas
	path := ColumnsPath(t.TempDir())
	if err := writeColumns(path, 1, 0, e.b); err != nil {
		t.Fatal(err)
	}
	err := readColumns(path, Header{DocCount: 1}, index.New())
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "4 GiB") {
		t.Fatalf("readColumns = %v, want an ErrCorrupt naming the 4 GiB end offsets hold", err)
	}
}
