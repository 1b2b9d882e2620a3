package store

import (
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"deepweb/internal/index"
)

// FuzzSegmentDecode frames arbitrary bytes as the body of a segment of
// every kind — valid magic, version, header CRC and body CRC, so the
// framing checks pass and the body decoders see the fuzzer's bytes —
// and holds each reader to the corruption contract: success or an
// error wrapping ErrCorrupt/ErrVersion, never a panic, and never an
// allocation beyond a small multiple of the input (a lying element
// count must not size a slice). A body the postings codec decodes
// cleanly must also survive decode → encode → decode unchanged,
// whatever its tfs in [1, MaxInt32] and so whichever of its lists are
// widened; so must a body the columns codec decodes cleanly: the same
// attribute names, every code's text, and the same schemas.
func FuzzSegmentDecode(f *testing.F) {
	// Seed with one valid body per kind, so mutation starts from
	// structure rather than noise.
	seedDir := f.TempDir()
	seeds := map[string]func(path string) error{
		"docs": func(p string) error { _, err := writeDocs(p, 4, sampleDocs()); return err },
		"post": func(p string) error { return WritePostings(p, 4, 1, 3, 0, samplePostings()) },
		"tabl": func(p string) error { return WriteTables(p, sampleTables()) },
		"cols": func(p string) error {
			cols, schemas := sampleColumns()
			return WriteColumns(p, 3, 0, cols, schemas)
		},
		"meta": func(p string) error {
			return WriteMeta(p, &MetaSegment{Sites: []SiteMeta{{Host: "a.example", Signature: 7}}})
		},
	}
	for name, write := range seeds {
		p := filepath.Join(seedDir, name)
		if err := write(p); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw[headerSize:], uint16(3))
	}
	// The posting loop's varint boundaries, valid and corrupt.
	var e enc
	encodePostingsBody(&e, varintBoundaryPostings())
	f.Add(e.b, uint16(math.MaxUint16))
	for _, body := range corruptPostingsBodies() {
		f.Add(body, uint16(2))
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(9))

	readers := []struct {
		kind Kind
		read func(path string) error
	}{
		{KindDocs, func(p string) error { _, _, err := ReadDocs(p); return err }},
		{KindColumns, readColumnsAsLoad},
		{KindPostings, func(p string) error { _, _, err := ReadPostings(p); return err }},
		{KindTables, func(p string) error { _, err := ReadTables(p); return err }},
		{KindMeta, func(p string) error { _, err := ReadMeta(p); return err }},
	}
	path := filepath.Join(f.TempDir(), "fuzz.seg")
	f.Fuzz(func(t *testing.T, body []byte, docCount uint16) {
		// The body is written once; each reader's header then
		// overwrites the one before it.
		seg, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		if _, err := seg.WriteAt(body, headerSize); err != nil {
			t.Fatal(err)
		}
		hdr, crc := make([]byte, headerSize), crc32.Checksum(body, castagnoli)
		for _, r := range readers {
			encodeHeader(hdr, Header{Version: Version, Kind: r.kind, Shards: 4, ShardID: 1, DocCount: uint64(docCount)}, uint64(len(body)), crc)
			if _, err := seg.WriteAt(hdr, 0); err != nil {
				t.Fatal(err)
			}
			var err error
			grew := allocated(func() { err = r.read(path) })
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("%v reader: error outside the corruption contract: %v", r.kind, err)
			}
			// 32× covers the worst honest case (a 64-byte table or doc
			// row per 2–5 encoded bytes, a map bucket per 2) with the
			// file read on top; the constant absorbs runtime noise. The
			// cheap count can be off by what the caches held when it
			// was read, up to a span per size class, so one past half
			// the limit is taken again, exactly.
			limit := uint64(32*len(body) + 256<<10)
			if grew > limit/2 {
				grew = allocatedExactly(func() { r.read(path) })
			}
			if grew > limit {
				t.Fatalf("%v reader allocated %d bytes decoding a %d-byte body (limit %d)", r.kind, grew, len(body), limit)
			}
		}

		postingsRoundTrip(t, body, uint64(docCount))
		columnsRoundTrip(t, body)
	})
}

// postingsRoundTrip checks that a body the postings codec decodes
// cleanly decodes, encoded again, to the same lists.
func postingsRoundTrip(t *testing.T, body []byte, docCount uint64) {
	d := &dec{b: string(body)}
	terms := decodePostingsBody(d, docCount)
	if d.done() != nil {
		return
	}
	var e enc
	encodePostingsBody(&e, terms)
	d = &dec{b: string(e.b)}
	again := decodePostingsBody(d, docCount)
	if err := d.done(); err != nil {
		t.Fatalf("re-encoded postings body does not decode: %v", err)
	}
	if !reflect.DeepEqual(again, terms) {
		t.Fatalf("postings round trip:\n got %+v\nwant %+v", again, terms)
	}
}

// columnsRoundTrip checks that a body the columns codec decodes
// cleanly decodes, encoded again, to the same tables: attribute names,
// each code's text, schemas.
func columnsRoundTrip(t *testing.T, body []byte) {
	d := &dec{b: string(body)}
	cols, schemas := decodeColumns(d)
	if d.done() != nil {
		return
	}
	d = &dec{b: string(encodeColumns(cols, schemas))}
	againCols, againSchemas := decodeColumns(d)
	if err := d.done(); err != nil {
		t.Fatalf("re-encoded columns body does not decode: %v", err)
	}
	if len(againCols) != len(cols) {
		t.Fatalf("columns round trip: %d attributes, want %d", len(againCols), len(cols))
	}
	for a := range cols {
		got, want := &againCols[a], &cols[a]
		if got.Attr != want.Attr || len(got.Ends) != len(want.Ends) {
			t.Fatalf("columns round trip: attribute %d is %q with %d values, want %q with %d", a, got.Attr, len(got.Ends), want.Attr, len(want.Ends))
		}
		for c := range uint32(len(want.Ends)) {
			if got.Value(c) != want.Value(c) {
				t.Fatalf("columns round trip: %q code %d is %q, want %q", want.Attr, c, got.Value(c), want.Value(c))
			}
		}
	}
	if !reflect.DeepEqual(againSchemas, schemas) {
		t.Fatalf("columns round trip: schemas\n got %+v\nwant %+v", againSchemas, schemas)
	}
}

// allocated returns the bytes f allocates on the heap, as
// runtime/metrics counts them, without stopping the world. The metric
// counts a span's objects when the span leaves its P's cache, so the
// figure can be off by a few cached spans either way: a reading near a
// bound is to be confirmed by allocatedExactly.
func allocated(f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	f()
	metrics.Read(s)
	return s[0].Value.Uint64() - before
}

// allocatedExactly returns the bytes f allocates on the heap, exactly:
// runtime.ReadMemStats flushes every P's cache, and stops the world to
// do it.
func allocatedExactly(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readColumnsAsLoad is Load's columns job — decode, then
// install into a fresh index — for the columns of sampleDocs' three
// documents: the seeds' doc count, and the bound on the per-doc
// arrays an install allocates (Load's docs segment vouches for its
// count; a fuzzed header alone does not).
func readColumnsAsLoad(path string) error {
	return readColumns(path, Header{DocCount: 3}, index.New())
}
