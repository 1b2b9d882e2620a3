package store

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"deepweb/internal/index"
)

// FuzzSegmentDecode frames arbitrary bytes as the body of a segment of
// every kind — valid magic, version, header CRC and body CRC, so the
// framing checks pass and the body decoders see the fuzzer's bytes —
// and holds each reader to the corruption contract: success or an
// error wrapping ErrCorrupt/ErrVersion, never a panic, and never an
// allocation beyond a small multiple of the input (a lying element
// count must not size a slice).
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
		{KindSpill, func(p string) error { _, _, err := readPostings(p, KindSpill); return err }},
		{KindTables, func(p string) error { _, err := ReadTables(p); return err }},
		{KindMeta, func(p string) error { _, err := ReadMeta(p); return err }},
	}
	path := filepath.Join(f.TempDir(), "fuzz.seg")
	f.Fuzz(func(t *testing.T, body []byte, docCount uint16) {
		for _, r := range readers {
			h := Header{Version: Version, Kind: r.kind, Shards: 4, ShardID: 1, DocCount: uint64(docCount)}
			if err := writeFramed(path, h, body); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := r.read(path)
			runtime.ReadMemStats(&after)
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("%v reader: error outside the corruption contract: %v", r.kind, err)
			}
			// 32× covers the worst honest case (a 64-byte table or doc
			// row per 2–5 encoded bytes, a map bucket per 2) with the
			// file read on top; the constant absorbs runtime noise.
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(body)+256<<10); grew > limit {
				t.Fatalf("%v reader allocated %d bytes decoding a %d-byte body (limit %d)", r.kind, grew, len(body), limit)
			}
		}
	})
}

// readColumnsAsLoad is engine.Load's columns job — decode, then
// install into a fresh index — for the columns of sampleDocs' three
// documents: the seeds' doc count, and the bound on the per-doc
// arrays an install allocates (Load's docs segment vouches for its
// count; a fuzzed header alone does not).
func readColumnsAsLoad(path string) error {
	return ReadColumns(path, Header{DocCount: 3}, index.New())
}
