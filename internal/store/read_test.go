package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"slices"
	"strings"
	"testing"

	"deepweb/internal/index"
)

// readSegment sizes the body from the file before it allocates: a
// header claiming a body past the end of the file fails as truncated,
// having allocated no more than FuzzSegmentDecode allows a reader, and
// a file holding bytes past its body fails as trailing bytes.
func TestReadSegmentChecksSizeFirst(t *testing.T) {
	path, raw := writeSample(t)
	body := len(raw) - headerSize

	lying := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(lying[28:36], 1<<40)
	binary.LittleEndian.PutUint32(lying[40:44], crc32.Checksum(lying[0:40], castagnoli))
	rewrite(t, path, lying)
	var err error
	grew := allocatedExactly(func() { _, _, err = ReadDocs(path) })
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "truncated segment body") {
		t.Fatalf("body length past the end of the file read as %v", err)
	}
	if limit := uint64(32*body + 256<<10); grew > limit {
		t.Fatalf("a 1 TiB body length allocated %d bytes (limit %d)", grew, limit)
	}

	rewrite(t, path, append(raw[:len(raw):len(raw)], 0, 0, 0))
	if _, _, err := ReadDocs(path); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "3 trailing bytes") {
		t.Fatalf("3 bytes past the body read as %v", err)
	}
}

// A segment that changes size while it is read — shorter or longer
// than the Stat the body length was checked against — fails with
// ErrCorrupt, in the first window and past it.
func TestReadSegmentSizeChangeDetected(t *testing.T) {
	big := &DocsSegment{}
	for i := range 40 {
		big.Docs = append(big.Docs, index.Doc{URL: "http://a/" + string(rune('a'+i)), Text: strings.Repeat("w ", 2000+i)})
		big.Lens = append(big.Lens, int32(2000+i))
	}
	for name, seg := range map[string]*DocsSegment{"one window": sampleDocs(), "several windows": big} {
		path := DocsPath(t.TempDir())
		if _, err := writeDocs(path, 1, seg); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if name == "several windows" && len(raw) < 2*64<<10 {
			t.Fatalf("%d-byte segment fills fewer than two windows", len(raw))
		}
		got, _, err := ReadDocs(path)
		if err != nil || !slices.Equal(got.Docs, seg.Docs) {
			t.Fatalf("%s: intact segment read as %v", name, err)
		}
		for _, tc := range []struct {
			what string
			file []byte
		}{
			{"shrank by 7", raw[:len(raw)-7]},
			{"shrank by half", raw[:headerSize+(len(raw)-headerSize)/2]},
			{"grew by 1", append(raw[:len(raw):len(raw)], 'x')},
		} {
			_, _, err := readFrame(path, bytes.NewReader(tc.file), int64(len(raw)), KindDocs)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "changed size while read") {
				t.Errorf("%s: segment that %s read as %v", name, tc.what, err)
			}
		}
	}
}
