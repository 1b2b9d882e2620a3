package store

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"deepweb/internal/index"
)

// varintBoundaryPostings is one posting list whose doc-id deltas and
// tfs sit on each side of the varint byte boundaries: a zig-zag delta
// of ±63 or -64 takes one byte and +64 two, ±8191 or -8192 two and
// +8192 three, and the largest delta five; a tf of 127 takes one byte,
// 128 two and MaxInt32 five. Doc ids go up to MaxInt32-1, so a segment
// of it states MaxInt32 documents.
func varintBoundaryPostings() []index.TermPostings {
	const top = math.MaxInt32 - 1
	deltas := []int32{0, 63, -63, 64, -64, 8191, -8191, 8192, -8192, top, -top}
	tfs := []int32{1, 127, 128, math.MaxInt32}
	ps := make([]index.Posting, len(deltas))
	doc := int32(0)
	for i, d := range deltas {
		doc += d
		ps[i] = index.Posting{Doc: doc, TF: tfs[i%len(tfs)]}
	}
	return []index.TermPostings{{Term: "edge", Postings: ps}, {Term: "one", Postings: ps[:1]}}
}

// corruptPostingsBodies are postings bodies, of a segment stating two
// documents, that break the posting loop's varint reads and tf check.
func corruptPostingsBodies() map[string][]byte {
	posting := func(raw ...byte) []byte {
		var e enc
		e.uvarint(1) // one term
		e.str("t")
		e.uvarint(1) // one posting
		return append(e.b, raw...)
	}
	return map[string][]byte{
		"delta truncated mid-varint": posting(0x80, 0x80),
		"tf truncated mid-varint":    posting(0x02, 0x80),
		"overlong delta":             posting(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x01),
		"overlong tf":                posting(0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"tf 0":                       posting(0x00, 0x00),
	}
}

// Doc-id deltas and tfs on either side of every varint length boundary
// round-trip, through the one-byte fast path and the general reads
// alike.
func TestPostingsVarintBoundariesRoundTrip(t *testing.T) {
	path := PostingsPath(t.TempDir(), 0)
	want := varintBoundaryPostings()
	if err := WritePostings(path, 1, 0, math.MaxInt32, 0, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadPostings(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// A varint cut off or running past ten bytes, and a tf of 0, fail the
// read with ErrCorrupt naming the fault.
func TestPostingsVarintCorruptionDetected(t *testing.T) {
	for name, body := range corruptPostingsBodies() {
		t.Run(name, func(t *testing.T) {
			path := PostingsPath(t.TempDir(), 0)
			if err := writeSegment(path, Header{Version: Version, Kind: KindPostings, Shards: 1, DocCount: 2}, body); err != nil {
				t.Fatal(err)
			}
			_, _, err := ReadPostings(path)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			if want := map[bool]string{true: "tf 0 outside", false: "bad "}[name == "tf 0"]; !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		})
	}
}
