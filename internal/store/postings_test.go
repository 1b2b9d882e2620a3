package store

import (
	"context"
	"errors"
	"fmt"
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
	var ps index.PostingList
	doc := int32(0)
	for i, d := range deltas {
		doc += d
		ps.Append(doc, tfs[i%len(tfs)])
	}
	return []index.TermPostings{{Term: "edge", Postings: ps}, {Term: "one", Postings: postingsOf(0, 1)}}
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

// A tf of 254 or 255 keeps a list at one byte a tf, one of 256 or
// MaxInt32 widens it; either way the tf reads back exactly after
// ReadPostings, and a search over the imported lists scores exactly as
// one over the lists that were written: ids, score bits and totals.
func TestPostingsTFsAroundOneByteSearchAlike(t *testing.T) {
	for _, tf := range []int32{254, 255, 256, math.MaxInt32} {
		t.Run(fmt.Sprint(tf), func(t *testing.T) {
			want := []index.TermPostings{
				{Term: "ford", Postings: postingsOf(0, 1, 1, tf, 2, 3)},
				{Term: "seattle", Postings: postingsOf(1, 1, 2, 1)},
			}
			path := PostingsPath(t.TempDir(), 0)
			if err := WritePostings(path, 1, 0, 3, 0, want); err != nil {
				t.Fatal(err)
			}
			got, _, err := ReadPostings(path)
			if err != nil {
				t.Fatal(err)
			}
			if pl := got[0].Postings; pl.Len() != 3 || pl.Doc(1) != 1 || pl.TF(1) != tf {
				t.Fatalf("decoded %+v: posting 1 is not doc 1 with tf %d", pl, tf)
			}
			indexOf := func(terms []index.TermPostings) *index.Index {
				ix := index.NewSharded(1)
				docs := []index.Doc{{URL: "http://a/0"}, {URL: "http://a/1"}, {URL: "http://a/2"}}
				if err := ix.ImportDocs(docs, []int32{4, 4, 4}, nil); err != nil {
					t.Fatal(err)
				}
				if err := ix.ImportTerms(terms); err != nil {
					t.Fatal(err)
				}
				return ix
			}
			read, written := indexOf(got), indexOf(want)
			for _, q := range []string{"ford", "ford seattle"} {
				g, gTotal, err := read.TopK(context.Background(), q, 5, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				w, wTotal, _ := written.TopK(context.Background(), q, 5, 0, nil)
				if !reflect.DeepEqual(g, w) || gTotal != wTotal {
					t.Fatalf("%q: read back %+v (total %d), written %+v (total %d)", q, g, gTotal, w, wTotal)
				}
				if g[0].DocID != 1 {
					t.Fatalf("%q: doc %d ranks first, not doc 1 with tf %d", q, g[0].DocID, tf)
				}
			}
		})
	}
}
