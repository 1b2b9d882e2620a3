package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"deepweb/internal/index"
)

// The columns segment holds the §5.1 annotation store as the index
// keeps it in memory — a live index's tables (Index.ExportAnnotations)
// or, for a tokenized stream, an index.AnnBuilder's, which are the
// same tables for the same documents — so a load installs it instead
// of re-interning every document's pairs. The body:
//
//	attrs uvarint
//	per attribute: name str | values uvarint | values × len uvarint
//	               | the values' bytes, back to back, in code order
//	schemas uvarint                          (schema 1 on; 0 has none)
//	per schema:    attrs uvarint | attrs × id uvarint (ascending)
//	               | slots uvarint | slots × doc-id delta uvarint
//	               | per attribute, slots × code uvarint
//
// Doc-id deltas start from 0, so the first is the first slot's id. A
// dictionary is the index's own layout (index.AnnColumn) less what a
// loader can compute: the lengths become its end offsets and the bytes
// its text. The rest — numeric readings, the longest value's word
// count, the code tables, each document's schema and slot — is left
// out, and index.InstallAnnotations derives it.

// encodeColumns returns the columns body of the given tables. The body
// is sized up front, as if no length, id, code or delta took more than
// three bytes, so a snapshot's tables are not copied over and over as
// it grows.
func encodeColumns(cols []index.AnnColumn, schemas []index.AnnSchema) []byte {
	size := 2 * binary.MaxVarintLen64
	for _, c := range cols {
		size += len(c.Attr) + 2*binary.MaxVarintLen64 + len(c.Text) + 3*len(c.Ends)
	}
	for _, t := range schemas {
		size += 2*binary.MaxVarintLen64 + 3*len(t.Attrs) + 3*len(t.Docs)*(1+len(t.Attrs))
	}
	e := enc{b: make([]byte, 0, size)}
	e.uvarint(uint64(len(cols)))
	for _, c := range cols {
		e.str(c.Attr)
		e.uvarint(uint64(len(c.Ends)))
		prev := uint32(0)
		for _, end := range c.Ends {
			e.uvarint(uint64(end - prev))
			prev = end
		}
		e.b = append(e.b, c.Text[:prev]...)
	}
	e.uvarint(uint64(len(schemas)))
	for _, t := range schemas {
		e.uvarint(uint64(len(t.Attrs)))
		for _, a := range t.Attrs {
			e.uvarint(uint64(a))
		}
		e.uvarint(uint64(len(t.Docs)))
		prev := int64(0)
		for _, id := range t.Docs {
			e.uvarint(uint64(int64(id) - prev))
			prev = int64(id)
		}
		for _, codes := range t.Codes {
			for _, c := range codes {
				e.uvarint(uint64(c))
			}
		}
	}
	return e.b
}

// WriteColumns encodes the given tables — cols by attribute id, the
// tables of schema 1 on — and writes them as a columns segment for a
// snapshot of docCount documents with id snapID. Writer writes the
// columns of a snapshot itself; this is for tables made by hand.
func WriteColumns(path string, docCount int, snapID uint32, cols []index.AnnColumn, schemas []index.AnnSchema) error {
	return writeColumns(path, docCount, snapID, encodeColumns(cols, schemas))
}

func writeColumns(path string, docCount int, snapID uint32, body []byte) error {
	return writeSegment(path, Header{Version: Version, Kind: KindColumns, DocCount: uint64(docCount), SnapID: snapID}, body)
}

// readColumns reads the columns segment at path, which must belong to
// the snapshot whose docs segment has header docs, and installs its
// tables into b. A segment of another snapshot, a body that does not
// decode and tables b.InstallAnnotations refuses all fail with
// ErrCorrupt, and leave b without annotations.
func readColumns(path string, docs Header, b *index.Builder) error {
	h, body, err := readSegment(path, KindColumns)
	if err != nil {
		return err
	}
	want := Header{Version: Version, Kind: KindColumns, DocCount: docs.DocCount, SnapID: docs.SnapID}
	if err := sameSnapshot(path, h, want); err != nil {
		return err
	}
	d := &dec{b: body, path: path}
	cols, schemas := decodeColumns(d)
	if err := d.done(); err != nil {
		return err
	}
	if err := b.InstallAnnotations(cols, schemas, int(docs.DocCount)); err != nil {
		return fmt.Errorf("%s: %w: %w", path, err, ErrCorrupt)
	}
	return nil
}

// decodeColumns is encodeColumns' inverse. It checks what the encoding
// alone can break — counts the remaining bytes cannot hold, an empty
// name, value or schema (a schema count assumes three bytes a schema),
// a dictionary text past the 4 GiB its end offsets hold, an id or code
// past 32 bits — and leaves the tables' own rules
// to InstallAnnotations; errors accumulate in d. The walk over a
// dictionary's lengths fills its end offsets, and its text is one copy
// of its bytes; names are cloned: nothing keeps the body reachable.
func decodeColumns(d *dec) ([]index.AnnColumn, []index.AnnSchema) {
	cols := make([]index.AnnColumn, d.count("attribute", 2))
	for a := 0; a < len(cols) && d.err == nil; a++ {
		c := &cols[a]
		if c.Attr = strings.Clone(d.str()); c.Attr == "" && d.err == nil {
			d.fail(fmt.Sprintf("attribute %d has no name", a))
		}
		c.Ends = make([]uint32, d.count("value", 2))
		total := uint64(0)
		for i := range c.Ends {
			n := d.uvarint()
			if (n == 0 || n > uint64(len(d.b))) && d.err == nil {
				d.fail(fmt.Sprintf("attribute %q: value length %d of %d remaining bytes", c.Attr, n, len(d.b)))
			}
			if total += n; total > math.MaxUint32 && d.err == nil {
				d.fail(fmt.Sprintf("attribute %q: values' bytes pass the 4 GiB an end offset holds", c.Attr))
			}
			if d.err != nil {
				break
			}
			c.Ends[i] = uint32(total)
		}
		if d.err == nil && total > uint64(len(d.b)) {
			d.fail(fmt.Sprintf("attribute %q: values' %d bytes exceed remaining %d", c.Attr, total, len(d.b)))
		}
		if d.err != nil {
			break
		}
		c.Text = []byte(d.b[:total])
		d.b = d.b[total:]
	}
	schemas := make([]index.AnnSchema, d.count("schema", 3))
	for s := 0; s < len(schemas) && d.err == nil; s++ {
		t := &schemas[s]
		t.Attrs = make([]uint32, d.count("schema attribute", 1))
		for i := range t.Attrs {
			t.Attrs[i] = d.uint32("attribute id")
		}
		slots := d.count("slot", 1+len(t.Attrs))
		if (len(t.Attrs) == 0 || slots == 0) && d.err == nil {
			d.fail(fmt.Sprintf("schema %d has %d attributes and %d slots", s+1, len(t.Attrs), slots))
		}
		t.Docs = make([]int32, slots)
		prev := uint64(0)
		for i := range t.Docs {
			prev += d.uvarint()
			t.Docs[i] = int32(min(prev, math.MaxInt32)) // doc ids are int32: clamped is past them all
		}
		codes := make([]uint32, len(t.Attrs)*slots)
		for i := range codes {
			codes[i] = d.uint32("code")
		}
		t.Codes = make([][]uint32, len(t.Attrs))
		for i := range t.Codes {
			t.Codes[i] = codes[i*slots : (i+1)*slots : (i+1)*slots]
		}
	}
	return cols, schemas
}

// uint32 reads a uvarint that must fit in 32 bits.
func (d *dec) uint32(what string) uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail(fmt.Sprintf("%s %d exceeds 32 bits", what, v))
		return 0
	}
	return uint32(v)
}
