// Package store is the snapshot codec: a versioned, segment-per-shard
// binary format that persists a surfaced world so serving processes can
// warm-start from disk instead of re-running the crawl (the paper's
// whole point — surface once offline, serve many times from the
// ordinary index).
//
// A snapshot directory holds one docs segment (the document table),
// one columns segment (the §5.1 annotation store's
// schema tables), one postings segment per shard of the term space,
// optionally one meta segment (per-site refresh signatures) and
// optionally one tables segment (the §6 semantic store's raw tables).
// Every segment is self-describing:
//
//	magic "DWS1" | version u16 | kind u16 | shards u32 | shardID u32
//	| docCount u64 | snapID u32 | bodyLen u64 | bodyCRC u32
//	| headerCRC u32                                          (44 bytes)
//	| body (bodyLen bytes, varint-encoded)
//
// All CRCs are CRC-32C (Castagnoli). The header CRC catches a mangled
// header before any field is trusted; the body CRC catches truncation
// and bit rot. snapID is the generation binding for the *index*
// segments: the CRC-32C of the docs body followed by the columns body,
// stamped into the docs, the columns and every postings segment of the
// same save, so segments from different snapshot generations (a save
// that crashed halfway over an older snapshot, a hand-mixed directory)
// cannot be loaded together even when their doc counts coincide, and
// snapshots that differ only in annotations differ in id. Because it
// is content-derived, the columns are built in doc-id order and Writer
// places terms with a seedless hash of the term alone, identical
// indexes produce byte-identical directories — docs, columns, postings
// and meta — from any process, whichever way they were built. The
// tables segment is self-contained — one atomically-replaced file, loadable
// without any index segments — so it carries no generation binding; a
// crash between an index save and a tables save can leave it one
// generation behind the index. Posting lists are delta-varint coded
// (zig-zag doc-id deltas, so any stored order round-trips) — the
// dominant cost of a snapshot compresses to roughly two bytes per
// posting.
//
// A body is read once, streamed into the string the decoder walks, and
// decoding allocates per table, not per string: the docs body itself
// becomes the loaded index's document table (readRows), in the index's
// own row encoding (index.AppendRow), and a postings body decodes into
// two arrays (decodePostingsBody).
//
// Corruption is always a returned error, never a panic: a serving
// binary pointed at a bad snapshot must fail loudly at startup, not
// crash mid-query.
//
// The index segments of a directory are written only through Writer,
// which owns the directory protocol (sweep, docs first, then columns
// and postings stamped with the snapshot id, meta last), the placement
// of terms in segments and the check that a stream's URLs are
// distinct, and read only through Load, which decodes them into one
// index.Builder and checks every segment's header against the docs
// segment's. writer.go holds both ends of that protocol, this file the
// segment framing and the per-kind codecs, columns.go the columns
// segment's.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"deepweb/internal/index"
	"deepweb/internal/webtables"
)

// Version is the current snapshot format version. Readers accept
// exactly this version: the format is an internal serving artifact
// regenerated by `deepcrawl -out`, so compatibility policy is
// "re-crawl on mismatch", recorded loudly in the error.
//
// v2 (the freshness format) added the meta segment carrying per-site
// content signatures for incremental refresh. v3 moved annotations
// out of the docs segment, where each document spelled its pairs out,
// into the columns segment, which holds the schema tables a loader
// installs as they are. v4 dropped the docs segment's list of deleted
// documents: the index is append-only, and a refresh writes a fresh
// one. Older snapshots fail with ErrVersion and must be regenerated.
const Version = 4

// Kind tags what a segment holds.
type Kind uint16

const (
	KindDocs     Kind = 1
	KindPostings Kind = 2
	KindTables   Kind = 3
	KindMeta     Kind = 4
	KindColumns  Kind = 6 // 5 tagged a retired kind and stays unassigned
)

func (k Kind) String() string {
	switch k {
	case KindDocs:
		return "docs"
	case KindPostings:
		return "postings"
	case KindTables:
		return "tables"
	case KindMeta:
		return "meta"
	case KindColumns:
		return "columns"
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// Header is the decoded fixed-size segment header.
type Header struct {
	Version  uint16
	Kind     Kind
	Shards   uint32 // total posting-shard count of the snapshot
	ShardID  uint32 // which shard a postings segment holds (0 otherwise)
	DocCount uint64 // documents in the snapshot (consistency check)
	SnapID   uint32 // generation binding: CRC-32C of the docs and columns bodies
}

// MaxShards bounds the shard count a reader will trust. Far above any
// real configuration (DefaultShards is 16), it exists so a lying
// header cannot drive a multi-gigabyte allocation before the first
// postings file is even opened.
const MaxShards = 1 << 16

// ErrCorrupt marks a segment that failed structural validation — bad
// magic, CRC mismatch, truncation, trailing garbage, or a body that
// decodes inconsistently. Test with errors.Is.
var ErrCorrupt = errors.New("corrupt snapshot segment")

// ErrVersion marks a segment written by an incompatible format
// version. Test with errors.Is.
var ErrVersion = errors.New("unsupported snapshot version")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	magic      = "DWS1"
	headerSize = 44
)

// Segment file names within a snapshot directory.

// DocsPath returns the docs segment path under dir.
func DocsPath(dir string) string { return filepath.Join(dir, "docs.seg") }

// ColumnsPath returns the columns segment path under dir.
func ColumnsPath(dir string) string { return filepath.Join(dir, "columns.seg") }

// PostingsPath returns shard si's postings segment path under dir.
func PostingsPath(dir string, si int) string {
	return filepath.Join(dir, fmt.Sprintf("postings-%04d.seg", si))
}

// TablesPath returns the semantic tables segment path under dir.
func TablesPath(dir string) string { return filepath.Join(dir, "tables.seg") }

// MetaPath returns the refresh-metadata segment path under dir.
func MetaPath(dir string) string { return filepath.Join(dir, "meta.seg") }

// CleanTmp removes stale *.tmp files from a snapshot directory — the
// droppings of a writer that crashed between writing a segment and
// renaming it into place. They are never live data (readers only open
// final segment names), but left alone they accumulate and invite
// confusion. A missing dir is not an error.
func CleanTmp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// writeSegment frames a body with the checked header and writes it
// atomically: the header, then the body in place, to a temp file that
// is renamed over path, so a crash mid-save never leaves a
// half-written segment under the final name.
func writeSegment(path string, h Header, body []byte) error {
	var hdr [headerSize]byte
	encodeHeader(hdr[:], h, uint64(len(body)), crc32.Checksum(body, castagnoli))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(body)
	}
	if err1 := f.Close(); err == nil {
		err = err1
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// encodeHeader fills the 44-byte fixed header into buf (len ≥
// headerSize), including the trailing header CRC. Shared by the
// buffer-at-once writeSegment and the streaming docsWriter, which
// patches the header in place once the body CRC is known.
func encodeHeader(buf []byte, h Header, bodyLen uint64, bodyCRC uint32) {
	copy(buf[0:4], magic)
	binary.LittleEndian.PutUint16(buf[4:6], h.Version)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(h.Kind))
	binary.LittleEndian.PutUint32(buf[8:12], h.Shards)
	binary.LittleEndian.PutUint32(buf[12:16], h.ShardID)
	binary.LittleEndian.PutUint64(buf[16:24], h.DocCount)
	binary.LittleEndian.PutUint32(buf[24:28], h.SnapID)
	binary.LittleEndian.PutUint64(buf[28:36], bodyLen)
	binary.LittleEndian.PutUint32(buf[36:40], bodyCRC)
	binary.LittleEndian.PutUint32(buf[40:44], crc32.Checksum(buf[0:40], castagnoli))
}

// readSegment reads and validates a segment, returning its header and
// body. wantKind guards against segment files swapped between roles.
// Header and file size are checked before the body is allocated; it
// then streams through a 64 KiB window, CRC'd as it goes, into the
// string returned, its one copy.
func readSegment(path string, wantKind Kind) (Header, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, "", err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return Header{}, "", err
	}
	return readFrame(path, f, fi.Size(), wantKind)
}

// windows holds the buffers readFrame streams bodies through.
var windows = sync.Pool{New: func() any { return new([64 << 10]byte) }}

// readFrame reads a segment from r, which Stat said holds size bytes.
// A file that changes size while it is read fails with ErrCorrupt.
func readFrame(path string, r io.Reader, size int64, wantKind Kind) (Header, string, error) {
	var raw [headerSize]byte
	h, err := readHeader(path, r, raw[:], wantKind)
	if err != nil {
		return Header{}, "", err
	}
	bodyLen, have := binary.LittleEndian.Uint64(raw[28:36]), uint64(max(size-headerSize, 0))
	if have < bodyLen {
		return Header{}, "", fmt.Errorf("%s: truncated segment body (%d of %d bytes): %w", path, have, bodyLen, ErrCorrupt)
	}
	if have > bodyLen {
		return Header{}, "", fmt.Errorf("%s: %d trailing bytes after body: %w", path, have-bodyLen, ErrCorrupt)
	}
	var body strings.Builder
	body.Grow(int(bodyLen))
	crc := crc32.New(castagnoli)
	window := windows.Get().(*[64 << 10]byte)
	defer windows.Put(window)
	n, err := io.CopyBuffer(io.MultiWriter(&body, crc), io.LimitReader(r, int64(bodyLen)+1), window[:])
	if err != nil {
		return Header{}, "", err
	}
	if uint64(n) != bodyLen {
		return Header{}, "", fmt.Errorf("%s: segment changed size while read (%d body bytes, %d when checked): %w", path, n, bodyLen, ErrCorrupt)
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(raw[36:40]); got != want {
		return Header{}, "", fmt.Errorf("%s: body CRC mismatch (got %08x, stored %08x): %w", path, got, want, ErrCorrupt)
	}
	return h, body.String(), nil
}

// peekHeader reads and validates only the 44-byte header of the
// segment at path — magic, header CRC, version, kind and shard fields
// checked as readSegment checks them — leaving the body unread and
// unchecked. Load reads the docs segment's header first to learn the
// shard count before it reads any body.
func peekHeader(path string, wantKind Kind) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	var raw [headerSize]byte
	return readHeader(path, f, raw[:], wantKind)
}

// readHeader reads raw, headerSize bytes, from r and checks them as a
// header.
func readHeader(path string, r io.Reader, raw []byte, wantKind Kind) (Header, error) {
	if n, err := io.ReadFull(r, raw); errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return Header{}, fmt.Errorf("%s: truncated header (%d bytes): %w", path, n, ErrCorrupt)
	} else if err != nil {
		return Header{}, err
	}
	if string(raw[0:4]) != magic {
		return Header{}, fmt.Errorf("%s: bad magic %q: %w", path, raw[0:4], ErrCorrupt)
	}
	if got, want := crc32.Checksum(raw[0:40], castagnoli), binary.LittleEndian.Uint32(raw[40:44]); got != want {
		return Header{}, fmt.Errorf("%s: header CRC mismatch (got %08x, stored %08x): %w", path, got, want, ErrCorrupt)
	}
	h := Header{
		Version:  binary.LittleEndian.Uint16(raw[4:6]),
		Kind:     Kind(binary.LittleEndian.Uint16(raw[6:8])),
		Shards:   binary.LittleEndian.Uint32(raw[8:12]),
		ShardID:  binary.LittleEndian.Uint32(raw[12:16]),
		DocCount: binary.LittleEndian.Uint64(raw[16:24]),
		SnapID:   binary.LittleEndian.Uint32(raw[24:28]),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%s: format version %d, reader supports %d (re-run deepcrawl -out): %w",
			path, h.Version, Version, ErrVersion)
	}
	if h.Kind != wantKind {
		return Header{}, fmt.Errorf("%s: segment kind %v, want %v: %w", path, h.Kind, wantKind, ErrCorrupt)
	}
	if wantKind == KindDocs || wantKind == KindPostings {
		if h.Shards < 1 || h.Shards > MaxShards {
			return Header{}, fmt.Errorf("%s: shard count %d outside [1, %d]: %w", path, h.Shards, MaxShards, ErrCorrupt)
		}
		if h.ShardID >= h.Shards {
			return Header{}, fmt.Errorf("%s: shard id %d of %d shards: %w", path, h.ShardID, h.Shards, ErrCorrupt)
		}
	}
	return h, nil
}

// enc builds a varint-encoded segment body.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) str(s string)     { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }

// dec walks a validated body with bounds-checked reads. CRC has
// already vouched for the bytes, but the decoder still refuses to read
// past the end or mis-size a string — a logic bug or a deliberately
// crafted file must surface as ErrCorrupt, not a panic. Every string
// it reads is a substring of the body.
type dec struct {
	b    string
	path string
	err  error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s: body decode: %s: %w", d.path, what, ErrCorrupt)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := index.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// str reads a length-prefixed string, a substring of the body.
func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail(fmt.Sprintf("string length %d exceeds remaining %d bytes", n, len(d.b)))
		return ""
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

// count reads a uvarint element count and sanity-bounds it against the
// remaining bytes — each element encodes to at least minBytes — so a
// corrupt count cannot drive an allocation beyond a small multiple of
// the file size (FuzzSegmentDecode holds every reader to that).
func (d *dec) count(what string, minBytes int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/minBytes) {
		d.fail(fmt.Sprintf("%s count %d exceeds what the remaining %d bytes can hold", what, n, len(d.b)))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%s: body decode: %d undecoded bytes: %w", d.path, len(d.b), ErrCorrupt)
	}
	return nil
}

// DocsSegment is the decoded document table: documents and their BM25
// lengths, indexed by doc id. Anns is always empty: the annotations
// are in the columns segment. It stays for the traced replay in
// bench/, which annotates from it.
type DocsSegment struct {
	Docs []index.Doc
	Lens []int32
	Anns []map[string]string
}

// ReadDocs reads the docs segment as readRows does and decodes every
// row into a Doc, whose fields are substrings of the body.
func ReadDocs(path string) (*DocsSegment, Header, error) {
	t, h, err := readRows(path)
	if err != nil {
		return nil, Header{}, err
	}
	seg := &DocsSegment{Docs: make([]index.Doc, t.Len()), Lens: t.Lens()}
	for id := range seg.Docs {
		seg.Docs[id] = t.Doc(id)
	}
	return seg, h, nil
}

// readRows reads the docs segment, checks its doc count against the
// header's, and hands the body to index.ScanRows, which walks the rows
// once — each row checked and parsed once (index.ParseRow, the row
// codec AppendRow writes) for where it starts, its BM25 length, its
// host and its URL's hash — and checks that the URLs are distinct. It
// allocates the body and the table's columns, nothing per row; Load
// hands the table to index.ImportRows, so the body is the loaded
// index's document table.
func readRows(path string) (*index.RowTable, Header, error) {
	h, body, err := readSegment(path, KindDocs)
	if err != nil {
		return nil, Header{}, err
	}
	d := &dec{b: body, path: path}
	n := d.count("doc", 5)
	if d.err == nil && uint64(n) != h.DocCount {
		d.fail(fmt.Sprintf("body holds %d docs, header says %d", n, h.DocCount))
	}
	if d.err != nil {
		return nil, Header{}, d.err
	}
	t, err := index.ScanRows(body, len(body)-len(d.b), n)
	if err != nil {
		return nil, Header{}, fmt.Errorf("%s: body decode: %w: %w", path, err, ErrCorrupt)
	}
	return t, h, nil
}

// WritePostings encodes and writes one shard's postings segment,
// stamped with the snapshot id of the docs segment of the same save.
// Doc ids are zig-zag delta coded so the stored order — whatever order
// the index appended in — round-trips exactly.
func WritePostings(path string, shards, shardID, docCount int, snapID uint32, terms []index.TermPostings) error {
	var e enc
	encodePostingsBody(&e, terms)
	return writeSegment(path, Header{
		Version:  Version,
		Kind:     KindPostings,
		Shards:   uint32(shards),
		ShardID:  uint32(shardID),
		DocCount: uint64(docCount),
		SnapID:   snapID,
	}, e.b)
}

// ReadPostings reads and decodes one postings segment. Every decoded
// doc id is bounds-checked against the header's doc count.
func ReadPostings(path string) ([]index.TermPostings, Header, error) {
	h, body, err := readSegment(path, KindPostings)
	if err != nil {
		return nil, Header{}, err
	}
	d := &dec{b: body, path: path}
	terms := decodePostingsBody(d, h.DocCount)
	if err := d.done(); err != nil {
		return nil, Header{}, err
	}
	return terms, h, nil
}

// encodePostingsBody appends the shared postings body encoding: term
// count, then per term its string, posting count, and zig-zag doc-id
// deltas with tf.
func encodePostingsBody(e *enc, terms []index.TermPostings) {
	e.uvarint(uint64(len(terms)))
	for _, tp := range terms {
		e.str(tp.Term)
		pl := tp.Postings
		e.uvarint(uint64(pl.Len()))
		prev := int64(0)
		for i := range pl.Len() {
			doc := int64(pl.Doc(i))
			e.varint(doc - prev)
			prev = doc
			e.uvarint(uint64(pl.TF(i)))
		}
	}
}

// countPostings returns how many postings a postings body holds,
// walking only its structure: each term's string and posting count,
// then past twice that many varints by their final bytes. It stops at
// the first fault with what it has counted; the decode that follows
// reads the same counts, finds the fault and reports it. Every count
// is bounded by the bytes left, so the total is at most len(b).
func countPostings(b string) int {
	d := &dec{b: b}
	total := 0
	for range d.count("term", 2) {
		d.str()
		n := d.count("posting", 2)
		if d.err != nil {
			break
		}
		total += n
		rest, ends := d.b, 2*n
		// Eight bytes at a time while they cannot hold the last end:
		// a byte below 0x80 ends a varint.
		for ends >= 8 && len(rest) >= 8 {
			w := uint64(rest[0]) | uint64(rest[1])<<8 | uint64(rest[2])<<16 | uint64(rest[3])<<24 |
				uint64(rest[4])<<32 | uint64(rest[5])<<40 | uint64(rest[6])<<48 | uint64(rest[7])<<56
			ends -= 8 - bits.OnesCount64(w&0x8080808080808080)
			rest = rest[8:]
		}
		for ends > 0 && len(rest) > 0 {
			if rest[0] < 0x80 {
				ends--
			}
			rest = rest[1:]
		}
		d.b = rest
	}
	return total
}

// decodePostingsBody is the inverse, bounds-checking every decoded doc
// id against docCount and every tf against [1, MaxInt32]; errors
// accumulate in d. The lists are three-index sub-slices of one doc-id
// array and one tf array for the whole body, sized by countPostings;
// a list that needs a tf above 255 widens into a tf array of its own.
// The terms are substrings of one string, a copy of their bytes made
// once the body is walked. The posting loop reads in place: a delta or
// tf that fits one byte — most of them — is read inline, and only a
// longer one goes through uvarint.
func decodePostingsBody(d *dec, docCount uint64) []index.TermPostings {
	total := countPostings(d.b)
	allDocs, allTFs := make([]int32, total), make([]byte, total)
	nTerms := d.count("term", 2)
	terms := make([]index.TermPostings, 0, nTerms)
	termBytes := 0
	for i := 0; i < nTerms && d.err == nil; i++ {
		term := d.str()
		termBytes += len(term)
		nPost := d.count("posting", 2)
		if d.err != nil {
			break
		}
		// countPostings read this same count, so the arrays hold it.
		// The list is docs and tfs themselves until a tf above 255
		// makes Set widen it; from then on every posting goes through
		// Set.
		docs, tfs := allDocs[:nPost:nPost], allTFs[:nPost:nPost]
		allDocs, allTFs = allDocs[nPost:], allTFs[nPost:]
		pl, narrow := index.NewPostingList(docs, tfs), true
		b := d.b
		prev := int64(0)
		for j := range docs {
			var zz, tf uint64
			if len(b) > 0 && b[0] < 0x80 {
				zz, b = uint64(b[0]), b[1:]
			} else {
				v, n := index.Uvarint(b)
				if n <= 0 {
					d.fail("bad varint")
					break
				}
				zz, b = v, b[n:]
			}
			if len(b) > 0 && b[0] < 0x80 {
				tf, b = uint64(b[0]), b[1:]
			} else {
				v, n := index.Uvarint(b)
				if n <= 0 {
					d.fail("bad uvarint")
					break
				}
				tf, b = v, b[n:]
			}
			delta := int64(zz>>1) ^ -int64(zz&1) // zig-zag, as binary.Varint
			doc := prev + delta
			prev = doc
			if doc < 0 || uint64(doc) >= docCount {
				d.fail(fmt.Sprintf("term %q: posting doc %d of %d", term, doc, docCount))
				break
			}
			if tf < 1 || tf > math.MaxInt32 {
				d.fail(fmt.Sprintf("term %q: tf %d outside [1, %d]", term, tf, math.MaxInt32))
				break
			}
			if narrow && tf <= math.MaxUint8 {
				docs[j], tfs[j] = int32(doc), byte(tf)
			} else {
				pl.Set(j, int32(doc), int32(tf))
				narrow = false
			}
		}
		d.b = b
		terms = append(terms, index.TermPostings{Term: term, Postings: pl})
	}
	if d.err != nil {
		return nil
	}
	var sb strings.Builder
	sb.Grow(termBytes)
	for _, tp := range terms {
		sb.WriteString(tp.Term)
	}
	all := sb.String()
	for i := range terms {
		n := len(terms[i].Term)
		terms[i].Term, all = all[:n], all[n:]
	}
	return terms
}

// MetaSegment is the refresh metadata: one content signature per
// surfaced site, recorded at surfacing time. A later refresh pass
// recomputes each site's signature and re-surfaces only the sites
// whose signature moved. Like the tables segment it is self-contained
// (no generation binding): refreshing against slightly stale
// signatures merely re-surfaces a site needlessly, it cannot corrupt
// the index.
type MetaSegment struct {
	Sites []SiteMeta
}

// SiteMeta is one site's entry in the meta segment.
type SiteMeta struct {
	Host      string
	Signature uint64
}

// WriteMeta encodes and writes the refresh-metadata segment. Sites are
// emitted in host order so identical engines produce byte-identical
// segments.
func WriteMeta(path string, seg *MetaSegment) error {
	sites := append([]SiteMeta(nil), seg.Sites...)
	sort.Slice(sites, func(i, j int) bool { return sites[i].Host < sites[j].Host })
	var e enc
	e.uvarint(uint64(len(sites)))
	for _, s := range sites {
		e.str(s.Host)
		e.uvarint(s.Signature)
	}
	return writeSegment(path, Header{Version: Version, Kind: KindMeta}, e.b)
}

// ReadMeta reads and decodes the refresh-metadata segment.
func ReadMeta(path string) (*MetaSegment, error) {
	_, body, err := readSegment(path, KindMeta)
	if err != nil {
		return nil, err
	}
	d := &dec{b: body, path: path}
	n := d.count("site", 2)
	seg := &MetaSegment{Sites: make([]SiteMeta, 0, n)}
	for i := 0; i < n && d.err == nil; i++ {
		seg.Sites = append(seg.Sites, SiteMeta{Host: d.str(), Signature: d.uvarint()})
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return seg, nil
}

// TablesSegment is the decoded §6 semantic store input: the
// quality-filtered raw tables a deep crawl pooled, plus the crawl
// provenance counters the semantic server logs at startup.
type TablesSegment struct {
	PagesCrawled int
	RawTables    int
	Tables       []webtables.RawTable
}

// WriteTables encodes and writes the semantic tables segment.
func WriteTables(path string, seg *TablesSegment) error {
	var e enc
	e.uvarint(uint64(seg.PagesCrawled))
	e.uvarint(uint64(seg.RawTables))
	e.uvarint(uint64(len(seg.Tables)))
	for _, t := range seg.Tables {
		e.str(t.URL)
		e.uvarint(uint64(len(t.Headers)))
		for _, h := range t.Headers {
			e.str(h)
		}
		e.uvarint(uint64(len(t.Rows)))
		for _, row := range t.Rows {
			e.uvarint(uint64(len(row)))
			for _, cell := range row {
				e.str(cell)
			}
		}
	}
	return writeSegment(path, Header{Version: Version, Kind: KindTables}, e.b)
}

// ReadTables reads and decodes the semantic tables segment.
func ReadTables(path string) (*TablesSegment, error) {
	_, body, err := readSegment(path, KindTables)
	if err != nil {
		return nil, err
	}
	d := &dec{b: body, path: path}
	seg := &TablesSegment{
		PagesCrawled: int(d.uvarint()),
		RawTables:    int(d.uvarint()),
	}
	nTables := d.count("table", 3)
	seg.Tables = make([]webtables.RawTable, 0, nTables)
	for i := 0; i < nTables && d.err == nil; i++ {
		t := webtables.RawTable{URL: d.str()}
		nHead := d.count("header", 1)
		for j := 0; j < nHead && d.err == nil; j++ {
			t.Headers = append(t.Headers, d.str())
		}
		nRows := d.count("row", 1)
		for j := 0; j < nRows && d.err == nil; j++ {
			nCells := d.count("cell", 1)
			row := make([]string, 0, nCells)
			for c := 0; c < nCells && d.err == nil; c++ {
				row = append(row, d.str())
			}
			t.Rows = append(t.Rows, row)
		}
		seg.Tables = append(seg.Tables, t)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return seg, nil
}
