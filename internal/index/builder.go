package index

import (
	"maps"
	"sync"
)

// Builder writes an index — commits, and a snapshot's imports — and
// Freeze hands out what it holds as a reader. It is safe for concurrent
// use: one mutex orders the surfacing pipeline's workers, which call
// Has while its committer commits, and a load's install jobs.
type Builder struct {
	mu sync.Mutex
	ix Index
	// byURL is the URL -> id lookup that dedups commits, keyed by row
	// substrings; nil until the first commit or Has builds it.
	byURL  map[string]int
	ann    annLookup
	frozen bool // a reader shares ix's arrays: thaw before a write
}

// New returns an empty builder whose index saves as DefaultShards
// postings segments.
func New() *Builder { return NewSharded(DefaultShards) }

// NewSharded returns an empty builder whose index saves as n postings
// segments (n < 1 is treated as 1). The count is a snapshot layout;
// search results do not depend on it.
func NewSharded(n int) *Builder {
	return &Builder{
		ix: Index{
			segments:  max(n, 1),
			postings:  map[string]*PostingList{},
			hostIDs:   map[string]uint32{},
			hostNames: []string{""},
			ann:       newAnnStore(),
		},
		ann: newAnnLookup(),
	}
}

// Freeze returns the index built so far as a reader that shares every
// array with the builder, in O(1). No later write reaches it; the
// builder's next write pays one thaw.
func (b *Builder) Freeze() *Index {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.frozen = true
	ix := b.ix
	return &ix
}

// thaw readies a frozen builder for a write. A write appends to the
// table, the posting arrays, the host column and names, the
// dictionaries and the schema tables' columns only past the ends a
// reader holds; what it changes in place is copied here, once per
// Freeze: the term map and the posting-list headers, the host map, and
// the annotation store's (annStore.thaw). The caller holds the lock.
func (b *Builder) thaw() {
	if !b.frozen {
		return
	}
	b.frozen = false
	ix := &b.ix
	lists := make([]PostingList, 0, len(ix.postings))
	postings := make(map[string]*PostingList, len(ix.postings))
	for t, pl := range ix.postings {
		lists = append(lists, *pl)
		postings[t] = &lists[len(lists)-1]
	}
	ix.postings = postings
	ix.hostIDs = maps.Clone(ix.hostIDs)
	ix.ann.thaw()
}

// Add indexes a document and returns its id. A URL already present is
// not re-indexed (the crawler and the surfacer may both submit the same
// page); the existing id is returned with added=false.
func (b *Builder) Add(d Doc) (id int, added bool) {
	return b.AddPrepared(Prepare(d))
}

// AddPrepared commits one prepared document, unannotated, through the
// batch commit path.
func (b *Builder) AddPrepared(p *Prepared) (id int, added bool) {
	ids, ok := b.AddPreparedBatch([]*Prepared{p}, nil)
	return ids[0], ok[0]
}

// Has reports whether a URL is already indexed.
func (b *Builder) Has(url string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.urls()[url]
	return ok
}

// urls returns the URL lookup, building it from the document table
// first if it is nil. The caller holds the lock.
func (b *Builder) urls() map[string]int {
	if b.byURL == nil {
		rows := &b.ix.rows
		b.byURL = make(map[string]int, rows.Len())
		for id := range rows.Len() {
			b.byURL[rows.Doc(id).URL] = id
		}
	}
	return b.byURL
}

// AddPreparedBatch, the one path by which documents enter the index
// (AddPrepared is a batch of one), commits prepared documents in order
// in one locked section: the ordered commit point, amortized over the
// batch. The index it leaves is the one committing them one by one
// leaves — duplicate URLs, posting order and therefore scores and
// tie-breaks included (pinned by the engine's oracle). ids[i] is the
// doc id of ps[i]; added[i] is false when ps[i]'s URL was already
// present (including earlier in the same batch — first occurrence
// wins, matching sequential commits), in which case ids[i] is the
// existing document's id. anns is nil or parallel to ps: anns[i]
// annotates ps[i], as Annotate would, when ps[i] is added. The rows of
// a batch's new URLs go into one new chunk of the document table, and
// the URL lookup keys them by substrings of it.
func (b *Builder) AddPreparedBatch(ps []*Prepared, anns []map[string]string) (ids []int, added []bool) {
	ids = make([]int, len(ps))
	added = make([]bool, len(ps))
	if len(ps) == 0 {
		return ids, added
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	byURL := b.urls()
	// The chunk holds a row for every URL new to the index. A URL
	// repeated within the batch is encoded once more than it is kept,
	// which costs bytes only, and only in that rare case.
	offs := make([]int, len(ps))
	var chunk []byte
	for i, p := range ps {
		if existing, ok := byURL[p.doc.URL]; ok {
			ids[i], offs[i] = existing, -1
			continue
		}
		offs[i] = len(chunk)
		chunk = AppendRow(chunk, p.doc, p.dl)
	}
	if chunk == nil {
		return ids, added
	}
	b.thaw()
	ix := &b.ix
	rows := string(chunk)
	ref := ix.rows.addChunk(rows)
	for i, p := range ps {
		if offs[i] < 0 {
			continue
		}
		d, _, _ := ParseRow(rows[offs[i]:])
		if existing, ok := byURL[d.URL]; ok {
			ids[i] = existing
			continue
		}
		id := len(ix.lens)
		ix.rows.refs = append(ix.rows.refs, ref|uint64(offs[i]))
		byURL[d.URL] = id
		ix.lens = append(ix.lens, int32(p.dl))
		ix.hosts = append(ix.hosts, internHost(ix.hostIDs, &ix.hostNames, d.URL))
		ix.totalLen += p.dl
		for j, t := range p.terms {
			pl := ix.postings[t]
			if pl == nil {
				pl = new(PostingList)
				ix.postings[t] = pl
			}
			pl.Append(int32(id), p.tfs[j])
		}
		if anns != nil {
			ix.ann.annotate(&b.ann, id, anns[i])
		}
		ids[i] = id
		added[i] = true
	}
	return ids, added
}

// Accessors for the prepared document's analysis, for builders (the
// spill-to-disk bulk build) that index outside this package.
// The returned slices are the Prepared's own backing arrays: read,
// don't mutate.

// Doc returns the document as submitted.
func (p *Prepared) Doc() Doc { return p.doc }

// DocLen returns the BM25 document length (title terms counted twice).
func (p *Prepared) DocLen() int { return p.dl }

// Terms returns the unique terms, parallel to TermFreqs.
func (p *Prepared) Terms() []string { return p.terms }

// TermFreqs returns per-term frequencies, parallel to Terms.
func (p *Prepared) TermFreqs() []int32 { return p.tfs }
