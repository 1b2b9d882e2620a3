package surface

import (
	"deepweb/internal/index"
)

// stagedSink implements core.DocSink by buffering documents instead of
// inserting them. The fetch stage runs concurrently across sites; the
// expensive tokenization happens here, in the worker, via
// index.Prepare. Insertion — and therefore doc-id assignment — waits
// for the surfacer's ordered commit point.
//
// Dedup semantics match direct insertion: Has consults the shared index
// (pages the surface-web crawl indexed before surfacing began) plus the
// sink's own buffer. Sites cannot collide across sinks — every URL a
// site's ingestion touches is on the site's own host — so buffered
// results are independent of how workers interleave.
type stagedSink struct {
	global *index.Index
	ids    map[string]int // URL → position in docs
	docs   []*index.Prepared
	anns   []map[string]string // parallel to docs; nil when unannotated
}

func newStagedSink(global *index.Index) *stagedSink {
	return &stagedSink{global: global, ids: map[string]int{}}
}

// Has reports whether the URL is in the buffer or the shared index.
func (s *stagedSink) Has(url string) bool {
	if _, ok := s.ids[url]; ok {
		return true
	}
	return s.global.Has(url)
}

// Add buffers a prepared document, deduplicating by URL.
func (s *stagedSink) Add(d index.Doc) (id int, added bool) {
	if existing, ok := s.ids[d.URL]; ok {
		return existing, false
	}
	id = len(s.docs)
	s.ids[d.URL] = id
	s.docs = append(s.docs, index.Prepare(d))
	s.anns = append(s.anns, nil)
	return id, true
}

// Annotate attaches annotations to a buffered document.
func (s *stagedSink) Annotate(docID int, anns map[string]string) {
	if docID < 0 || docID >= len(s.anns) || len(anns) == 0 {
		return
	}
	if s.anns[docID] == nil {
		s.anns[docID] = map[string]string{}
	}
	for k, v := range anns {
		s.anns[docID][k] = v
	}
}

// commit drains the buffer, annotations included, into the shared index
// as one batch in arrival order and returns how many documents were
// newly indexed. Called from the surfacer's single committer, so ids come
// out identical for any worker count.
func (s *stagedSink) commit() int {
	_, added := s.global.AddPreparedBatch(s.docs, s.anns)
	n := 0
	for _, ok := range added {
		if ok {
			n++
		}
	}
	s.docs, s.anns, s.ids = nil, nil, nil
	return n
}
