package index

// Batch commit: the one path by which documents enter the index
// (AddPrepared is a batch of one). One write-locked section assigns
// every id (the ordered commit point, amortized over the batch),
// appends the postings, the host column and the annotations, so a query
// sees the whole batch or none of it. The final index state is identical
// to committing the same prepared documents one by one, in order —
// including duplicate-URL handling, posting order within a term, and
// therefore scores and tie-breaks (pinned by the engine's oracle, whose
// ingest op commits batches straight through AddPreparedBatch).

// AddPreparedBatch commits prepared documents in order. ids[i] is the
// doc id of ps[i]; added[i] is false when ps[i]'s URL was already
// present (including earlier in the same batch — first occurrence
// wins, matching sequential commits), in which case ids[i] is the
// existing document's id. anns is nil or parallel to ps: anns[i]
// annotates ps[i], as Annotate would, when ps[i] is added.
func (ix *Index) AddPreparedBatch(ps []*Prepared, anns []map[string]string) (ids []int, added []bool) {
	ids = make([]int, len(ps))
	added = make([]bool, len(ps))
	if len(ps) == 0 {
		return ids, added
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.version.Add(1)
	for i, p := range ps {
		if existing, ok := ix.byURL[p.doc.URL]; ok {
			ids[i] = existing
			continue
		}
		id := len(ix.docs)
		ix.docs = append(ix.docs, p.doc)
		ix.byURL[p.doc.URL] = id
		ix.lens = append(ix.lens, p.dl)
		ix.dead = append(ix.dead, false)
		ix.hosts = append(ix.hosts, ix.hostIDLocked(p.doc.URL))
		ix.totalLen += p.dl
		for j, t := range p.terms {
			ix.postings[t] = append(ix.postings[t], Posting{Doc: int32(id), TF: p.tfs[j]})
		}
		if anns != nil {
			ix.ann.annotate(id, anns[i])
		}
		ids[i] = id
		added[i] = true
	}
	ix.ann.reclaim()
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
