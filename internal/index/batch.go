package index

// Batch commit: the one path by which documents enter the index
// (AddPrepared is a batch of one). One pass under the document-table
// lock assigns every id (the ordered commit point, amortized over the
// batch), then postings are bucketed by shard in doc order and each
// shard is locked once per batch instead of once per document. The
// final index state is identical to committing the same prepared
// documents one by one, in order — including duplicate-URL handling,
// posting order within a term, and therefore scores and tie-breaks
// (pinned by test).

// AddPreparedBatch commits prepared documents in order. ids[i] is the
// doc id of ps[i]; added[i] is false when ps[i]'s URL was already
// present (including earlier in the same batch — first occurrence
// wins, matching sequential commits), in which case ids[i] is the
// existing document's id.
func (ix *Index) AddPreparedBatch(ps []*Prepared) (ids []int, added []bool) {
	ids = make([]int, len(ps))
	added = make([]bool, len(ps))
	if len(ps) == 0 {
		return ids, added
	}

	ix.mu.Lock()
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
		ix.totalLen += p.dl
		if p.doc.Source != "" {
			ix.bySource[p.doc.Source]++
		}
		ids[i] = id
		added[i] = true
	}
	ix.mu.Unlock()

	type termPosting struct {
		term string
		p    posting
	}
	buckets := make([][]termPosting, len(ix.shards))
	for i, p := range ps {
		if !added[i] {
			continue
		}
		for j, t := range p.terms {
			si := ShardOf(t, len(ix.shards))
			buckets[si] = append(buckets[si], termPosting{term: t, p: posting{doc: int32(ids[i]), tf: p.tfs[j]}})
		}
	}
	for si, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sh := ix.shards[si]
		sh.mu.Lock()
		for _, e := range b {
			sh.postings[e.term] = append(sh.postings[e.term], e.p)
		}
		sh.mu.Unlock()
	}
	return ids, added
}

// Accessors for the prepared document's analysis, for builders (the
// spill-to-disk bulk build) that index outside this package's locks.
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
