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
// annotates ps[i], as Annotate would, when ps[i] is added. The rows of
// a batch's new URLs go into one new chunk of the document table, and
// the URL lookup keys them by substrings of it. On an index whose
// documents came from an import, the first call builds the URL lookup,
// under the write lock it holds anyway.
func (ix *Index) AddPreparedBatch(ps []*Prepared, anns []map[string]string) (ids []int, added []bool) {
	ids = make([]int, len(ps))
	added = make([]bool, len(ps))
	if len(ps) == 0 {
		return ids, added
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.version.Add(1)
	ix.urlsLocked()
	// The chunk holds a row for every URL new to the index. A URL
	// repeated within the batch is encoded once more than it is kept,
	// which costs bytes only, and only in that rare case.
	offs := make([]int, len(ps))
	var chunk []byte
	for i, p := range ps {
		if existing, ok := ix.byURL[p.doc.URL]; ok {
			ids[i], offs[i] = existing, -1
			continue
		}
		offs[i] = len(chunk)
		chunk = AppendRow(chunk, p.doc, p.dl)
	}
	if chunk == nil {
		return ids, added
	}
	rows := string(chunk)
	ref := ix.rows.addChunk(rows)
	for i, p := range ps {
		if offs[i] < 0 {
			continue
		}
		d, _, _ := ParseRow(rows[offs[i]:])
		if existing, ok := ix.byURL[d.URL]; ok {
			ids[i] = existing
			continue
		}
		id := len(ix.lens)
		ix.rows.refs = append(ix.rows.refs, ref|uint64(offs[i]))
		ix.byURL[d.URL] = id
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
			ix.ann.annotate(id, anns[i])
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
