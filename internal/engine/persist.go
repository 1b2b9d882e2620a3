package engine

import (
	"fmt"

	"deepweb/internal/index"
	"deepweb/internal/store"
)

// Save writes the index to dir as one docs segment (including
// tombstones, so a mutated index round-trips id-for-id), one columns
// segment holding the annotation tables, one postings segment per
// shard, and a meta segment carrying sites, the refresh metadata of
// whoever filled the index (nil for none; Load does not read it). The
// directory protocol is store.Writer's, and so are the placement of
// terms in segments and the annotation tables, which it re-interns in
// doc-id order; Save only says where the rows, annotations and
// postings come from: the live index.
// Postings segments are encoded concurrently on DefaultWorkers.
// Existing segments in dir are overwritten atomically; a concurrent
// reader of the old snapshot is undisturbed. Save must not run
// concurrently with a write to the index. It holds one copy of every
// posting list, and of the annotation tables, while it writes.
func (e *Engine) Save(dir string, sites []store.SiteMeta) error {
	ix := e.Index
	docs, lens, dead := ix.ExportDocs()
	w, err := store.NewWriter(dir, ix.NumShards(), len(docs), 0)
	if err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	defer w.Abort()
	for id, d := range docs {
		if err := w.AddDoc(d, lens[id], ix.AnnotationsOf(id), dead[id]); err != nil {
			return fmt.Errorf("engine: save docs: %w", err)
		}
	}
	snapID, err := w.Commit(DefaultWorkers, sites, ix.ExportTerms())
	if err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	// The engine's contents now correspond to the written snapshot:
	// adopt its content-derived generation id (served by Search and the
	// /v1 layer's generation headers).
	e.Generation = snapID
	return nil
}

// Load reads a snapshot directory written by Save (or BulkBuild) and
// returns a serving engine: its Index answers plain and annotated
// queries exactly as the saved one did — ids, score bits, tombstones,
// live statistics and tie order included.
// Once the docs segment is open, its rows (into ImportDocs), the
// columns segment (one bulk decode, checked against the docs segment's
// id, doc count and tombstones, into InstallAnnotations, which derives
// what the segment leaves out) and the postings segments (into
// ImportTerms) are decoded concurrently, on 2+DefaultWorkers
// goroutines, and joined; a damaged snapshot fails with the first
// error in that order. The meta segment is the surfacer's
// (surface.Open); Load leaves it unread.
func Load(dir string) (*Engine, error) {
	docs, err := store.OpenDocs(store.DocsPath(dir))
	if err != nil {
		return nil, fmt.Errorf("engine: load docs: %w", err)
	}
	hdr := docs.Header
	dead := make([]bool, hdr.DocCount)
	for _, id := range docs.Dead {
		dead[id] = true
	}
	ix := index.NewSharded(int(hdr.Shards))
	e := &Engine{Index: ix, Generation: hdr.SnapID}

	// Job 0 is the rows, job 1 the annotation tables, job 2+si
	// postings segment si.
	err = store.ForEachShard(2+DefaultWorkers, 2+int(hdr.Shards), func(job int) error {
		switch job {
		case 0:
			rows, lens, err := docs.Rows()
			if err != nil {
				return err
			}
			return ix.ImportDocs(rows, lens, dead)
		case 1:
			return store.ReadColumns(store.ColumnsPath(dir), hdr, dead, ix)
		}
		si := job - 2
		terms, ph, err := store.ReadPostings(store.PostingsPath(dir, si))
		if err != nil {
			return err
		}
		if ph.Shards != hdr.Shards || ph.ShardID != uint32(si) || ph.DocCount != hdr.DocCount || ph.SnapID != hdr.SnapID {
			return fmt.Errorf("%s: header (shards=%d id=%d docs=%d snap=%08x) disagrees with docs segment (shards=%d id=%d docs=%d snap=%08x) — segments from different snapshot generations?: %w",
				store.PostingsPath(dir, si), ph.Shards, ph.ShardID, ph.DocCount, ph.SnapID,
				hdr.Shards, si, hdr.DocCount, hdr.SnapID, store.ErrCorrupt)
		}
		return ix.ImportTerms(terms)
	})
	if err != nil {
		return nil, fmt.Errorf("engine: load: %w", err)
	}
	return e, nil
}
