package engine

import (
	"fmt"

	"deepweb/internal/index"
	"deepweb/internal/store"
)

// Save writes the index to dir as one docs segment, one columns
// segment holding the annotation tables, one postings segment per
// shard, and a meta segment carrying sites, the refresh metadata of
// whoever filled the index (nil for none; Load does not read it). The
// directory protocol is store.Writer's, and so is the placement of
// terms in segments; Save hands the writer what the index holds, as it
// holds it: every row's bytes in id order, every resident posting
// list, and the annotation tables, which the append-only store holds
// exactly as BulkBuild's writer builds them for the same documents.
// Postings segments are encoded concurrently on DefaultWorkers.
// Existing segments in dir are overwritten atomically; a concurrent
// reader of the old snapshot is undisturbed. Save must not run
// concurrently with a write to the index.
func (e *Engine) Save(dir string, sites []store.SiteMeta) error {
	ix := e.Index
	w, err := store.NewWriter(dir, ix.NumShards(), ix.Len(), 0)
	if err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	defer w.Abort()
	if err := ix.ForEachRow(w.AddRow); err != nil {
		return fmt.Errorf("engine: save docs: %w", err)
	}
	cols, schemas := ix.ExportAnnotations()
	snapID, err := w.Commit(DefaultWorkers, sites, ix.ExportTerms(), cols, schemas)
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
// queries exactly as the saved one did — ids, score bits and tie order
// included.
// Load reads the docs segment's 44-byte header first, CRC checked, for
// the shard count, doc count and snapshot id. Then every segment is
// decoded at once, on 2+DefaultWorkers goroutines, none waiting for
// another: the rows in one walk (store.ReadRows, index.ScanRows), each
// row parsed once for its offset, length, host and URL hash, the URLs
// checked distinct by their hashes, into ImportRows, which keeps the
// docs body as the index's document table; the columns segment into
// InstallAnnotations and the postings segments into lists that one
// ImportTerms installs once the jobs are joined, into a term map sized
// once. The columns and postings jobs check their own header against
// the docs header — doc count, snapshot id and, for postings, shard
// count and id — before installing, so segments of different
// generations fail even when each decodes cleanly; the rows job
// requires the header it read with the body, whose doc count the body
// vouches for, to equal the first. The jobs are joined, and a damaged
// snapshot fails with the first job's error: rows, annotations, then
// postings in segment order; a term in two segments fails after them.
// The meta segment is the surfacer's (surface.Open); Load leaves it
// unread.
func Load(dir string) (*Engine, error) {
	docsPath := store.DocsPath(dir)
	hdr, err := store.ReadHeader(docsPath, store.KindDocs)
	if err != nil {
		return nil, fmt.Errorf("engine: load docs: %w", err)
	}
	ix := index.NewSharded(int(hdr.Shards))
	e := &Engine{Index: ix, Generation: hdr.SnapID}

	// Job 0 is the rows, job 1 the annotation tables, job 2+si
	// postings segment si, installed together once every job is done.
	segs := make([][]index.TermPostings, hdr.Shards)
	err = store.ForEachShard(2+DefaultWorkers, 2+int(hdr.Shards), func(job int) error {
		switch job {
		case 0:
			rows, h, err := store.ReadRows(docsPath)
			if err != nil {
				return err
			}
			if h != hdr {
				return fmt.Errorf("%s: header changed while the snapshot loaded: %w", docsPath, store.ErrCorrupt)
			}
			if err := ix.ImportRows(rows); err != nil {
				return fmt.Errorf("%s: %w: %w", docsPath, err, store.ErrCorrupt)
			}
			return nil
		case 1:
			return store.ReadColumns(store.ColumnsPath(dir), hdr, ix)
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
		segs[si] = terms
		return nil
	})
	if err == nil {
		err = ix.ImportTerms(segs...)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: load: %w", err)
	}
	return e, nil
}
