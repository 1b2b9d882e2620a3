package engine

import (
	"fmt"

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
// reader of the old snapshot is undisturbed. Nothing writes the frozen
// index while Save reads it.
func (e *Engine) Save(dir string, sites []store.SiteMeta) error {
	ix := e.Index
	w, err := store.NewWriter(dir, ix.NumShards(), ix.Len())
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
// returns a serving engine over the builder store.Load fills, frozen,
// copying nothing, on DefaultWorkers: its Index answers plain and
// annotated queries exactly as the saved one did — ids, score bits and
// tie order included — and its Generation is the snapshot's id.
func Load(dir string) (*Engine, error) {
	b, hdr, err := store.Load(dir, DefaultWorkers)
	if err != nil {
		return nil, err
	}
	return &Engine{Index: b.Freeze(), Generation: hdr.SnapID}, nil
}
