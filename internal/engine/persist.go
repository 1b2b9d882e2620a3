package engine

import (
	"fmt"
	"os"

	"deepweb/internal/index"
	"deepweb/internal/store"
	"deepweb/internal/textutil"
	"deepweb/internal/webgen"
)

// Persistence: Save writes the engine's index (documents, annotation
// tables, postings) as a snapshot directory; Load rebuilds a serving
// engine from one. The paper's economics depend on this split — surfacing is
// an expensive offline pass, serving is the ordinary index answering
// live traffic — and a snapshot is the artifact that crosses the
// boundary. Load restores plain and annotated search bit-for-bit: same
// ids, same scores, same tie order.
//
// Both directions parallelize per postings segment on the engine's
// Workers budget: Save encodes segments concurrently, Load decodes them
// concurrently, beside the docs segment's rows and the columns
// segment, and installs each under the index's table lock.

// Save writes the index to dir as one docs segment (including
// tombstones, so a mutated index round-trips id-for-id), one columns
// segment holding the annotation tables, one postings segment per
// shard, and a meta segment carrying the per-site content signatures
// Refresh diffs against. The directory protocol is store.Writer's, and
// so are the placement of terms in segments and the annotation tables,
// which it re-interns in doc-id order; Save only says where the rows,
// annotations and postings come from: the live index.
// Existing segments in dir are overwritten atomically; a concurrent
// reader of the old snapshot is undisturbed. Save must not run
// concurrently with Refresh or Compact. It holds one copy of every
// posting list, and of the annotation tables, while it writes.
func (e *Engine) Save(dir string) error {
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
	sites := make([]store.SiteMeta, 0, len(e.SiteSignatures))
	for host, sig := range e.SiteSignatures {
		sites = append(sites, store.SiteMeta{Host: host, Signature: uint64(sig)})
	}
	snapID, err := w.Commit(e.Workers, sites, ix.ExportTerms())
	if err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	// The engine's contents now correspond to the written snapshot:
	// adopt its content-derived generation id (served by Search and the
	// /v1 layer's generation headers).
	e.Generation = snapID
	return nil
}

// Load reads a snapshot directory written by Save and returns a
// serving engine: its Index answers queries exactly as the saved one
// did — tombstones, live statistics and tie order included — but it
// carries no virtual web (Web and Fetch are nil), so surfacing,
// coverage and Refresh are off the table; use LoadWith to reattach a
// world. Once the docs segment is open, its rows (into ImportDocs), the
// columns segment (one bulk decode, checked against the docs segment's
// id, doc count and tombstones, into InstallAnnotations, which derives
// what the segment leaves out) and the postings segments (into
// ImportTerms) are decoded concurrently, on 2+DefaultWorkers
// goroutines, and joined; a damaged snapshot fails with the first
// error in that order.
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
	e := newEngine()
	e.Index = ix
	e.Generation = hdr.SnapID

	// Job 0 is the rows, job 1 the annotation tables, job 2+si
	// postings segment si.
	err = store.ForEachShard(2+e.Workers, 2+int(hdr.Shards), func(job int) error {
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
	// Refresh metadata is optional: a directory without it still
	// serves; it just makes every site look changed to Refresh.
	meta, err := store.ReadMeta(store.MetaPath(dir))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("engine: load meta: %w", err)
	}
	if meta != nil {
		for _, s := range meta.Sites {
			e.SiteSignatures[s.Host] = textutil.Signature(s.Signature)
		}
	}
	return e, nil
}

// LoadWith loads a snapshot and attaches it to a virtual web, giving
// back an engine that can serve *and* refresh: the index and refresh
// metadata come from the snapshot, the web provides the live (possibly
// churned) sites to diff against. This is the `deepcrawl -refresh`
// path: rebuild the world, apply the delta, refresh the snapshot.
func LoadWith(web *webgen.Web, dir string) (*Engine, error) {
	e, err := Load(dir)
	if err != nil {
		return nil, err
	}
	e.Web = web
	e.UseTransport(web)
	return e, nil
}
