// Package engine is the searcher: ranked retrieval over an index
// (Search, with an optional result cache) and the snapshot it is served
// from. The paper's economics split an expensive offline pass from an
// ordinary index that answers live traffic; a snapshot directory
// crosses that line. Save writes one through store.Writer, BulkBuild
// writes the same bytes from a document stream, and Load freezes what
// store.Load reads back bit-for-bit. The engine knows nothing of forms,
// fetching or the virtual web: the pipeline that fills it is
// internal/surface, which the server does not link. Nor does it hold
// the §6 store: the tables segment is internal/semserv's.
package engine

import (
	"deepweb/internal/index"
	"deepweb/internal/rescache"
)

// Engine is a searcher over one index, frozen from an index.Builder and
// the same for the engine's life: a new index comes in a new Engine.
type Engine struct {
	Index *index.Index

	// Generation identifies the snapshot this engine's index contents
	// correspond to: set by Load from the snapshot header, refreshed by
	// Save from the newly written segment's content hash. 0 means the
	// index was built live and has never crossed a snapshot boundary.
	Generation uint32

	// cache is the serving-tier result cache (nil = disabled; see
	// EnableResultCache and cache.go).
	cache *rescache.Cache[SearchResponse]
}

// DefaultWorkers is the parallelism of Save and Load, and the Workers
// value new surfacers start with. Binaries raise it before building or
// loading; results are identical either way.
var DefaultWorkers = 1
