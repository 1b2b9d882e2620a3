package engine

import (
	"fmt"
	"os"

	"deepweb/internal/semserv"
	"deepweb/internal/store"
	"deepweb/internal/webtables"
)

// SemanticStore is the §6 aggregate-semantics side of the façade: the
// stores built by deep-crawling the world and pooling its HTML tables
// (surface.Surfacer.BuildSemantics), or rebuilt from a snapshot.
type SemanticStore struct {
	PagesCrawled int
	RawTables    int
	// Tables is the quality-filtered relational subset.
	Tables []webtables.RawTable
	ACS    *webtables.ACSDb
	Values *webtables.ValueStore
}

// NewSemanticStore aggregates a quality-filtered table set into the
// ACSDb and value store. Both are pure functions of the tables, which
// is why a snapshot persists only the tables. pages and raw are the
// crawl's page count and its table count before filtering.
func NewSemanticStore(pages, raw int, tables []webtables.RawTable) *SemanticStore {
	vals := webtables.NewValueStore()
	vals.AddTables(tables)
	return &SemanticStore{
		PagesCrawled: pages,
		RawTables:    raw,
		Tables:       tables,
		ACS:          webtables.BuildACSDb(tables),
		Values:       vals,
	}
}

// Server wraps the store in the four-service HTTP server (§6).
func (s *SemanticStore) Server() *semserv.Server {
	return semserv.New(s.ACS, s.Values, s.Tables)
}

// Save writes the semantic store's tables segment into a snapshot
// directory (alongside, or independent of, an index snapshot). Only
// the filtered raw tables are persisted — the ACSDb and value store
// are cheap deterministic aggregations LoadSemantics rebuilds.
func (s *SemanticStore) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := store.WriteTables(store.TablesPath(dir), &store.TablesSegment{
		PagesCrawled: s.PagesCrawled,
		RawTables:    s.RawTables,
		Tables:       s.Tables,
	})
	if err != nil {
		return fmt.Errorf("engine: save tables: %w", err)
	}
	return nil
}

// LoadSemantics rebuilds a SemanticStore from a snapshot directory's
// tables segment — the warm-start path that replaces the surfacer's
// deep crawl. The ACSDb and value store come out identical to the
// saved store's because both are pure functions of the table set.
func LoadSemantics(dir string) (*SemanticStore, error) {
	seg, err := store.ReadTables(store.TablesPath(dir))
	if err != nil {
		return nil, fmt.Errorf("engine: load tables: %w", err)
	}
	return NewSemanticStore(seg.PagesCrawled, seg.RawTables, seg.Tables), nil
}
