// Package semserv is the §6 "semantic server": the store of what
// aggregated web structure knows — the quality-filtered HTML tables,
// the ACSDb and the value store derived from them — and an HTTP JSON
// service exposing it — attribute synonyms, schema auto-complete,
// attribute values, and entity properties — for use by schema
// matchers, form fillers, information extractors and query expanders.
// A snapshot directory persists the store as its tables segment
// (Save, Load); the crawl that fills it is internal/surface's.
//
// Every handler speaks the shared wire discipline of internal/httpx:
// GET only (anything else is 405 with the JSON error envelope),
// envelope-shaped errors, buffered JSON writes. The package has no
// routes of its own: the versioned /v1 layer (internal/api) mounts the
// exported handlers under its paths.
package semserv

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"deepweb/internal/httpx"
	"deepweb/internal/store"
	"deepweb/internal/webtables"
)

// Server is the §6 store — a crawl's quality-filtered tables and the
// aggregates built from them — and answers §6 queries over it, one
// handler per question.
type Server struct {
	PagesCrawled int
	RawTables    int
	// Tables is the quality-filtered relational subset.
	Tables []webtables.RawTable
	ACS    *webtables.ACSDb
	Values *webtables.ValueStore
}

// New aggregates a quality-filtered table set into the ACSDb and value
// store. Both are pure functions of the tables, which is why a
// snapshot persists only the tables. pages and raw are the crawl's
// page count and its table count before filtering.
func New(pages, raw int, tables []webtables.RawTable) *Server {
	vals := webtables.NewValueStore()
	vals.AddTables(tables)
	return &Server{
		PagesCrawled: pages,
		RawTables:    raw,
		Tables:       tables,
		ACS:          webtables.BuildACSDb(tables),
		Values:       vals,
	}
}

// Save writes the store's tables segment into a snapshot directory
// (alongside, or independent of, an index snapshot). Only the filtered
// tables are persisted — the ACSDb and value store are cheap
// deterministic aggregations Load rebuilds.
func (s *Server) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := store.WriteTables(store.TablesPath(dir), &store.TablesSegment{
		PagesCrawled: s.PagesCrawled,
		RawTables:    s.RawTables,
		Tables:       s.Tables,
	})
	if err != nil {
		return fmt.Errorf("semserv: save tables: %w", err)
	}
	return nil
}

// Load rebuilds a store from a snapshot directory's tables segment —
// the warm-start path that replaces the deep crawl. The ACSDb and value
// store come out identical to the saved store's because both are pure
// functions of the table set. A directory without a tables segment is
// an error that wraps fs.ErrNotExist.
func Load(dir string) (*Server, error) {
	seg, err := store.ReadTables(store.TablesPath(dir))
	if err != nil {
		return nil, fmt.Errorf("semserv: load tables: %w", err)
	}
	return New(seg.PagesCrawled, seg.RawTables, seg.Tables), nil
}

// MaxK caps the k query parameter. Every top-k handler allocates and
// sorts O(k) state, so an unclamped k from untrusted input
// (?k=100000000) is a one-request memory bomb; requests beyond the cap
// are served the cap, not an error, matching how search engines treat
// oversized page sizes.
const MaxK = 1000

func kParam(r *http.Request) int {
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k <= 0 {
		return 10
	}
	return min(k, MaxK)
}

// ScoredItem is one JSON response entry.
type ScoredItem struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

func toItems(xs []webtables.Scored) []ScoredItem {
	out := make([]ScoredItem, len(xs))
	for i, x := range xs {
		out[i] = ScoredItem{x.Name, x.Score}
	}
	return out
}

// Synonyms answers GET ?attr=X&k=N with the attribute's synonyms.
func (s *Server) Synonyms(w http.ResponseWriter, r *http.Request) {
	if !httpx.RequireMethod(w, r, http.MethodGet) {
		return
	}
	attr := r.URL.Query().Get("attr")
	if attr == "" {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeBadRequest, "missing attr")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, toItems(s.ACS.Synonyms(attr, kParam(r))))
}

// Autocomplete answers GET ?attrs=a,b&k=N with schema completions.
func (s *Server) Autocomplete(w http.ResponseWriter, r *http.Request) {
	if !httpx.RequireMethod(w, r, http.MethodGet) {
		return
	}
	raw := r.URL.Query().Get("attrs")
	if raw == "" {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeBadRequest, "missing attrs")
		return
	}
	attrs := strings.Split(raw, ",")
	httpx.WriteJSON(w, http.StatusOK, toItems(s.ACS.SchemaAutocomplete(attrs, kParam(r))))
}

// AttrValues answers GET ?attr=X&k=N with the attribute's value list.
func (s *Server) AttrValues(w http.ResponseWriter, r *http.Request) {
	if !httpx.RequireMethod(w, r, http.MethodGet) {
		return
	}
	attr := r.URL.Query().Get("attr")
	if attr == "" {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeBadRequest, "missing attr")
		return
	}
	vals := s.Values.Values(attr, kParam(r))
	if vals == nil {
		vals = []string{}
	}
	httpx.WriteJSON(w, http.StatusOK, vals)
}

// Properties answers GET ?entity=X&k=N with the entity's properties.
func (s *Server) Properties(w http.ResponseWriter, r *http.Request) {
	if !httpx.RequireMethod(w, r, http.MethodGet) {
		return
	}
	entity := r.URL.Query().Get("entity")
	if entity == "" {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeBadRequest, "missing entity")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, toItems(webtables.PropertiesOf(s.Tables, entity, kParam(r))))
}

// tableHitJSON is the table-search response entry: enough of the table
// to judge relevance, plus provenance.
type tableHitJSON struct {
	URL     string   `json:"url"`
	Headers []string `json:"headers"`
	Rows    int      `json:"rows"`
	Score   float64  `json:"score"`
}

// TableSearch answers GET ?q=X&k=N with ranked relational tables.
func (s *Server) TableSearch(w http.ResponseWriter, r *http.Request) {
	if !httpx.RequireMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeBadRequest, "missing q")
		return
	}
	hits := webtables.SearchTables(s.Tables, q, kParam(r))
	out := make([]tableHitJSON, len(hits))
	for i, h := range hits {
		out[i] = tableHitJSON{
			URL:     h.Table.URL,
			Headers: h.Table.Headers,
			Rows:    len(h.Table.Rows),
			Score:   h.Score,
		}
	}
	httpx.WriteJSON(w, http.StatusOK, out)
}
