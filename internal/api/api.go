// Package api is the versioned HTTP serving layer: one mux, one JSON
// dialect, one error envelope for everything the system serves over
// HTTP. The paper's premise is that surfaced deep-web content is
// served "like any other page" at front-end scale (§3.2) — so the
// front end should be one coherent surface, not per-binary dialects.
// deepsearch mounts this package over an engine and a §6 store loaded
// from a snapshot, and serves the endpoint groups they back: search
// always, the semantics group when the snapshot has a tables segment.
// The Server owns reload: POST /v1/admin/reload and deepsearch's
// SIGHUP both run (*Server).Reload, one at a time, and /v1/admin/stats
// reports when the last one succeeded.
//
//	GET  /healthz                   liveness + doc count + generation
//	GET  /v1/search                 ranked retrieval (q, k, offset, annotated, host, filter)
//	GET  /v1/semantics/synonyms     §6 semantic services
//	GET  /v1/semantics/autocomplete
//	GET  /v1/semantics/values
//	GET  /v1/semantics/properties
//	GET  /v1/semantics/tables
//	GET  /v1/admin/stats            serving statistics for operators
//	POST /v1/admin/reload           swap in the refreshed snapshot
//
// Every response that depends on index contents carries the snapshot
// generation id in an X-Generation header, so an operator can verify a
// reload actually swapped snapshots with curl -i.
package api

import (
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deepweb/internal/engine"
	"deepweb/internal/httpx"
	"deepweb/internal/query"
	"deepweb/internal/rescache"
	"deepweb/internal/semserv"
)

// Page-size and pagination ceilings: every request allocates O(k +
// offset) selection state, so untrusted values are clamped, not
// trusted (oversized values are served the cap, matching how search
// engines treat deep paging).
const (
	// MaxK aliases semserv's cap so the whole /v1 surface clamps k at
	// one documented value.
	MaxK      = semserv.MaxK
	MaxOffset = 10000
)

// Stats is the /v1/admin/stats payload: what an operator needs to
// verify a deployment is serving what they think it is. The counters
// (Queries, InflightQueries, Cache) are maintained with atomics and
// read with atomic loads, so no single value is ever torn under load;
// the set is collected lock-free, so fields may be a few requests
// apart from each other — fine for monitoring.
type Stats struct {
	// Docs is the indexed (searchable) document count.
	Docs int `json:"docs"`
	// Generation is the serving snapshot's content-derived id (0 =
	// built live). After a reload, a changed Generation is the proof
	// the swap happened.
	Generation uint32 `json:"generation"`
	// Queries counts /v1/search requests since process start —
	// monotonic, malformed requests included (they cost the front end
	// even when they never reach the index).
	Queries uint64 `json:"queries"`
	// InflightQueries is the number of /v1/search requests being
	// served right now.
	InflightQueries int64 `json:"inflight_queries"`
	// Cache reports the serving engine's result-cache counters; absent
	// when no cache is enabled.
	Cache *CacheStats `json:"cache,omitempty"`
	// LastReload is when the last successful Reload finished
	// (RFC3339Nano; empty = never reloaded since startup).
	LastReload string `json:"last_reload,omitempty"`
	// Tables is the semantic store's relational table count (semantic
	// deployments only).
	Tables int `json:"tables,omitempty"`
}

// CacheStats is the result cache's counter block on the wire: the raw
// monotonic counters plus the derived hit ratio, so dashboards don't
// re-implement the arithmetic.
type CacheStats struct {
	rescache.Stats
	HitRatio float64 `json:"hit_ratio"`
}

// Options wires a Server to the process's capabilities. Nil fields
// disable their endpoint group; the /v1 surface stays coherent — a
// disabled endpoint answers with the shared 404 envelope.
type Options struct {
	// Engine provides the current serving engine. It is a function, not
	// a value, because reloads swap engines behind an atomic pointer;
	// each request resolves the engine once and keeps it for its whole
	// lifetime. Nil disables /v1/search.
	Engine func() *engine.Engine
	// Semantics provides the current §6 store behind /v1/semantics/*,
	// resolved per request like Engine, since a reload swaps it with
	// the engine. A nil func, or a nil store, answers the group's paths
	// with the shared 404 envelope.
	Semantics func() *semserv.Server
	// Reload swaps in a fresh snapshot. The Server runs it only through
	// (*Server).Reload, never two at once. Nil makes POST
	// /v1/admin/reload answer 503 — the process has no snapshot to
	// reload from.
	Reload func() error
}

// errNoReload is Reload's answer when Options.Reload is nil.
var errNoReload = errors.New("reload unavailable: this process is not serving from a reloadable snapshot")

// Server is the versioned HTTP surface. It implements http.Handler and
// can be mounted whole, or alongside other handlers via its /v1/ and
// /healthz prefixes.
type Server struct {
	opts Options
	mux  *http.ServeMux

	// Serving counters (see Stats): monotonic query count and the
	// in-flight gauge, maintained with atomics so /v1/admin/stats
	// never serves a torn value.
	queries  atomic.Uint64
	inflight atomic.Int64

	// reloadMu serializes Reload: two loads at once would double peak
	// memory, and a slow load of older directory contents could publish
	// after a faster load of newer ones.
	reloadMu sync.Mutex
	// lastReload is the UnixNano of the last successful Reload (0 =
	// never). It is atomic so stats never waits on a reload in flight.
	lastReload atomic.Int64
}

// New assembles the /v1 surface for the given capabilities.
func New(opts Options) *Server {
	s := &Server{opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/admin/stats", s.handleStats)
	s.mux.HandleFunc("/v1/admin/reload", s.handleReload)
	if opts.Engine != nil {
		s.mux.HandleFunc("/v1/search", s.handleSearch)
	}
	if opts.Semantics != nil {
		s.mux.HandleFunc("/v1/semantics/synonyms", s.semantic((*semserv.Server).Synonyms))
		s.mux.HandleFunc("/v1/semantics/autocomplete", s.semantic((*semserv.Server).Autocomplete))
		s.mux.HandleFunc("/v1/semantics/values", s.semantic((*semserv.Server).AttrValues))
		s.mux.HandleFunc("/v1/semantics/properties", s.semantic((*semserv.Server).Properties))
		s.mux.HandleFunc("/v1/semantics/tables", s.semantic((*semserv.Server).TableSearch))
	}
	// Everything else — under /v1/ or, when the server is mounted whole,
	// anywhere — is a spelled-out 404, in the envelope, instead of Go's
	// text/plain default.
	s.mux.HandleFunc("/", notFound)
	return s
}

// notFound answers the shared 404 envelope.
func notFound(w http.ResponseWriter, r *http.Request) {
	httpx.WriteError(w, http.StatusNotFound, httpx.CodeNotFound,
		r.URL.Path+" is not a /v1 endpoint on this server")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// engine returns the current serving engine, or nil when this process
// serves no index.
func (s *Server) engine() *engine.Engine {
	if s.opts.Engine == nil {
		return nil
	}
	return s.opts.Engine()
}

// semantic serves a /v1/semantics request with h over the store
// current when it arrives, or with the 404 envelope when there is none.
func (s *Server) semantic(h func(*semserv.Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sem := s.opts.Semantics()
		if sem == nil {
			notFound(w, r)
			return
		}
		h(sem, w, r)
	}
}

// intParam parses an optional integer query parameter leniently: an
// absent, malformed or below-minimum value serves def, and the result
// is clamped to max — one dialect with the semantics endpoints'
// kParam, matching how search engines treat nonsense page sizes.
func intParam(params url.Values, name string, def, minV, maxV int) int {
	n, err := strconv.Atoi(params.Get(name))
	if err != nil || n < minV {
		return def
	}
	return min(n, maxV)
}

// appendSearchBody appends the /v1/search document: the request echo
// (q, the canonical filters, k, offset), the serving metadata and the
// page, each hit as {doc_id, url, title, source, score}. filters and a
// hit's source are omitted when empty, so predicate-free responses
// keep their exact prior shape; results is [] when the page is empty.
// The bytes are those json.NewEncoder writes for the equivalent struct
// (the tests hold that struct and fuzz the two against each other); a
// non-finite tookMS or score is the encoder's UnsupportedValueError.
func appendSearchBody(b []byte, q string, filters []query.Predicate, k, offset int, tookMS float64, resp *engine.SearchResponse) ([]byte, error) {
	var err error
	b = append(b, `{"query":`...)
	b = httpx.AppendString(b, q)
	if len(filters) > 0 {
		b = append(b, `,"filters":[`...)
		for i, p := range filters {
			if i > 0 {
				b = append(b, ',')
			}
			b = httpx.AppendString(b, p.String())
		}
		b = append(b, ']')
	}
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(resp.Total), 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, uint64(resp.Generation), 10)
	b = append(b, `,"took_ms":`...)
	if b, err = httpx.AppendFloat(b, tookMS); err != nil {
		return b, err
	}
	b = append(b, `,"results":[`...)
	for i := range resp.Results {
		hit := &resp.Results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"doc_id":`...)
		b = strconv.AppendInt(b, int64(hit.DocID), 10)
		b = append(b, `,"url":`...)
		b = httpx.AppendString(b, hit.URL)
		b = append(b, `,"title":`...)
		b = httpx.AppendString(b, hit.Title)
		if hit.Source != "" {
			b = append(b, `,"source":`...)
			b = httpx.AppendString(b, hit.Source)
		}
		b = append(b, `,"score":`...)
		if b, err = httpx.AppendFloat(b, hit.Score); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}

// GET /v1/search?q=...&k=10&offset=0&annotated=true&host=...&filter=...
//
// Structured predicates arrive two ways, freely mixed:
//
//   - repeatable filter= params ("filter=make:ford&filter=price<10000"),
//     where a malformed predicate is a 400 in the shared envelope —
//     the caller asked for a filter explicitly, so silently dropping
//     it would serve wrong results;
//   - embedded in q itself ("q=used+cars+price<10000"), where a token
//     is a predicate only if it parses cleanly and stays keyword text
//     otherwise — no previously-valid query becomes an error.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	// X-Cache makes the serving tier's work observable on every
	// /v1/search response, error envelopes included: HIT = served from
	// the result cache (or collapsed onto another request's in-flight
	// scan), MISS = anything else — a fresh index scan, a rejected
	// request, an unavailable engine.
	w.Header().Set("X-Cache", "MISS")
	if !httpx.RequireMethod(w, r, http.MethodGet) {
		return
	}
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeBadRequest, "missing q")
		return
	}
	k := intParam(params, "k", 10, 1, MaxK)
	offset := intParam(params, "offset", 0, 0, MaxOffset)

	var filters []query.Predicate
	for _, raw := range params["filter"] {
		p, err := query.Parse(raw)
		if err != nil {
			httpx.WriteError(w, http.StatusBadRequest, httpx.CodeBadRequest,
				"malformed filter: "+err.Error())
			return
		}
		filters = append(filters, p)
	}
	text, embedded := query.Extract(q)
	filters = append(filters, embedded...)
	if text == "" && len(filters) > 0 {
		// Ranking needs at least one free-text term; a filter-only
		// request has nothing to rank (or paginate) against.
		httpx.WriteError(w, http.StatusBadRequest, httpx.CodeBadRequest,
			"q contains only filters; add at least one keyword term to rank against")
		return
	}

	e := s.engine()
	if e == nil {
		// The Engine func is wired but momentarily has nothing to serve
		// (e.g. an atomic pointer before its first Store).
		httpx.WriteError(w, http.StatusServiceUnavailable, httpx.CodeUnavailable, "no index to search yet")
		return
	}
	resp, err := e.Search(r.Context(), engine.SearchRequest{
		Query:     text,
		K:         k,
		Offset:    offset,
		Annotated: params.Get("annotated") == "true" || params.Get("annotated") == "1",
		Host:      params.Get("host"),
		Filters:   filters,
	})
	if err != nil {
		// The one search error is a canceled/expired request context:
		// the client is gone or out of time.
		httpx.WriteError(w, http.StatusGatewayTimeout, httpx.CodeUnavailable, err.Error())
		return
	}
	w.Header().Set("X-Generation", strconv.FormatUint(uint64(resp.Generation), 10))
	if resp.Cached {
		w.Header().Set("X-Cache", "HIT")
	}
	tookMS := float64(resp.Elapsed) / float64(time.Millisecond)
	filters = query.Canonical(filters)
	httpx.WriteJSONBody(w, http.StatusOK, func(b []byte) ([]byte, error) {
		return appendSearchBody(b, q, filters, k, offset, tookMS, &resp)
	})
}

// Reload runs Options.Reload, one call at a time, and on success
// records the time /v1/admin/stats reports as last_reload. A failed
// reload leaves last_reload as it was.
func (s *Server) Reload() error {
	if s.opts.Reload == nil {
		return errNoReload
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if err := s.opts.Reload(); err != nil {
		return err
	}
	s.lastReload.Store(time.Now().UnixNano())
	return nil
}

// stats assembles the operator statistics from the serving engine, the
// semantic store, the request counters and the last reload.
func (s *Server) stats() Stats {
	var st Stats
	st.Queries = s.queries.Load()
	st.InflightQueries = s.inflight.Load()
	if e := s.engine(); e != nil {
		st.Docs = e.Index.Len()
		st.Generation = e.Generation
		if cs, ok := e.CacheStats(); ok {
			st.Cache = &CacheStats{Stats: cs, HitRatio: cs.HitRatio()}
		}
	}
	if s.opts.Semantics != nil {
		if sem := s.opts.Semantics(); sem != nil {
			st.Tables = len(sem.Tables)
		}
	}
	if ns := s.lastReload.Load(); ns != 0 {
		st.LastReload = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
	}
	return st
}

// GET /v1/admin/stats
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !httpx.RequireMethod(w, r, http.MethodGet) {
		return
	}
	st := s.stats()
	w.Header().Set("X-Generation", strconv.FormatUint(uint64(st.Generation), 10))
	httpx.WriteJSON(w, http.StatusOK, st)
}

// POST /v1/admin/reload
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !httpx.RequireMethod(w, r, http.MethodPost) {
		return
	}
	switch err := s.Reload(); {
	case errors.Is(err, errNoReload):
		httpx.WriteError(w, http.StatusServiceUnavailable, httpx.CodeUnavailable, err.Error())
		return
	case err != nil:
		// A failed reload keeps the current engine serving; report the
		// failure without killing the process.
		httpx.WriteError(w, http.StatusInternalServerError, httpx.CodeInternal, err.Error())
		return
	}
	st := s.stats()
	w.Header().Set("X-Generation", strconv.FormatUint(uint64(st.Generation), 10))
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"reloaded":   true,
		"docs":       st.Docs,
		"generation": st.Generation,
	})
}

// GET /healthz
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !httpx.RequireMethod(w, r, http.MethodGet) {
		return
	}
	st := s.stats()
	w.Header().Set("X-Generation", strconv.FormatUint(uint64(st.Generation), 10))
	httpx.WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"docs":       st.Docs,
		"generation": st.Generation,
	})
}
