package api

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepweb/internal/engine"
	"deepweb/internal/index"
	"deepweb/internal/semserv"
	"deepweb/internal/webtables"
)

// The /v1 surface is a contract: every endpoint's exact JSON shape is
// pinned as a golden file under testdata/ (regenerate with
// `go test ./internal/api -update` after an intentional change).
// Volatile fields (took_ms, last_reload) are zeroed before comparison.

var update = flag.Bool("update", false, "rewrite golden files")

// testEngine builds a tiny hand-indexed engine: four documents over
// two hosts with fixed text, so scores, ids and tie order are fully
// deterministic and the goldens stay small and readable. The two car
// pages carry surfacing-time annotations so the filter goldens
// exercise annotation resolution (the blog pages have none and fall
// back to text matching).
func testEngine() *engine.Engine {
	e := engine.New()
	docs := []index.Doc{
		{URL: "http://cars.example/d/0", Title: "used ford focus", Text: "a used ford focus for sale in seattle", Source: "cars-form"},
		{URL: "http://cars.example/d/1", Title: "used honda civic", Text: "a used honda civic for sale in portland", Source: "cars-form"},
		{URL: "http://blog.example/p/0", Title: "road trip diary", Text: "our ford focus drove across the country"},
		{URL: "http://blog.example/p/1", Title: "city guide", Text: "seattle coffee and rain"},
	}
	anns := []map[string]string{
		{"make": "ford", "price": "8500", "year": "2006"},
		{"make": "honda", "price": "11000", "year": "2009"},
		nil,
		nil,
	}
	for i, d := range docs {
		id, _ := e.Index.Add(d)
		if anns[i] != nil {
			e.Index.Annotate(id, anns[i])
		}
	}
	return e
}

// testSemantics returns a fixed §6 store, as Options.Semantics
// provides one.
func testSemantics() func() *semserv.Server {
	acs := &webtables.ACSDb{Freq: map[string]int{}, Pair: map[[2]string]int{}}
	for i := 0; i < 20; i++ {
		acs.AddSchema([]string{"make", "model", "price"})
	}
	for i := 0; i < 15; i++ {
		acs.AddSchema([]string{"maker", "model", "price"})
	}
	vals := webtables.NewValueStore()
	vals.AddColumn("city", []string{"seattle", "portland", "seattle"})
	tables := []webtables.RawTable{
		{URL: "http://t.example/1", Headers: []string{"city", "population"}, Rows: [][]string{{"seattle", "700000"}}},
	}
	sem := &semserv.Server{Tables: tables, ACS: acs, Values: vals}
	return func() *semserv.Server { return sem }
}

func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Engine == nil {
		e := testEngine()
		opts.Engine = func() *engine.Engine { return e }
	}
	if opts.Semantics == nil {
		opts.Semantics = testSemantics()
	}
	return New(opts)
}

// normalize re-encodes a JSON body deterministically, zeroing the
// volatile took_ms and last_reload fields.
func normalize(t *testing.T, body []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	if m, ok := v.(map[string]any); ok {
		if _, ok := m["took_ms"]; ok {
			m["took_ms"] = 0
		}
		if _, ok := m["last_reload"]; ok {
			m["last_reload"] = ""
		}
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

// checkGolden compares a normalized body against testdata/<name>.json.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	got := normalize(t, body)
	path := filepath.Join("testdata", name+".json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test ./internal/api -update`): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden contract:\n--- want\n%s--- got\n%s", name, want, got)
	}
}

// do issues one request against the server and returns the recorder.
func do(s *Server, method, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec
}

// Every /v1 endpoint, success and failure, against its golden. The
// cases run in order, so stats counts the search cases before it and
// reports the reload before it.
func TestV1ContractGoldens(t *testing.T) {
	reloaded := false
	s := testServer(t, Options{
		Reload: func() error { reloaded = true; return nil },
	})
	cases := []struct {
		name   string
		method string
		target string
		status int
	}{
		{"search", "GET", "/v1/search?q=ford+focus&k=3", 200},
		{"search_paged", "GET", "/v1/search?q=ford+focus&k=1&offset=1", 200},
		{"search_host", "GET", "/v1/search?q=ford+focus&host=blog.example", 200},
		{"search_k_clamped", "GET", "/v1/search?q=seattle&k=99999999", 200},
		{"search_missing_q", "GET", "/v1/search", 400},
		// Lenient parameter dialect, same as the semantics endpoints:
		// malformed k/offset serve the defaults, not a 400.
		{"search_k_defaulted", "GET", "/v1/search?q=seattle&k=abc", 200},
		{"search_offset_defaulted", "GET", "/v1/search?q=seattle&offset=-2", 200},
		{"search_method", "POST", "/v1/search?q=x", 405},
		// Structured filters: explicit filter= params, the in-query
		// DSL, a range, and the documented 400 for a malformed filter.
		{"search_filtered", "GET", "/v1/search?q=used&filter=make:ford", 200},
		{"search_filter_dsl", "GET", "/v1/search?q=used+price%3C10000", 200},
		{"search_filter_range", "GET", "/v1/search?q=used&filter=year:2005..2008", 200},
		{"search_filter_bad", "GET", "/v1/search?q=used&filter=price%3C%3C10", 400},
		{"search_filter_only", "GET", "/v1/search?q=make:ford", 400},
		{"synonyms", "GET", "/v1/semantics/synonyms?attr=make&k=3", 200},
		{"synonyms_missing_attr", "GET", "/v1/semantics/synonyms", 400},
		{"synonyms_method", "DELETE", "/v1/semantics/synonyms?attr=make", 405},
		{"autocomplete", "GET", "/v1/semantics/autocomplete?attrs=make&k=3", 200},
		{"values", "GET", "/v1/semantics/values?attr=city&k=5", 200},
		{"properties", "GET", "/v1/semantics/properties?entity=seattle&k=5", 200},
		{"tables", "GET", "/v1/semantics/tables?q=population&k=5", 200},
		{"reload", "POST", "/v1/admin/reload", 200},
		{"reload_method", "GET", "/v1/admin/reload", 405},
		{"stats", "GET", "/v1/admin/stats", 200},
		{"stats_method", "POST", "/v1/admin/stats", 405},
		{"healthz", "GET", "/healthz", 200},
		{"not_found", "GET", "/v1/nosuch", 404},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := do(s, c.method, c.target)
			if rec.Code != c.status {
				t.Fatalf("%s %s: status %d, want %d\n%s", c.method, c.target, rec.Code, c.status, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q", c.target, ct)
			}
			checkGolden(t, c.name, rec.Body.Bytes())
		})
	}
	if !reloaded {
		t.Error("POST /v1/admin/reload never invoked the reload hook")
	}
}

// Responses that depend on index contents carry the serving engine's
// generation header. Saving gives the engine a non-zero generation.
func TestGenerationHeader(t *testing.T) {
	e := testEngine()
	if err := e.Save(t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	if e.Generation == 0 {
		t.Fatal("Save left generation 0")
	}
	want := strconv.FormatUint(uint64(e.Generation), 10)
	s := testServer(t, Options{Engine: func() *engine.Engine { return e }})
	for _, target := range []string{"/v1/search?q=ford", "/v1/admin/stats", "/healthz"} {
		if got := do(s, "GET", target).Header().Get("X-Generation"); got != want {
			t.Errorf("%s: X-Generation %q, want %s", target, got, want)
		}
	}
}

// HEAD is GET-without-body: liveness probes and load balancers use it,
// so every GET endpoint must admit it instead of answering 405.
func TestHEADAdmittedOnGETEndpoints(t *testing.T) {
	s := testServer(t, Options{})
	for _, target := range []string{"/healthz", "/v1/search?q=ford", "/v1/admin/stats", "/v1/semantics/values?attr=city"} {
		if rec := do(s, "HEAD", target); rec.Code != 200 {
			t.Errorf("HEAD %s: status %d, want 200", target, rec.Code)
		}
	}
}

// lastReload returns /v1/admin/stats's last_reload and whether the key
// is present at all.
func lastReload(t *testing.T, s *Server) (string, bool) {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(do(s, "GET", "/v1/admin/stats").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	v, ok := m["last_reload"].(string)
	return v, ok
}

// A process without a snapshot cannot reload; one whose reload fails
// reports it without dying. last_reload appears with the first
// successful reload, and a failed one leaves it as it was.
func TestReloadUnavailableAndFailing(t *testing.T) {
	s := testServer(t, Options{})
	rec := do(s, "POST", "/v1/admin/reload")
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), `"code":"unavailable"`) {
		t.Errorf("nil reload: status %d body %s", rec.Code, rec.Body.String())
	}

	var fail error
	s = testServer(t, Options{Reload: func() error { return fail }})
	if v, ok := lastReload(t, s); ok {
		t.Errorf("last_reload %q before any reload", v)
	}
	if rec := do(s, "POST", "/v1/admin/reload"); rec.Code != 200 {
		t.Fatalf("reload: status %d body %s", rec.Code, rec.Body.String())
	}
	first, _ := lastReload(t, s)
	if _, err := time.Parse(time.RFC3339, first); err != nil {
		t.Errorf("last_reload after a reload: %v", err)
	}

	fail = errors.New("segment checksum mismatch")
	rec = do(s, "POST", "/v1/admin/reload")
	if rec.Code != 500 || !strings.Contains(rec.Body.String(), "segment checksum mismatch") {
		t.Errorf("failing reload: status %d body %s", rec.Code, rec.Body.String())
	}
	if v, _ := lastReload(t, s); v != first {
		t.Errorf("failed reload moved last_reload from %q to %q", first, v)
	}
}

// Reloads run one at a time: concurrent POSTs never overlap inside
// Options.Reload, so two loads never hold memory at once and the last
// one to start is the last one to publish.
func TestReloadsAreSerialized(t *testing.T) {
	var running, most atomic.Int32
	s := testServer(t, Options{Reload: func() error {
		n := running.Add(1)
		defer running.Add(-1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		time.Sleep(10 * time.Millisecond) // a load in progress
		return nil
	}})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := do(s, "POST", "/v1/admin/reload"); rec.Code != 200 {
				t.Errorf("reload: status %d body %s", rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()
	if got := most.Load(); got != 1 {
		t.Errorf("%d reloads ran at once, want 1", got)
	}
}

// Endpoint groups are independent: without an engine, /v1/search is
// absent (404 envelope) while the semantics group and /healthz still
// serve.
func TestSearchDisabledWithoutEngine(t *testing.T) {
	s := New(Options{Semantics: testSemantics()})
	rec := do(s, "GET", "/v1/search?q=x")
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), `"code":"not_found"`) {
		t.Errorf("disabled search: status %d body %s", rec.Code, rec.Body.String())
	}
	if rec := do(s, "GET", "/v1/semantics/values?attr=city"); rec.Code != 200 {
		t.Errorf("semantics broken without engine: %d", rec.Code)
	}
	if rec := do(s, "GET", "/healthz"); rec.Code != 200 {
		t.Errorf("healthz broken without engine: %d", rec.Code)
	}
}

// The §6 group answers from the store current when a request arrives:
// after a swap, from the new one (stats' table count too); after a
// swap to none, with the 404 envelope an unmounted group answers.
func TestSemanticsFollowSwaps(t *testing.T) {
	var current atomic.Pointer[semserv.Server]
	current.Store(testSemantics()())
	s := testServer(t, Options{Semantics: current.Load})
	tables := func() int {
		var st Stats
		if err := json.Unmarshal(do(s, "GET", "/v1/admin/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Tables
	}
	if rec := do(s, "GET", "/v1/semantics/values?attr=city"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "seattle") || tables() != 1 {
		t.Fatalf("before the swap: status %d body %s, %d tables", rec.Code, rec.Body.String(), tables())
	}

	current.Store(semserv.New(4, 2, []webtables.RawTable{
		{URL: "http://t.example/2", Headers: []string{"city", "state"}, Rows: [][]string{{"boston", "ma"}, {"austin", "tx"}}},
		{URL: "http://t.example/3", Headers: []string{"city", "zip"}, Rows: [][]string{{"boston", "02101"}}},
	}))
	rec := do(s, "GET", "/v1/semantics/values?attr=city")
	if body := rec.Body.String(); rec.Code != 200 || !strings.Contains(body, "boston") || strings.Contains(body, "seattle") {
		t.Errorf("after the swap: status %d body %s", rec.Code, body)
	}
	if got := tables(); got != 2 {
		t.Errorf("after the swap: stats report %d tables, want 2", got)
	}

	current.Store(nil)
	unmounted := New(Options{})
	for _, path := range []string{"/v1/semantics/synonyms?attr=make", "/v1/semantics/autocomplete?attrs=make", "/v1/semantics/values?attr=city", "/v1/semantics/properties?entity=seattle", "/v1/semantics/tables?q=population"} {
		rec, want := do(s, "GET", path), do(unmounted, "GET", path)
		if rec.Code != 404 || rec.Body.String() != want.Body.String() || rec.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s with no store: status %d body %s, want %d %s", path, rec.Code, rec.Body.String(), want.Code, want.Body.String())
		}
	}
	if got := tables(); got != 0 {
		t.Errorf("with no store: stats report %d tables", got)
	}
}

// Stats reflect the engine and store.
func TestDerivedStats(t *testing.T) {
	e := testEngine()
	s := New(Options{
		Engine:    func() *engine.Engine { return e },
		Semantics: testSemantics(),
	})
	rec := do(s, "GET", "/v1/admin/stats")
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Docs != 4 || st.Tables != 1 {
		t.Errorf("derived stats = %+v", st)
	}
}

// Mounted whole, the server answers every path it does not route —
// the long-retired pre-/v1 aliases included — with the shared 404
// envelope, never Go's text/plain default.
func TestUnroutedPathsAnswer404Envelope(t *testing.T) {
	s := testServer(t, Options{})
	for _, path := range []string{"/api/search?q=ford&k=3", "/synonyms?attr=make", "/nosuch"} {
		rec := do(s, "GET", path)
		if rec.Code != 404 || !strings.Contains(rec.Body.String(), `"code":"not_found"`) {
			t.Errorf("%s: status %d body %s", path, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", path, ct)
		}
	}
}

// Filtered pagination over HTTP mirrors the unfiltered contract:
// totals are page-independent and pages tile, with the filter echoed
// canonically however it was spelled.
func TestFilteredSearchOverHTTP(t *testing.T) {
	s := testServer(t, Options{})
	get := func(target string) (resp struct {
		Filters []string          `json:"filters"`
		Total   int               `json:"total"`
		Results []json.RawMessage `json:"results"`
	}) {
		rec := do(s, "GET", target)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d\n%s", target, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Both spellings of the same request: identical results and the
	// same canonical filter echo.
	viaParam := get("/v1/search?q=used&filter=price%3C10000&filter=make:ford")
	viaDSL := get("/v1/search?q=used+make:ford+price%3C10000")
	if viaParam.Total != 1 || viaDSL.Total != 1 {
		t.Fatalf("totals: param=%d dsl=%d, want 1", viaParam.Total, viaDSL.Total)
	}
	if len(viaParam.Filters) != 2 || viaParam.Filters[0] != "make:ford" {
		t.Errorf("canonical filter echo = %v", viaParam.Filters)
	}
	if fmt.Sprint(viaParam.Filters) != fmt.Sprint(viaDSL.Filters) {
		t.Errorf("filter echo differs by spelling: %v vs %v", viaParam.Filters, viaDSL.Filters)
	}
	for i := range viaParam.Results {
		if string(viaParam.Results[i]) != string(viaDSL.Results[i]) {
			t.Fatalf("spellings diverge at rank %d", i)
		}
	}
	// The unfiltered query matches more than the filtered one.
	if un := get("/v1/search?q=used"); un.Total <= viaParam.Total {
		t.Errorf("filter did not restrict: unfiltered %d, filtered %d", un.Total, viaParam.Total)
	}
}

// The full pagination contract over HTTP: k echoes clamped, offsets
// tile, totals are page-independent.
func TestSearchPaginationOverHTTP(t *testing.T) {
	s := testServer(t, Options{})
	page := func(k, offset int) (hits []json.RawMessage, total int) {
		rec := do(s, "GET", fmt.Sprintf("/v1/search?q=ford+focus&k=%d&offset=%d", k, offset))
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
		var resp struct {
			Total   int               `json:"total"`
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Results, resp.Total
	}
	all, total := page(1000, 0)
	if total != len(all) || total == 0 {
		t.Fatalf("exhaustive page: %d hits, total %d", len(all), total)
	}
	var tiled []json.RawMessage
	for off := 0; off < total; off++ {
		hits, tot := page(1, off)
		if tot != total {
			t.Fatalf("offset %d: total %d, want %d", off, tot, total)
		}
		tiled = append(tiled, hits...)
	}
	if len(tiled) != len(all) {
		t.Fatalf("tiled %d hits, want %d", len(tiled), len(all))
	}
	for i := range all {
		if string(tiled[i]) != string(all[i]) {
			t.Fatalf("page tiling diverges at rank %d", i)
		}
	}
}
