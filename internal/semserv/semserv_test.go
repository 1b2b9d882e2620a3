package semserv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"deepweb/internal/webtables"
)

func testServer() *Server {
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
		{Headers: []string{"city", "population"}, Rows: [][]string{{"seattle", "700000"}}},
	}
	return &Server{Tables: tables, ACS: acs, Values: vals}
}

// serve runs one request through a handler.
func serve(h http.HandlerFunc, method, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(method, target, nil))
	return rec
}

func getJSON(t *testing.T, h http.HandlerFunc, target string, out any) int {
	t.Helper()
	rec := serve(h, "GET", target)
	if rec.Code == 200 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("bad JSON from %s: %v", target, err)
		}
	}
	return rec.Code
}

// endpoint is one handler with a query that satisfies it.
type endpoint struct {
	name string
	h    http.HandlerFunc
	qs   string
}

func endpoints(s *Server) []endpoint {
	return []endpoint{
		{"synonyms", s.Synonyms, "attr=make"},
		{"autocomplete", s.Autocomplete, "attrs=make"},
		{"values", s.AttrValues, "attr=city"},
		{"properties", s.Properties, "entity=seattle"},
		{"tablesearch", s.TableSearch, "q=population"},
	}
}

func TestSynonymsEndpoint(t *testing.T) {
	s := testServer()
	var items []ScoredItem
	if code := getJSON(t, s.Synonyms, "/?attr=make", &items); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(items) == 0 || items[0].Name != "maker" {
		t.Errorf("synonyms = %+v", items)
	}
}

// An attacker-sized k must be clamped, not trusted: every top-k
// handler allocates O(k) state per request.
func TestKParamClamped(t *testing.T) {
	for _, ep := range endpoints(testServer()) {
		var out json.RawMessage
		if code := getJSON(t, ep.h, "/?"+ep.qs+"&k=100000000", &out); code != 200 {
			t.Errorf("%s: status %d", ep.name, code)
		}
	}
	req := httptest.NewRequest("GET", "/values?attr=city&k=2147483647", nil)
	if got := kParam(req); got != MaxK {
		t.Errorf("kParam(max int32) = %d, want %d", got, MaxK)
	}
	req = httptest.NewRequest("GET", "/values?attr=city&k=5", nil)
	if got := kParam(req); got != 5 {
		t.Errorf("kParam(5) = %d, clamp must not touch sane values", got)
	}
}

func TestAutocompleteEndpoint(t *testing.T) {
	s := testServer()
	var items []ScoredItem
	if code := getJSON(t, s.Autocomplete, "/?attrs=make&k=2", &items); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(items) == 0 || items[0].Name != "model" {
		t.Errorf("autocomplete = %+v", items)
	}
	if len(items) > 2 {
		t.Errorf("k ignored: %d items", len(items))
	}
}

func TestValuesEndpoint(t *testing.T) {
	s := testServer()
	var vals []string
	if code := getJSON(t, s.AttrValues, "/?attr=city", &vals); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(vals) != 2 || vals[0] != "seattle" {
		t.Errorf("values = %v", vals)
	}
	// Unknown attr → empty list, not error.
	if code := getJSON(t, s.AttrValues, "/?attr=nosuch", &vals); code != 200 {
		t.Errorf("unknown attr status %d", code)
	}
	if len(vals) != 0 {
		t.Errorf("unknown attr values = %v", vals)
	}
}

func TestPropertiesEndpoint(t *testing.T) {
	s := testServer()
	var items []ScoredItem
	if code := getJSON(t, s.Properties, "/?entity=seattle", &items); code != 200 {
		t.Fatalf("status %d", code)
	}
	names := map[string]bool{}
	for _, it := range items {
		names[it.Name] = true
	}
	if !names["population"] {
		t.Errorf("properties = %+v", items)
	}
}

func TestMissingParams(t *testing.T) {
	for _, ep := range endpoints(testServer()) {
		if rec := serve(ep.h, "GET", "/"); rec.Code != 400 {
			t.Errorf("%s without params: status %d, want 400", ep.name, rec.Code)
		}
	}
}

func TestKDefaultsAndBounds(t *testing.T) {
	s := testServer()
	var items []ScoredItem
	getJSON(t, s.Synonyms, "/?attr=make&k=0", &items)   // bad k → default
	getJSON(t, s.Synonyms, "/?attr=make&k=abc", &items) // non-numeric → default
}

func TestTableSearchEndpoint(t *testing.T) {
	s := testServer()
	var hits []map[string]any
	if code := getJSON(t, s.TableSearch, "/?q=population&k=5", &hits); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(hits) != 1 || hits[0]["url"] != "http://x" && hits[0]["rows"].(float64) != 1 {
		t.Errorf("hits = %v", hits)
	}
	if rec := serve(s.TableSearch, "GET", "/"); rec.Code != 400 {
		t.Errorf("missing q: status %d, want 400", rec.Code)
	}
}

// Every handler must reject non-GET verbs with 405, an Allow header
// and the shared error envelope — previously a POST to any endpoint
// answered 200 as if it were a GET.
func TestNonGETRejectedWithEnvelope(t *testing.T) {
	for _, ep := range endpoints(testServer()) {
		for _, method := range []string{"POST", "PUT", "DELETE"} {
			rec := serve(ep.h, method, "/?"+ep.qs)
			if rec.Code != 405 {
				t.Errorf("%s %s: status %d, want 405", method, ep.name, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != "GET" {
				t.Errorf("%s %s: Allow %q, want GET", method, ep.name, allow)
			}
			var env struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s %s: body %q is not the JSON envelope: %v", method, ep.name, rec.Body.String(), err)
			}
			if env.Error.Code != "method_not_allowed" || env.Error.Message == "" {
				t.Errorf("%s %s: envelope %+v", method, ep.name, env)
			}
		}
	}
}

// Errors come out as the shared envelope, not bare text.
func TestBadRequestUsesEnvelope(t *testing.T) {
	rec := serve(testServer().Synonyms, "GET", "/")
	if rec.Code != 400 {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	if !strings.Contains(rec.Body.String(), `"code":"bad_request"`) {
		t.Errorf("body %q lacks the envelope code", rec.Body.String())
	}
}
