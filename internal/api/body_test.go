package api

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"deepweb/internal/engine"
	"deepweb/internal/index"
	"deepweb/internal/query"
)

// searchResult and searchResponse are the reference encoding of the
// /v1/search document: what encoding/json writes for them is the wire
// format appendSearchBody must reproduce byte for byte.
type searchResult struct {
	DocID  int     `json:"doc_id"`
	URL    string  `json:"url"`
	Title  string  `json:"title"`
	Source string  `json:"source,omitempty"`
	Score  float64 `json:"score"`
}

type searchResponse struct {
	Query      string         `json:"query"`
	Filters    []string       `json:"filters,omitempty"`
	K          int            `json:"k"`
	Offset     int            `json:"offset"`
	Total      int            `json:"total"`
	Generation uint32         `json:"generation"`
	TookMS     float64        `json:"took_ms"`
	Results    []searchResult `json:"results"`
}

// referenceBody encodes the page with json.NewEncoder, as the handler
// did before it appended the document itself.
func referenceBody(q string, filters []query.Predicate, k, offset int, tookMS float64, resp *engine.SearchResponse) ([]byte, error) {
	ref := searchResponse{
		Query:      q,
		K:          k,
		Offset:     offset,
		Total:      resp.Total,
		Generation: resp.Generation,
		TookMS:     tookMS,
		Results:    make([]searchResult, len(resp.Results)),
	}
	for _, p := range filters {
		ref.Filters = append(ref.Filters, p.String())
	}
	for i, hit := range resp.Results {
		ref.Results[i] = searchResult{DocID: hit.DocID, URL: hit.URL, Title: hit.Title, Source: hit.Source, Score: hit.Score}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(ref)
	return buf.Bytes(), err
}

// The append encoder against encoding/json: arbitrary strings (invalid
// UTF-8, control bytes, <>&, U+2028), floats on both sides of the 'e'
// cutoffs and the non-finite ones, empty and non-empty filters and
// sources. The bytes must be identical, or both must refuse with the
// same error.
func FuzzSearchBody(f *testing.F) {
	f.Add("used ford <focus> & co", "http://cars.example/d/0?a=1&b=2", "used ford focus", "cars-form",
		"ford", 3.25, 0.0123, 7, 10, 0, 200, uint32(3203334458), uint8(3))
	f.Add("\xff\xfe bad utf8 \x00\x1f\x7f", "http://x.example/\u2028", "line\u2029sep\t\n\r\b\f", "",
		"\"quoted\\\"", 1e-7, 1e21, -1, 0, -5, 0, uint32(0), uint8(2))
	f.Add("", "", "", "", "", math.NaN(), 0.5, 0, 1, 0, 1, uint32(1), uint8(1))
	f.Add("q", "u", "t", "s", "v", 2.5, math.Inf(1), 0, 1, 0, 1, uint32(1), uint8(0))
	f.Add("q", "u", "t", "s", "v", math.Inf(-1), 9.99e-7, 0, 1, 0, 1, uint32(1), uint8(2))
	f.Add("\u00e9\u20ac\U0001F600\xc3", "u", "t", "s", "<script>", math.Copysign(0, -1), 123456789012345678901234.0, 1<<40, 1000, 10000, 1<<31, uint32(1<<32-1), uint8(3))
	f.Fuzz(func(t *testing.T, q, url, title, source, value string, score, tookMS float64, docID, k, offset, total int, gen uint32, hits uint8) {
		var filters []query.Predicate
		if value != "" {
			filters = query.Canonical([]query.Predicate{
				{Attr: "make", Op: query.OpEq, Value: value},
				{Attr: "price", Op: query.OpLt, Value: "10000", Hi: 10000},
			})
		}
		resp := engine.SearchResponse{Total: total, Generation: gen}
		for i := range int(hits % 4) {
			hit := index.Result{DocID: docID + i, URL: url, Title: title, Score: score / float64(i+1)}
			if i%2 == 0 {
				hit.Source = source
			}
			resp.Results = append(resp.Results, hit)
		}
		want, wantErr := referenceBody(q, filters, k, offset, tookMS, &resp)
		got, gotErr := appendSearchBody(nil, q, filters, k, offset, tookMS, &resp)
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Fatalf("encoding/json err %v, append encoder err %v", wantErr, gotErr)
		case wantErr != nil:
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("refusals differ: encoding/json %q, append encoder %q", wantErr, gotErr)
			}
		case !bytes.Equal(got, want):
			t.Fatalf("bodies differ:\nencoding/json:   %q\nappend encoder:  %q", want, got)
		}
	})
}
