package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/url"
	"os"
	"runtime"

	"deepweb/internal/engine"
	"deepweb/internal/index"
	"deepweb/internal/query"
)

// page is the part of a /v1/search body the checks read.
type page struct {
	Total   int   `json:"total"`
	Results []hit `json:"results"`
}

type hit struct {
	DocID int     `json:"doc_id"`
	Score float64 `json:"score"`
}

// parsePage decodes a 200 body and checks what holds for any page of
// any index: at most k hits, no more hits than the total, ranked by
// score descending then doc id ascending, positive finite scores.
func parsePage(status int, body []byte) (page, error) {
	var p page
	if status != 200 {
		return p, fmt.Errorf("status %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, &p); err != nil {
		return p, fmt.Errorf("malformed body: %w", err)
	}
	if len(p.Results) > pageK || len(p.Results) > p.Total {
		return p, fmt.Errorf("%d results on a page of %d with total %d", len(p.Results), pageK, p.Total)
	}
	for i, r := range p.Results {
		if !(r.Score > 0) || math.IsInf(r.Score, 0) {
			return p, fmt.Errorf("result %d has score %v", i, r.Score)
		}
		if i > 0 {
			prev := p.Results[i-1]
			if prev.Score < r.Score || prev.Score == r.Score && prev.DocID >= r.DocID {
				return p, fmt.Errorf("results %d and %d are out of rank order", i-1, i)
			}
		}
	}
	return p, nil
}

// pageHash folds one query's answer — its index, the total, every
// hit's doc id and exact score bits — into 64 bits. An annotated
// answer folds in only its total: annotated scores are not
// reproducible to the bit, nor is the order of near-ties (the index
// multiplies a hit's boost and demote factors in map order, and float
// multiplication does not associate), so two correct answers to one
// annotated query can differ in both.
func pageHash(idx int, q request, p page) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(idx))
	put(uint64(p.Total))
	if q.annotated {
		return h.Sum64()
	}
	for _, r := range p.Results {
		put(uint64(r.DocID))
		put(math.Float64bits(r.Score))
	}
	return h.Sum64()
}

// digest folds the per-query hashes, in query order, into the one
// value golden.json records per workload.
func digest(hashes []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range hashes {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// golden is bench/golden.json: the digests of the default seed's
// answers on one architecture. Snapshot bytes and score bits are
// deterministic there (the repo's property tests pin that), so any
// other digest is a wrong answer.
type golden struct {
	GOARCH  string            `json:"goarch"`
	Seed    int64             `json:"seed"`
	Docs    int               `json:"docs"`
	Digests map[string]string `json:"digests"`
}

func readGolden(path string) (golden, error) {
	var g golden
	buf, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	return g, json.Unmarshal(buf, &g)
}

// applies reports whether the golden digests were recorded for this
// run's inputs.
func (g golden) applies(seed int64, docs int) bool {
	return g.GOARCH == runtime.GOARCH && g.Seed == seed && g.Docs == docs
}

// reference answers q the slow way, below the engine and the API: rank
// every candidate with an unfiltered Index.TopK, then apply the host
// test and the predicates here and keep the first k. Annotated ranking
// has no slower equivalent, so its reference is the index's own
// AnnotatedTopK (of which pageHash compares the total).
func reference(ctx context.Context, ix *index.Index, q request) (page, error) {
	var p page
	text, preds := query.Extract(q.q)
	var hits []index.Result
	var err error
	if q.annotated {
		hits, p.Total, err = ix.AnnotatedTopK(ctx, text, pageK, 0, nil)
	} else {
		var all []index.Result
		all, _, err = ix.TopK(ctx, text, math.MaxInt32, 0, nil)
		m := query.NewMatcher(preds)
		for _, r := range all {
			if q.host != "" {
				u, err := url.Parse(r.URL)
				if err != nil || u.Host != q.host {
					continue
				}
			}
			if !m.Match(ix.AnnotationsOf(r.DocID), r.Title, ix.Doc(r.DocID).Text) {
				continue
			}
			if p.Total++; len(hits) < pageK {
				hits = append(hits, r)
			}
		}
	}
	if err != nil {
		return p, err
	}
	for _, r := range hits {
		p.Results = append(p.Results, hit{r.DocID, r.Score})
	}
	return p, nil
}

// crossCheck compares the served pages of up to n queries, spread
// evenly over the pool, with the reference; it returns how many
// disagree.
func crossCheck(ctx context.Context, e *engine.Engine, pool []request, served []page, n int) (checked, wrong int, first error) {
	step := max(len(pool)/n, 1)
	for i := 0; i < len(pool) && checked < n; i += step {
		want, err := reference(ctx, e.Index, pool[i])
		checked++
		if err == nil && pageHash(i, pool[i], want) != pageHash(i, pool[i], served[i]) {
			err = fmt.Errorf("served total %d and %d hits, reference total %d and %d hits",
				served[i].Total, len(served[i].Results), want.Total, len(want.Results))
		}
		if err != nil {
			wrong++
			if first == nil {
				first = fmt.Errorf("query %d %q: %w", i, pool[i].q, err)
			}
		}
	}
	return checked, wrong, first
}
