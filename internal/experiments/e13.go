package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"deepweb/internal/core"
	"deepweb/internal/index"
	"deepweb/internal/webgen"
	webxpkg "deepweb/internal/webx"
)

// ---------------------------------------------------------------------
// E13 — lost semantics of surfaced content (§5.1, extension): the
// "used ford focus 1993" example. Surfaced pages are plain text to the
// IR index, so a Honda listings page whose free text mentions the Ford
// Focus can rank as a "good result" for a Ford Focus query. The paper
// proposes attaching annotations (the form binding that generated the
// page is known at surfacing time) and letting the index exploit them;
// internal/index.AnnotatedTopK implements that.

// E13Report compares plain BM25 against annotation-aware ranking.
type E13Report struct {
	Queries         int
	PlainDecoyTop3  int // queries with a contradicted-make page in the top 3
	AnnotDecoyTop3  int
	PlainPrecision3 float64 // fraction of annotated top-3 hits whose make matches
	AnnotPrecision3 float64
}

// E13LostSemantics surfaces a used-car site whose listings carry §5.1
// cross-reference decoys, then issues "used «make» «model» «year»"
// queries built from the decoy rows — the exact adversarial shape of
// the paper's example.
func E13LostSemantics(ctx context.Context, seed int64, rows int) (E13Report, error) {
	var rep E13Report
	web := webgen.NewWeb()
	site, err := webgen.BuildSite("usedcars", 0, seed, rows)
	if err != nil {
		return rep, err
	}
	web.AddSite(site)
	fetch := webxpkg.NewFetcher(web)
	s := core.NewSurfacer(fetch, core.DefaultConfig())
	res, err := s.SurfaceSite(ctx, site.HomeURL())
	if err != nil {
		return rep, err
	}
	ix := index.New()
	core.IngestURLs(ctx, fetch, ix, res.Analysis.Form.ID, res.URLs, 5)

	// Build queries from decoy rows: the decoy page contains the
	// referenced make+model (in text) plus the decoy row's year.
	yi := site.Table.ColIndex("year")
	ni := site.Table.ColIndex("notes")
	type q struct {
		text string
		make string // the make the query is genuinely about
	}
	var queries []q
	for i := 0; i < site.Table.Len(); i++ {
		row := site.Table.Row(i)
		note := row[ni].Str
		idx := strings.Index(note, "better mileage than the ")
		if idx < 0 {
			continue
		}
		ref := strings.Fields(note[idx+len("better mileage than the "):])
		if len(ref) < 2 {
			continue
		}
		refMake, refModel := ref[0], ref[1]
		queries = append(queries, q{
			text: fmt.Sprintf("used %s %s %d", refMake, refModel, row[yi].Int),
			make: refMake,
		})
	}
	sort.Slice(queries, func(i, j int) bool { return queries[i].text < queries[j].text })
	if len(queries) > 40 {
		queries = queries[:40]
	}
	rep.Queries = len(queries)

	score := func(search func(context.Context, string, int, int, *index.Filter) ([]index.Result, int, error)) (decoyTop3 int, precision float64) {
		annotated, matching := 0, 0
		for _, query := range queries {
			sawDecoy := false
			hits, _, _ := search(ctx, query.text, 3, 0, nil)
			for _, hit := range hits {
				anns := ix.AnnotationsOf(hit.DocID)
				mk, ok := anns["make"]
				if !ok {
					continue
				}
				annotated++
				if mk == query.make {
					matching++
				} else {
					sawDecoy = true
				}
			}
			if sawDecoy {
				decoyTop3++
			}
		}
		if annotated > 0 {
			precision = float64(matching) / float64(annotated)
		}
		return decoyTop3, precision
	}
	rep.PlainDecoyTop3, rep.PlainPrecision3 = score(ix.TopK)
	rep.AnnotDecoyTop3, rep.AnnotPrecision3 = score(ix.AnnotatedTopK)
	return rep, nil
}

func (r E13Report) String() string {
	var b strings.Builder
	line(&b, "E13 lost semantics of surfaced pages (§5.1 extension, %d decoy queries)", r.Queries)
	line(&b, "  plain BM25:       decoy page in top-3 for %d/%d queries (make-precision@3 %s)",
		r.PlainDecoyTop3, r.Queries, pct(r.PlainPrecision3))
	line(&b, "  annotation-aware: decoy page in top-3 for %d/%d queries (make-precision@3 %s)",
		r.AnnotDecoyTop3, r.Queries, pct(r.AnnotPrecision3))
	return b.String()
}
