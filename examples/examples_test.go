// The library walkthroughs: each example drives one part of the paper
// end to end, and its printed output is pinned below it. Run them with
//
//	go test ./examples -run Example -v
package examples_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"net/url"

	"deepweb/internal/api"
	"deepweb/internal/core"
	"deepweb/internal/engine"
	"deepweb/internal/query"
	"deepweb/internal/surface"
	"deepweb/internal/virtual"
	"deepweb/internal/webgen"
	"deepweb/internal/webx"
	"deepweb/internal/workload"
)

// Quickstart: generate a small deep web, surface one site into a
// search engine, and search the results — the whole paper in ~40 lines.
func Example_quickstart() {
	// 1. A used-car classifieds site with 300 listings behind a form.
	web := webgen.NewWeb()
	site, err := webgen.BuildSite("usedcars", 0, 42, 300)
	if err != nil {
		log.Fatal(err)
	}
	web.AddSite(site)
	fmt.Printf("site %s: %d records behind %s\n\n", site.Spec.Host, site.Table.Len(), site.FormURL())

	// 2. Surface it: the surfacer discovers the form, recognizes input
	// types, fuses the min/max price range, probes, emits URLs, and
	// ingests the surfaced pages into the engine's index like any other
	// pages (§3.2).
	e := surface.New(web)
	surfaced, err := e.Surface(context.Background(), surface.SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		log.Fatal(err)
	}
	res := e.Results[site.Spec.Host]
	fmt.Printf("typed inputs: %v\n", res.Analysis.TypedInputs)
	fmt.Printf("range pairs:  %v\n", res.Analysis.RangePairs)
	fmt.Printf("emitted %d URLs using %d analysis requests\n", len(res.URLs), res.ProbesUsed)
	cov := e.SiteCoverage(site.Spec.Host)
	fmt.Printf("ground-truth coverage: %d/%d records (%.0f%%)\n\n", cov.Covered, cov.Total, 100*cov.Fraction())

	// 3. Search the index through the serving API: the response carries
	// the ranked page plus the total hit count and retrieval time.
	fmt.Printf("indexed %d deep-web pages\n\n", surfaced.Sites[site.Spec.Host].Ingest.Indexed)
	for _, q := range []string{"used ford focus", "honda under 5000", "toyota corolla seattle"} {
		resp, err := e.Engine.Search(context.Background(), engine.SearchRequest{Query: q, K: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %q (%d total hits):\n", q, resp.Total)
		for i, hit := range resp.Results {
			fmt.Printf("  %d. %s (score %.2f)\n", i+1, hit.URL, hit.Score)
		}
	}

	// Output:
	// site usedcars-00.example: 300 records behind http://usedcars-00.example/search
	//
	// typed inputs: map[maxprice:price minprice:price zip:zipcode]
	// range pairs:  [{minprice maxprice price price}]
	// emitted 50 URLs using 84 analysis requests
	// ground-truth coverage: 300/300 records (100%)
	//
	// indexed 75 deep-web pages
	//
	// query "used ford focus" (75 total hits):
	//   1. http://usedcars-00.example/results?make=ford&maxprice=&minprice=&model=&zip= (score 4.74)
	//   2. http://usedcars-00.example/results?make=&maxprice=3000&minprice=1300&model=&start=20&zip= (score 4.40)
	//   3. http://usedcars-00.example/results?make=ford&maxprice=&minprice=&model=&start=30&zip= (score 3.88)
	// query "honda under 5000" (25 total hits):
	//   1. http://usedcars-00.example/results?make=&maxprice=6800&minprice=3000&model=&start=30&zip= (score 3.37)
	//   2. http://usedcars-00.example/results?make=&maxprice=15800&minprice=6800&model=&start=20&zip= (score 2.84)
	//   3. http://usedcars-00.example/results?make=&maxprice=6800&minprice=3000&model=&zip= (score 2.78)
	// query "toyota corolla seattle" (43 total hits):
	//   1. http://usedcars-00.example/results?make=toyota&maxprice=&minprice=&model=&start=10&zip= (score 6.21)
	//   2. http://usedcars-00.example/results?make=toyota&maxprice=&minprice=&model=&zip= (score 6.11)
	//   3. http://usedcars-00.example/results?make=&maxprice=6800&minprice=3000&model=&start=30&zip= (score 5.12)
}

// Used-cars vertical: the §4.2 correlated-inputs story on one site.
// Compares naive against range-aware surfacing (the 120-vs-10 URL
// example) and shows the typed-input recognizer at work.
func Example_usedcars() {
	run := func(name string, cfg core.Config) {
		web := webgen.NewWeb()
		site, err := webgen.BuildSite("usedcars", 0, 7, 400)
		if err != nil {
			log.Fatal(err)
		}
		web.AddSite(site)
		// This example compares the analysis stage alone (no ingestion),
		// so it drives the core surfacer directly rather than the surface
		// pipeline — surfacing + fetching every URL would be wasted work.
		s := core.NewSurfacer(webx.NewFetcher(web), cfg)
		res, err := s.SurfaceSite(context.Background(), site.HomeURL())
		if err != nil {
			log.Fatal(err)
		}
		priceURLs, invalid := 0, 0
		covered := map[int]bool{}
		for _, u := range res.URLs {
			parsed, _ := url.Parse(u)
			q := parsed.Query()
			rows := site.MatchingRows(q)
			for _, id := range rows {
				covered[id] = true
			}
			// Count URLs binding only the price inputs — the exact
			// population of the paper's 120-vs-10 example.
			priceBound, otherBound := false, false
			for key, vals := range q {
				bound := len(vals) > 0 && vals[0] != ""
				switch {
				case key == "minprice" || key == "maxprice":
					priceBound = priceBound || bound
				case bound:
					otherBound = true
				}
			}
			if priceBound && !otherBound {
				priceURLs++
				if len(rows) == 0 {
					invalid++
				}
			}
		}
		fmt.Printf("%-12s typed=%v ranges=%d total-urls=%d price-urls=%d (%d retrieve nothing) coverage=%.0f%%\n",
			name, res.Analysis.TypedInputs, len(res.Analysis.RangePairs),
			len(res.URLs), priceURLs, invalid, 100*float64(len(covered))/400)
	}

	aware := core.DefaultConfig()
	aware.MaxValuesPerInput = 10
	naive := aware
	naive.RangeAware = false
	naive.StrictExtension = false

	fmt.Println("surfacing a used-car site with min/max price inputs (10 candidate values each):")
	run("range-aware", aware)
	run("naive", naive)
	fmt.Println("\nthe paper's §4.2 arithmetic: naive ≈ 120 price URLs, range-aware = 10, same coverage")

	// Output:
	// surfacing a used-car site with min/max price inputs (10 candidate values each):
	// range-aware  typed=map[maxprice:price minprice:price zip:zipcode] ranges=1 total-urls=30 price-urls=10 (4 retrieve nothing) coverage=100%
	// naive        typed=map[maxprice:price minprice:price zip:zipcode] ranges=0 total-urls=540 price-urls=120 (70 retrieve nothing) coverage=100%
	//
	// the paper's §4.2 arithmetic: naive ≈ 120 price URLs, range-aware = 10, same coverage
}

// Vertical search: the virtual-integration side of §3.1. A mediator
// registers forms into mediated schemas, answers structured queries
// over a whole vertical, and shows both where it shines (typed slicing,
// POST forms, live results) and where it fails (the fortuitous query).
func Example_verticalsearch() {
	e, err := surface.Build(webgen.WorldConfig{Seed: 11, SitesPerDom: 3, RowsPerSite: 200})
	if err != nil {
		log.Fatal(err)
	}
	m := virtual.NewMediator(e.Fetch)
	registered := 0
	for _, site := range e.Web.Sites() {
		f, err := surface.FormOf(context.Background(), e.Fetch, site)
		if err != nil {
			continue
		}
		if _, err := m.Register(f); err == nil {
			registered++
		}
	}
	fmt.Printf("mediator: %d sources registered across %d schemas\n\n", registered, len(m.Schemas))

	// Structured query over the usedcars vertical: slice by make.
	fmt.Println("structured query usedcars[make:ford] (first 5 of merged live results):")
	for i, a := range m.StructuredQuery(context.Background(), "usedcars", []query.Predicate{query.Eq("make", "ford")}, 5) {
		fmt.Printf("  %d. [%s] %s\n", i+1, a.Site, a.Record)
	}

	// Keyword answering with routing + reformulation.
	fmt.Println("\nkeyword query 'homes in seattle' (routed + reformulated live):")
	answers, st := m.Answer(context.Background(), "homes in seattle", 5)
	fmt.Printf("  routed to %d sources, %d live submissions\n", st.Routed, st.Submitted)
	for i, a := range answers {
		fmt.Printf("  %d. [%s] %s\n", i+1, a.Site, a.Record)
	}

	// The §3.2 fortuitous query: the mediator understands the faculty
	// form perfectly — and still cannot answer this.
	fmt.Println("\nkeyword query 'sigmod innovations award professor':")
	answers, st = m.Answer(context.Background(), "sigmod innovations award professor", 5)
	fmt.Printf("  routed to %d sources, %d reformulable, %d answers", st.Routed, st.Submitted, len(answers))
	fmt.Println("  ← the schema cannot express 'award'; surfacing answers this (see examples/quickstart)")

	// Output:
	// mediator: 27 sources registered across 9 schemas
	//
	// structured query usedcars[make:ford] (first 5 of merged live results):
	//   1. [usedcars-02.example] ford escort 1992 6000 59000 seattle 98120 corner updated sunny
	//   2. [usedcars-00.example] ford escort 2000 16500 158000 new york 10022 corner waterfront garage
	//   3. [usedcars-00.example] ford escort 2004 23500 122000 baltimore 21216 downtown garden insulated
	//   4. [usedcars-00.example] ford explorer 1993 8250 147000 seattle 98121 mountain sunny corner
	//   5. [usedcars-02.example] ford explorer 2001 7000 49000 portland 97215 hardwood restored condition better mileage than the volkswagen golf
	//
	// keyword query 'homes in seattle' (routed + reformulated live):
	//   routed to 12 sources, 9 live submissions
	//   1. [realestate-01.example] seattle wa apartment 98113 5 545000 furnished condition view rare
	//   2. [realestate-02.example] seattle wa apartment 98117 5 645000 excellent vintage heated rare
	//   3. [realestate-01.example] seattle wa condo 98100 6 70000 furnished view rare mountain
	//   4. [realestate-00.example] seattle wa condo 98113 1 135000 furnished downtown original spacious
	//   5. [realestate-02.example] seattle wa condo 98113 5 515000 garage waterfront vintage certified
	//
	// keyword query 'sigmod innovations award professor':
	//   routed to 3 sources, 0 reformulable, 0 answers  ← the schema cannot express 'award'; surfacing answers this (see examples/quickstart)
}

// Semantic services (§6): crawl a synthetic web through the surfacer,
// aggregate its HTML tables, and exercise the four services —
// synonyms, schema auto-complete, attribute values, entity properties —
// over the versioned /v1 HTTP surface (internal/api).
func Example_semantics() {
	e, err := surface.Build(webgen.WorldConfig{Seed: 42, SitesPerDom: 2, RowsPerSite: 120})
	if err != nil {
		log.Fatal(err)
	}
	sem := e.BuildSemantics(context.Background(), 5000)
	fmt.Printf("crawled %d pages → %d relational tables, %d distinct attributes\n\n",
		sem.PagesCrawled, len(sem.Tables), len(sem.ACS.Freq))

	// Serve the versioned API surface and query it like a client would.
	srv := httptest.NewServer(api.New(api.Options{Semantics: sem.Server()}))
	defer srv.Close()

	show := func(path string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var pretty any
		json.Unmarshal(body, &pretty)
		out, _ := json.Marshal(pretty)
		fmt.Printf("GET %-56s → %s\n", path, truncate(string(out), 100))
	}

	show("/v1/semantics/synonyms?attr=make&k=3")        // → "maker": mined from alias sites
	show("/v1/semantics/autocomplete?attrs=make&k=4")   // → model, price, year…
	show("/v1/semantics/values?attr=city&k=5")          // → city vocabulary for form filling
	show("/v1/semantics/properties?entity=seattle&k=5") // → attributes tables give the entity
	show("/v1/admin/stats")                             // → table counts for operators
	show("/healthz")                                    // → liveness

	// Output:
	// crawled 2197 pages → 2160 relational tables, 43 distinct attributes
	//
	// GET /v1/semantics/synonyms?attr=make&k=3                     → [{"name":"asking price","score":6},{"name":"maker","score":6},{"name":"type","score":4}]
	// GET /v1/semantics/autocomplete?attrs=make&k=4                → [{"name":"city","score":1},{"name":"mileage","score":1},{"name":"model","score":1},{"name":"notes","…
	// GET /v1/semantics/values?attr=city&k=5                       → ["seattle","portland","san francisco","los angeles","denver"]
	// GET /v1/semantics/properties?entity=seattle&k=5              → [{"name":"city","score":278},{"name":"state","score":184},{"name":"notes","score":178},{"name":"zip"…
	// GET /v1/admin/stats                                          → {"docs":0,"generation":0,"inflight_queries":0,"queries":0,"tables":2160}
	// GET /healthz                                                 → {"docs":0,"generation":0,"status":"ok"}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// Long tail: regenerate the paper's §3.2 impact curve — the cumulative
// share of deep-web results held by the top-k forms — at paper scale.
func Example_longtail() {
	const nForms = 200000
	// Calibrate the traffic exponent so the top 10k forms hold 50% of
	// impact (the paper's first data point), then print the curve.
	s := workload.CalibrateExponent(nForms, 10000, workload.PaperShares.Top10kOf200k)
	weights := workload.FormImpact(s, nForms)

	fmt.Printf("form-impact distribution: Zipf exponent %.3f over %d forms (gini %.2f)\n\n",
		s, nForms, workload.GiniCoefficient(weights))
	fmt.Println("  top-k forms   cumulative share of deep-web results")
	tops := []int{100, 1000, 10000, 50000, 100000, 200000}
	shares := workload.SharesAt(weights, tops)
	for i, k := range tops {
		marker := ""
		switch k {
		case 10000:
			marker = "   ← paper: 50%"
		case 100000:
			marker = "   ← paper: 85%"
		}
		fmt.Printf("  %8d      %5.1f%%%s\n", k, 100*shares[i], marker)
	}
	fmt.Println("\nthe impact of deep-web surfacing is on the long tail of queries (§3.2):")
	fmt.Println("half the impact comes from just 5% of forms, yet the last 15% needs half a million-strong tail")

	// Output:
	// form-impact distribution: Zipf exponent 0.791 over 200000 forms (gini 0.63)
	//
	//   top-k forms   cumulative share of deep-web results
	//        100       14.5%
	//       1000       28.1%
	//      10000       50.0%   ← paper: 50%
	//      50000       73.0%
	//     100000       85.5%   ← paper: 85%
	//     200000      100.0%
	//
	// the impact of deep-web surfacing is on the long tail of queries (§3.2):
	// half the impact comes from just 5% of forms, yet the last 15% needs half a million-strong tail
}
