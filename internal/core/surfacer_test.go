package core

import (
	"context"
	"net/url"
	"strings"
	"testing"

	"deepweb/internal/form"
	"deepweb/internal/index"
	"deepweb/internal/textutil"
	"deepweb/internal/webgen"
	"deepweb/internal/webx"
)

// surfaceDomain builds one site of the domain, surfaces it, and returns
// everything the assertions need.
func surfaceDomain(t *testing.T, domain string, rows int, cfg Config) (*webgen.Web, *webgen.Site, *Result) {
	t.Helper()
	web := webgen.NewWeb()
	site, err := webgen.BuildSite(domain, 0, 42, rows)
	if err != nil {
		t.Fatal(err)
	}
	web.AddSite(site)
	s := NewSurfacer(webx.NewFetcher(web), cfg)
	res, err := s.SurfaceSite(context.Background(), site.HomeURL())
	if err != nil {
		t.Fatal(err)
	}
	return web, site, res
}

// coverageOf returns the fraction of the site's rows retrievable via
// the surfaced URLs (ground-truth oracle).
func coverageOf(t *testing.T, site *webgen.Site, urls []string) float64 {
	t.Helper()
	covered := map[int]bool{}
	for _, u := range urls {
		parsed, err := url.Parse(u)
		if err != nil {
			t.Fatalf("bad surfaced URL %q: %v", u, err)
		}
		for _, id := range site.MatchingRows(parsed.Query()) {
			covered[id] = true
		}
	}
	return float64(len(covered)) / float64(site.Table.Len())
}

func TestSurfaceUsedCars(t *testing.T) {
	_, site, res := surfaceDomain(t, "usedcars", 300, DefaultConfig())
	a := res.Analysis
	if a.PostOnly {
		t.Fatal("GET site reported PostOnly")
	}
	if a.Form == nil || a.Form.Site != site.Spec.Host {
		t.Fatalf("form discovery failed: %+v", a.Form)
	}
	// Typed inputs: zip and the price range endpoints.
	if a.TypedInputs["minprice"] != textutil.TypePrice || a.TypedInputs["maxprice"] != textutil.TypePrice {
		t.Errorf("price range not typed: %v", a.TypedInputs)
	}
	// Range pair fused.
	if len(a.RangePairs) != 1 || a.RangePairs[0].Stem != "price" {
		t.Fatalf("range pairs = %+v", a.RangePairs)
	}
	for _, d := range a.Dimensions {
		if d.Name == "minprice" || d.Name == "maxprice" {
			t.Errorf("range endpoint surfaced independently: %s", d.Name)
		}
	}
	if len(res.URLs) == 0 {
		t.Fatal("no URLs emitted")
	}
	if cov := coverageOf(t, site, res.URLs); cov < 0.8 {
		t.Errorf("coverage = %.2f, want ≥ 0.8", cov)
	}
}

func TestSurfaceUsedCarsSelectDimension(t *testing.T) {
	_, site, res := surfaceDomain(t, "usedcars", 300, DefaultConfig())
	var makeDim *Dimension
	for i := range res.Analysis.Dimensions {
		if res.Analysis.Dimensions[i].Name == "make" {
			makeDim = &res.Analysis.Dimensions[i]
		}
	}
	if makeDim == nil {
		t.Fatal("make select not a dimension")
	}
	want := site.Table.DistinctStrings("make")
	if len(makeDim.Values) != len(want) {
		t.Errorf("make values = %d, want %d", len(makeDim.Values), len(want))
	}
}

func TestSurfaceLibrarySearchBox(t *testing.T) {
	_, site, res := surfaceDomain(t, "library", 300, DefaultConfig())
	var qDim *Dimension
	for i := range res.Analysis.Dimensions {
		if res.Analysis.Dimensions[i].Name == "q" {
			qDim = &res.Analysis.Dimensions[i]
		}
	}
	if qDim == nil {
		t.Fatal("search box produced no dimension")
	}
	if len(qDim.Values) < 5 {
		t.Errorf("iterative probing found only %d keywords", len(qDim.Values))
	}
	if cov := coverageOf(t, site, res.URLs); cov < 0.5 {
		t.Errorf("library coverage = %.2f, want ≥ 0.5", cov)
	}
}

func TestSurfaceMediaDBSelection(t *testing.T) {
	_, _, res := surfaceDomain(t, "media", 400, DefaultConfig())
	if res.Analysis.DBSel == nil {
		t.Fatal("database-selection pattern not detected")
	}
	var fused *Dimension
	for i := range res.Analysis.Dimensions {
		if strings.Contains(res.Analysis.Dimensions[i].Name, "+") {
			fused = &res.Analysis.Dimensions[i]
		}
	}
	if fused == nil {
		t.Fatal("no fused catalog+keyword dimension")
	}
	// The fused dimension must carry (option, keyword) pairs spanning
	// multiple catalogs.
	cats := map[string]bool{}
	for _, v := range fused.Values {
		cats[v[0]] = true
	}
	if len(cats) < 3 {
		t.Errorf("fused dimension spans %d catalogs, want ≥ 3", len(cats))
	}
}

func TestSurfacePostOnly(t *testing.T) {
	web := webgen.NewWeb()
	site, err := webgen.BuildSite("govdocs", 0, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	post := webgen.AsPost(site)
	web.AddSite(post)
	s := NewSurfacer(webx.NewFetcher(web), DefaultConfig())
	res, err := s.SurfaceSite(context.Background(), post.HomeURL())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Analysis.PostOnly {
		t.Error("POST-only site not flagged")
	}
	if len(res.URLs) != 0 {
		t.Errorf("POST site surfaced %d URLs", len(res.URLs))
	}
}

func TestSurfaceRespectsURLBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.URLBudget = 15
	_, _, res := surfaceDomain(t, "usedcars", 300, cfg)
	if len(res.URLs) > 15 {
		t.Errorf("URL budget violated: %d", len(res.URLs))
	}
}

func TestSurfaceRespectsProbeBudget(t *testing.T) {
	web := webgen.NewWeb()
	site, _ := webgen.BuildSite("usedcars", 0, 42, 300)
	web.AddSite(site)
	cfg := DefaultConfig()
	cfg.ProbeBudget = 40
	web.ResetCounts()
	s := NewSurfacer(webx.NewFetcher(web), cfg)
	if _, err := s.SurfaceSite(context.Background(), site.HomeURL()); err != nil {
		t.Fatal(err)
	}
	// Analysis traffic (all requests; nothing else ran) must respect
	// the budget within the slack of the final in-flight sample.
	if got := web.Requests(site.Spec.Host); got > 40+5 {
		t.Errorf("probe budget 40 but %d requests", got)
	}
}

func TestSurfaceURLsAreCanonicalAndUnique(t *testing.T) {
	_, _, res := surfaceDomain(t, "usedcars", 200, DefaultConfig())
	seen := map[string]bool{}
	for _, u := range res.URLs {
		if seen[u] {
			t.Fatalf("duplicate URL %s", u)
		}
		seen[u] = true
		if !strings.Contains(u, "/results?") {
			t.Fatalf("URL not a form submission: %s", u)
		}
	}
}

func TestNaiveVsRangeAwareURLCounts(t *testing.T) {
	// The §4.2 arithmetic: 2 range inputs with ~10 values each surface
	// ~10 URLs fused but ~100+ as independent inputs.
	aware := DefaultConfig()
	naive := DefaultConfig()
	naive.RangeAware = false

	_, _, resAware := surfaceDomain(t, "realestate", 300, aware)
	_, _, resNaive := surfaceDomain(t, "realestate", 300, naive)

	priceURLs := func(res *Result) int {
		n := 0
		for _, u := range res.URLs {
			parsed, _ := url.Parse(u)
			q := parsed.Query()
			if q.Get("minprice") != "" || q.Get("maxprice") != "" {
				n++
			}
		}
		return n
	}
	na, aw := priceURLs(resNaive), priceURLs(resAware)
	if aw == 0 || na == 0 {
		t.Fatalf("price URLs: aware=%d naive=%d", aw, na)
	}
	if na < 3*aw {
		t.Errorf("naive (%d) should generate ≫ range-aware (%d) price URLs", na, aw)
	}
}

func TestIngestSurfacedURLs(t *testing.T) {
	web, site, res := surfaceDomain(t, "faculty", 200, DefaultConfig())
	ix := index.New()
	st := IngestURLs(context.Background(), webx.NewFetcher(web), ix, res.Analysis.Form.ID, res.URLs, 3)
	if st.Indexed == 0 {
		t.Fatal("nothing indexed")
	}
	if st.Indexed != ix.Len() {
		t.Errorf("Indexed=%d but index has %d", st.Indexed, ix.Len())
	}
	// A department query must now hit a surfaced page of this site.
	dept := site.Table.DistinctStrings("department")[0]
	hits, _, _ := ix.TopK(context.Background(), dept, 5, 0, nil)
	if len(hits) == 0 {
		t.Fatalf("no hits for surfaced department %q", dept)
	}
	if hits[0].Source != res.Analysis.Form.ID {
		t.Errorf("hit not attributed to form: %+v", hits[0])
	}
}

func TestIngestFollowsPaging(t *testing.T) {
	web, site, res := surfaceDomain(t, "usedcars", 400, DefaultConfig())
	ix := index.New()
	// followNext=0: page-1 docs only.
	st0 := IngestURLs(context.Background(), webx.NewFetcher(web), ix, "f", res.URLs, 0)
	ix2 := index.New()
	st2 := IngestURLs(context.Background(), webx.NewFetcher(web), ix2, "f", res.URLs, 5)
	if st2.Indexed <= st0.Indexed {
		t.Errorf("paging follow added nothing: %d vs %d", st2.Indexed, st0.Indexed)
	}
	_ = site
}

func TestEnumerateOdometer(t *testing.T) {
	dims := []Dimension{
		{Name: "a", Inputs: []string{"a"}, Values: [][]string{{"1"}, {"2"}}},
		{Name: "b", Inputs: []string{"b"}, Values: [][]string{{"x"}, {"y"}, {"z"}}},
	}
	bs := enumerate(dims, []int{0, 1})
	if len(bs) != 6 {
		t.Fatalf("enumerate = %d bindings, want 6", len(bs))
	}
	if bs[0]["a"] != "1" || bs[0]["b"] != "x" || bs[5]["a"] != "2" || bs[5]["b"] != "z" {
		t.Errorf("order wrong: first=%v last=%v", bs[0], bs[5])
	}
}

func TestEnumerateFusedDimension(t *testing.T) {
	dims := []Dimension{{
		Name: "min+max", Inputs: []string{"min", "max"},
		Values: [][]string{{"0", "10"}, {"10", "20"}},
	}}
	bs := enumerate(dims, []int{0})
	if len(bs) != 2 {
		t.Fatalf("got %d bindings", len(bs))
	}
	if bs[0]["min"] != "0" || bs[0]["max"] != "10" {
		t.Errorf("fused binding wrong: %v", bs[0])
	}
}

func TestSampleBindingsSpread(t *testing.T) {
	all := make([]form.Binding, 100)
	for i := range all {
		all[i] = form.Binding{"i": string(rune('a' + i%26))}
	}
	s := sampleBindings(all, 10)
	if len(s) != 10 {
		t.Fatalf("sample size %d", len(s))
	}
	small := sampleBindings(all[:3], 10)
	if len(small) != 3 {
		t.Errorf("undersized input should pass through, got %d", len(small))
	}
}

func TestSeedKeywords(t *testing.T) {
	texts := []string{
		"quality used cars for sale",
		"used cars and trucks, cars cars cars",
	}
	kws := SeedKeywords(texts, 3)
	if len(kws) != 3 || kws[0] != "cars" {
		t.Errorf("SeedKeywords = %v", kws)
	}
}

func TestSelectDiverse(t *testing.T) {
	kws := []keywordInfo{
		{kw: "a", sig: 1, items: 10},
		{kw: "b", sig: 1, items: 9}, // same page as a
		{kw: "c", sig: 2, items: 5},
		{kw: "d", sig: 3, items: 1},
	}
	got := selectDiverse(kws, 3)
	if len(got) != 3 {
		t.Fatalf("got %d", len(got))
	}
	if got[0].kw != "a" || got[1].kw != "c" || got[2].kw != "d" {
		t.Errorf("diversity selection wrong: %+v", got)
	}
	// With room, the duplicate is appended.
	got4 := selectDiverse(kws, 4)
	if len(got4) != 4 || got4[3].kw != "b" {
		t.Errorf("fill-up wrong: %+v", got4)
	}
}

func TestInformativeEdgeCases(t *testing.T) {
	s := NewSurfacer(nil, DefaultConfig())
	if s.informative(TemplateEval{}) {
		t.Error("empty eval informative")
	}
	if s.informative(TemplateEval{Sampled: 10, Distinct: 1, ZeroPages: 0}) {
		t.Error("all-same-signature informative")
	}
	if s.informative(TemplateEval{Sampled: 10, Distinct: 10, ZeroPages: 10}) {
		t.Error("all-empty-pages informative")
	}
	if !s.informative(TemplateEval{Sampled: 10, Distinct: 8, ZeroPages: 1, AvgItems: 5}) {
		t.Error("clearly informative template rejected")
	}
	if !s.informative(TemplateEval{Sampled: 1, Distinct: 1}) {
		t.Error("single-URL template should be informative")
	}
}
