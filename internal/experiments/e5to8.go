package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"deepweb/internal/core"
	"deepweb/internal/form"
	"deepweb/internal/textutil"
	"deepweb/internal/webgen"
	webxpkg "deepweb/internal/webx"
)

// ---------------------------------------------------------------------
// E5 — typed inputs (§4.1): "as many as 6.7% of English forms in the US
// contain inputs of common types like zip codes, city names, prices,
// and dates", and such inputs can be recognized "with high accuracy".

// E5Report has two halves: prevalence over a synthetic form-name
// population with the paper's planted rate, and behavioural
// precision/recall of the full recognizer over the generated sites.
type E5Report struct {
	// Population half.
	PopulationForms int
	PlantedTyped    int
	RecognizedTyped int
	PopPrecision    float64
	PopRecall       float64
	// Behavioural half (hypothesis + probe confirmation on live sites).
	SiteInputs    int
	TruePositives int
	FalsePositive int
	FalseNegative int
}

// typedNameVariants are realistic input names per type, and decoyNames
// are untyped names a recognizer must not fire on.
var typedNameVariants = map[string][]string{
	textutil.TypeZip:   {"zip", "zipcode", "zip_code", "postalcode"},
	textutil.TypeCity:  {"city", "cityname", "town"},
	textutil.TypePrice: {"price", "maxprice", "min_price", "salary", "cost"},
	textutil.TypeDate:  {"year", "date", "pubdate", "modelyear"},
}

var decoyNames = []string{
	"q", "query", "search", "keywords", "name", "title", "author",
	"model", "company", "isbn", "category", "department", "agency",
	"topic", "dish", "cuisine", "state", "type", "bedrooms", "notes",
}

// E5TypedInputs measures both halves.
func E5TypedInputs(ctx context.Context, seed int64, populationForms, rows int) (E5Report, error) {
	var rep E5Report
	// --- population prevalence: plant the paper's 6.7% rate.
	r := rand.New(rand.NewSource(seed))
	rep.PopulationForms = populationForms
	tp, fp, fn := 0, 0, 0
	kinds := []string{textutil.TypeZip, textutil.TypeCity, textutil.TypePrice, textutil.TypeDate}
	for i := 0; i < populationForms; i++ {
		var name, truth string
		if r.Float64() < 0.067 {
			truth = kinds[r.Intn(len(kinds))]
			variants := typedNameVariants[truth]
			name = variants[r.Intn(len(variants))]
			rep.PlantedTyped++
		} else {
			name = decoyNames[r.Intn(len(decoyNames))]
		}
		got := textutil.HypothesizeType(name, "")
		switch {
		case got != "" && got == truth:
			tp++
			rep.RecognizedTyped++
		case got != "" && got != truth:
			fp++
			rep.RecognizedTyped++
		case got == "" && truth != "":
			fn++
		}
	}
	if tp+fp > 0 {
		rep.PopPrecision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		rep.PopRecall = float64(tp) / float64(tp+fn)
	}

	// --- behavioural: run the surfacer on one site per domain and
	// compare confirmed types against site ground truth.
	web, err := webgen.BuildWorld(webgen.WorldConfig{Seed: seed, SitesPerDom: 1, RowsPerSite: rows})
	if err != nil {
		return rep, err
	}
	fetch := webxpkg.NewFetcher(web)
	for _, site := range web.Sites() {
		s := core.NewSurfacer(fetch, core.DefaultConfig())
		res, err := s.SurfaceSite(ctx, site.HomeURL())
		if err != nil || res.Analysis.Form == nil {
			continue
		}
		truth := site.Spec.TypedInputs()
		rep.SiteInputs += len(truth)
		for name, typ := range res.Analysis.TypedInputs {
			if truth[name] == typ {
				rep.TruePositives++
			} else {
				rep.FalsePositive++
			}
		}
		for name := range truth {
			if _, ok := res.Analysis.TypedInputs[name]; !ok {
				rep.FalseNegative++
			}
		}
	}
	return rep, nil
}

// SitePrecision is behavioural precision.
func (r E5Report) SitePrecision() float64 {
	if r.TruePositives+r.FalsePositive == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalsePositive)
}

// SiteRecall is behavioural recall.
func (r E5Report) SiteRecall() float64 {
	if r.TruePositives+r.FalseNegative == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalseNegative)
}

func (r E5Report) String() string {
	var b strings.Builder
	line(&b, "E5 typed inputs")
	line(&b, "  population: planted %s typed (paper 6.7%%), recognizer precision %s recall %s",
		pct(float64(r.PlantedTyped)/float64(r.PopulationForms)), pct(r.PopPrecision), pct(r.PopRecall))
	line(&b, "  live sites: %d typed inputs, precision %s recall %s (paper: 'high accuracy')",
		r.SiteInputs, pct(r.SitePrecision()), pct(r.SiteRecall()))
	return b.String()
}

// ---------------------------------------------------------------------
// E6 — iterative probing (§4.1): seed keywords from indexed site pages,
// refined by probing, versus a generic dictionary baseline.

// E6Point is coverage after a given probe budget.
type E6Point struct {
	ProbeBudget  int
	IterCoverage float64
	DictCoverage float64
	IterKeywords int
	DictKeywords int
}

// E6Report is the budget sweep.
type E6Report struct {
	Rows   int
	Points []E6Point
}

// E6Probing compares iterative probing against a generic-dictionary
// prober on a library (text database) site across probe budgets.
func E6Probing(ctx context.Context, seed int64, rows int, budgets []int) (E6Report, error) {
	rep := E6Report{Rows: rows}
	web := webgen.NewWeb()
	site, err := webgen.BuildSite("library", 0, seed, rows)
	if err != nil {
		return rep, err
	}
	web.AddSite(site)
	fetch := webxpkg.NewFetcher(web)

	// Seeds for the iterative arm: homepage + form page text, like the
	// surfacer's own pipeline.
	home, err := fetch.GetCtx(ctx, site.HomeURL())
	if err != nil {
		return rep, err
	}
	formPage, err := fetch.GetCtx(ctx, site.FormURL())
	if err != nil {
		return rep, err
	}
	f, err := formOfPage(formPage)
	if err != nil {
		return rep, err
	}
	seeds := core.SeedKeywords([]string{home.Text(), formPage.Text()}, 12)

	// Generic dictionary: vocabulary from *other* domains — plausible
	// English, mostly wrong for this site.
	dict := genericDictionary(seed)

	for _, budget := range budgets {
		cfg := core.DefaultConfig()
		cfg.ProbeBudget = budget
		cfg.MaxValuesPerInput = budget // let the sweep see all finds
		iterKWs := core.ProbeKeywords(ctx, fetch, f, "q", seeds, cfg)

		var dictKWs []string
		for i, w := range dict {
			if i >= budget {
				break
			}
			if len(site.MatchingRows(map[string][]string{"q": {w}})) > 0 {
				dictKWs = append(dictKWs, w)
			}
		}
		rep.Points = append(rep.Points, E6Point{
			ProbeBudget:  budget,
			IterCoverage: keywordCoverage(site, "q", iterKWs),
			DictCoverage: keywordCoverage(site, "q", dictKWs),
			IterKeywords: len(iterKWs),
			DictKeywords: len(dictKWs),
		})
	}
	return rep, nil
}

// keywordCoverage is the fraction of rows retrieved by submitting each
// keyword to the input.
func keywordCoverage(site *webgen.Site, input string, kws []string) float64 {
	covered := map[int]bool{}
	for _, kw := range kws {
		for _, id := range site.MatchingRows(map[string][]string{input: {kw}}) {
			covered[id] = true
		}
	}
	return float64(len(covered)) / float64(site.Table.Len())
}

// genericDictionary builds the baseline prober's word list from other
// domains' vocabularies, deterministically shuffled.
func genericDictionary(seed int64) []string {
	var dict []string
	dict = append(dict, "computer", "window", "bottle", "garden", "engine",
		"purple", "market", "planet", "bridge", "circle", "filter", "hammer")
	for _, w := range decoyNames {
		dict = append(dict, w)
	}
	dict = append(dict, "seattle", "portland", "chicago", "ford", "honda",
		"nurse", "teacher", "tacos", "ramen", "permits", "zoning",
		"history", "science", "poetry", "medicine", "biography")
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
	return dict
}

func (r E6Report) String() string {
	var b strings.Builder
	line(&b, "E6 iterative probing vs dictionary (library site, %d rows)", r.Rows)
	for _, p := range r.Points {
		line(&b, "  budget=%4d  iterative %s (%d kws)   dictionary %s (%d kws)",
			p.ProbeBudget, pct(p.IterCoverage), p.IterKeywords, pct(p.DictCoverage), p.DictKeywords)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// E7 — ranges (§4.2): 20% of forms have likely range pairs; fusing a
// 10×10 min/max pair turns ~120 URLs (many invalid) into 10 with no
// coverage loss.

// E7Report compares the two arms on a range-heavy vertical.
type E7Report struct {
	FormsTotal     int
	FormsWithRange int
	AwareURLs      int // URLs touching the range inputs, fused arm
	NaiveURLs      int // same, naive arm
	AwareCoverage  float64
	NaiveCoverage  float64
	AwareInvalid   int // URLs selecting nothing (e.g. inverted ranges)
	NaiveInvalid   int
}

// E7Ranges surfaces one usedcars site with range fusion on and off.
func E7Ranges(ctx context.Context, seed int64, rows int) (E7Report, error) {
	var rep E7Report
	// Prevalence over the standard world's form population.
	world, err := webgen.BuildWorld(webgen.WorldConfig{Seed: seed, SitesPerDom: 2, RowsPerSite: 10})
	if err != nil {
		return rep, err
	}
	for _, s := range world.Sites() {
		rep.FormsTotal++
		if len(s.Spec.RangePairs()) > 0 {
			rep.FormsWithRange++
		}
	}

	run := func(cfg core.Config) (int, int, float64, error) {
		web := webgen.NewWeb()
		site, err := webgen.BuildSite("usedcars", 0, seed, rows)
		if err != nil {
			return 0, 0, 0, err
		}
		web.AddSite(site)
		s := core.NewSurfacer(webxpkg.NewFetcher(web), cfg)
		res, err := s.SurfaceSite(ctx, site.HomeURL())
		if err != nil {
			return 0, 0, 0, err
		}
		urls, invalid := 0, 0
		covered := map[int]bool{}
		for _, u := range res.URLs {
			q := parseQueryOf(u)
			rows := site.MatchingRows(q)
			for _, id := range rows {
				covered[id] = true
			}
			// Count URLs binding *only* the price inputs — the exact
			// population of the paper's 120-vs-10 arithmetic.
			priceBound := q.Get("minprice") != "" || q.Get("maxprice") != ""
			otherBound := false
			for key, vals := range q {
				if key == "minprice" || key == "maxprice" {
					continue
				}
				if len(vals) > 0 && vals[0] != "" {
					otherBound = true
				}
			}
			if priceBound && !otherBound {
				urls++
				if len(rows) == 0 {
					invalid++
				}
			}
		}
		return urls, invalid, float64(len(covered)) / float64(site.Table.Len()), nil
	}

	// 10 values per input reproduces the paper's arithmetic exactly:
	// two independent 10-value inputs yield 10+10+100 = "as many as 120
	// URLs"; the fused range yields "the 10 URLs".
	aware := core.DefaultConfig()
	aware.MaxValuesPerInput = 10
	naive := aware
	naive.RangeAware = false
	naive.StrictExtension = false
	var err2 error
	rep.AwareURLs, rep.AwareInvalid, rep.AwareCoverage, err2 = run(aware)
	if err2 != nil {
		return rep, err2
	}
	rep.NaiveURLs, rep.NaiveInvalid, rep.NaiveCoverage, err2 = run(naive)
	return rep, err2
}

func (r E7Report) String() string {
	var b strings.Builder
	line(&b, "E7 range correlations")
	line(&b, "  prevalence: %d/%d forms have range pairs = %s (paper: ~20%%)",
		r.FormsWithRange, r.FormsTotal, pct(float64(r.FormsWithRange)/float64(r.FormsTotal)))
	line(&b, "  range URLs: naive %d (%d retrieve nothing)  vs  fused %d (%d empty)  — paper: ~120 vs 10",
		r.NaiveURLs, r.NaiveInvalid, r.AwareURLs, r.AwareInvalid)
	line(&b, "  coverage:   naive %s  fused %s (paper: no loss)", pct(r.NaiveCoverage), pct(r.AwareCoverage))
	return b.String()
}

// ---------------------------------------------------------------------
// E8 — database selection (§4.2): per-catalog keyword sets versus one
// global keyword set on a multi-catalog site.

// E8Report compares coverage per catalog.
type E8Report struct {
	PerCatalog map[string]E8Arm
	GlobalMean float64
	PerDBMean  float64
}

// E8Arm is coverage under each strategy for one catalog.
type E8Arm struct {
	Global float64
	PerDB  float64
}

// E8DBSelection surfaces a media site with and without per-database
// keyword handling and scores coverage within each catalog.
func E8DBSelection(ctx context.Context, seed int64, rows int) (E8Report, error) {
	rep := E8Report{PerCatalog: map[string]E8Arm{}}
	run := func(cfg core.Config) (map[string]float64, error) {
		web := webgen.NewWeb()
		site, err := webgen.BuildSite("media", 0, seed, rows)
		if err != nil {
			return nil, err
		}
		web.AddSite(site)
		s := core.NewSurfacer(webxpkg.NewFetcher(web), cfg)
		res, err := s.SurfaceSite(ctx, site.HomeURL())
		if err != nil {
			return nil, err
		}
		// Coverage per catalog value, counting only keyword-bearing
		// URLs: the category select alone trivially retrieves whole
		// catalogs; §4.2 is about whether the *keywords* chosen for
		// the text box work inside each catalog.
		catCol := site.Table.ColIndex("category")
		totals := map[string]int{}
		for i := 0; i < site.Table.Len(); i++ {
			totals[site.Table.Row(i)[catCol].Str]++
		}
		covered := map[string]map[int]bool{}
		for _, u := range res.URLs {
			q := parseQueryOf(u)
			if q.Get("q") == "" {
				continue
			}
			for _, id := range site.MatchingRows(q) {
				cat := site.Table.Row(id)[catCol].Str
				if covered[cat] == nil {
					covered[cat] = map[int]bool{}
				}
				covered[cat][id] = true
			}
		}
		out := map[string]float64{}
		for cat, tot := range totals {
			out[cat] = float64(len(covered[cat])) / float64(tot)
		}
		return out, nil
	}
	// A tight keyword budget is what separates the arms: with unlimited
	// keywords even a global set eventually spans every catalog.
	perdb := core.DefaultConfig()
	perdb.MaxValuesPerInput = 12
	global := perdb
	global.PerDBKeywords = false
	pd, err := run(perdb)
	if err != nil {
		return rep, err
	}
	gl, err := run(global)
	if err != nil {
		return rep, err
	}
	var sumG, sumP float64
	for cat := range pd {
		arm := E8Arm{Global: gl[cat], PerDB: pd[cat]}
		rep.PerCatalog[cat] = arm
		sumG += arm.Global
		sumP += arm.PerDB
	}
	rep.GlobalMean = sumG / float64(len(pd))
	rep.PerDBMean = sumP / float64(len(pd))
	return rep, nil
}

func (r E8Report) String() string {
	var b strings.Builder
	line(&b, "E8 database-selection keyword sets (media site)")
	for _, cat := range []string{"movies", "music", "software", "games"} {
		if arm, ok := r.PerCatalog[cat]; ok {
			line(&b, "  %-9s global %s   per-catalog %s", cat, pct(arm.Global), pct(arm.PerDB))
		}
	}
	line(&b, "  mean:      global %s   per-catalog %s (paper: per-catalog keywords needed)",
		pct(r.GlobalMean), pct(r.PerDBMean))
	return b.String()
}

// formOfPage converts the first form on an already-fetched page.
func formOfPage(p *webxpkg.Page) (*form.Form, error) {
	decls := p.Forms()
	if len(decls) == 0 {
		return nil, fmt.Errorf("no form on %s", p.URL)
	}
	base, err := url.Parse(p.URL)
	if err != nil {
		return nil, err
	}
	return form.FromDecl(base, decls[0], 0)
}
