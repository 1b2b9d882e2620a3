package experiments

import (
	"context"
	"sort"
	"strings"

	"deepweb/internal/core"
	"deepweb/internal/coverage"
	"deepweb/internal/dist"
	"deepweb/internal/index"
	"deepweb/internal/surface"
	"deepweb/internal/virtual"
	"deepweb/internal/webgen"
	webxpkg "deepweb/internal/webx"
)

// ---------------------------------------------------------------------
// E9 — indexability (§5.2): surfaced pages "should neither have too
// many results on a single surfaced page nor too few"; minimize pages
// while maximizing coverage.

// E9Report compares index admission with and without the §5.2
// criterion on a site that dumps all matches on one page (no paging) —
// where an unconstraining submission yields enormous pages.
type E9Report struct {
	Rows        int
	OnIndexed   int
	OffIndexed  int
	OnRejected  int
	OnP95Items  float64 // p95 results-per-page over *indexed* pages
	OffP95Items float64
	OnCoverage  float64 // rows visible through indexed pages
	OffCoverage float64
	MaxAllowed  int
}

// E9Indexability surfaces once, then ingests with and without the
// admission filter (the criterion operates on fetched pages, where the
// result count is observable).
func E9Indexability(ctx context.Context, seed int64, rows int) (E9Report, error) {
	rep := E9Report{Rows: rows, MaxAllowed: 50}
	web := webgen.NewWeb()
	site, err := webgen.BuildSite("usedcars", 0, seed, rows)
	if err != nil {
		return rep, err
	}
	site.Spec.PageSize = 0 // render every match on one page
	web.AddSite(site)
	fetch := webxpkg.NewFetcher(web)
	// Surface with template-level filtering off so both arms see the
	// same URL set; the admission criterion is the treatment.
	cfg := core.DefaultConfig()
	cfg.Indexability = false
	s := core.NewSurfacer(fetch, cfg)
	res, err := s.SurfaceSite(ctx, site.HomeURL())
	if err != nil {
		return rep, err
	}
	measure := func(filt core.IngestFilter) (int, int, float64, float64) {
		ix := index.New()
		st := core.IngestURLs(ctx, fetch, ix, "f", res.URLs, 0, filt)
		covered := map[int]bool{}
		var sizes []float64
		for _, u := range res.URLs {
			if !ix.Has(u) {
				continue
			}
			matches := site.MatchingRows(parseQueryOf(u))
			if len(matches) == 0 {
				continue
			}
			sizes = append(sizes, float64(len(matches)))
			for _, id := range matches {
				covered[id] = true
			}
		}
		return st.Indexed, st.Rejected, dist.Percentile(sizes, 0.95), float64(len(covered)) / float64(rows)
	}
	rep.OnIndexed, rep.OnRejected, rep.OnP95Items, rep.OnCoverage =
		measure(core.IngestFilter{MinItems: 1, MaxItems: rep.MaxAllowed})
	rep.OffIndexed, _, rep.OffP95Items, rep.OffCoverage = measure(core.IngestFilter{})
	return rep, nil
}

func (r E9Report) String() string {
	var b strings.Builder
	line(&b, "E9 indexability criterion (no-paging site, %d rows, admission band [1,%d] results/page)", r.Rows, r.MaxAllowed)
	line(&b, "  criterion on:  %4d pages indexed (%d rejected), p95 results/page %.0f, coverage %s",
		r.OnIndexed, r.OnRejected, r.OnP95Items, pct(r.OnCoverage))
	line(&b, "  criterion off: %4d pages indexed, p95 results/page %.0f, coverage %s",
		r.OffIndexed, r.OffP95Items, pct(r.OffCoverage))
	return b.String()
}

// ---------------------------------------------------------------------
// E10 — coverage estimation (§5.2): "with probability M% more than N%
// of the site's content has been exposed".

// E10Point is one site size.
type E10Point struct {
	Rows       int
	TrueFrac   float64
	PointEst   float64
	LowerBound float64
	BoundHolds bool // LowerBound ≤ TrueFrac (the guarantee's validity)
}

// E10Report sweeps site sizes.
type E10Report struct {
	Confidence float64
	Points     []E10Point
}

// E10Coverage surfaces sites of several sizes and scores the
// capture–recapture bootstrap against ground truth.
func E10Coverage(ctx context.Context, seed int64, sizes []int) (E10Report, error) {
	rep := E10Report{Confidence: 0.95}
	for _, rows := range sizes {
		web := webgen.NewWeb()
		site, err := webgen.BuildSite("usedcars", 0, seed, rows)
		if err != nil {
			return rep, err
		}
		web.AddSite(site)
		s := core.NewSurfacer(webxpkg.NewFetcher(web), core.DefaultConfig())
		res, err := s.SurfaceSite(ctx, site.HomeURL())
		if err != nil {
			return rep, err
		}
		rowSets := coverage.RowSets(site, res.URLs)
		exact := coverage.ExactOf(site, res.URLs)
		est := coverage.EstimateFromRowSets(rowSets, rep.Confidence, 300, seed)
		rep.Points = append(rep.Points, E10Point{
			Rows:       rows,
			TrueFrac:   exact.Fraction(),
			PointEst:   est.Point,
			LowerBound: est.LowerBound,
			BoundHolds: est.LowerBound <= exact.Fraction()+1e-9,
		})
	}
	return rep, nil
}

func (r E10Report) String() string {
	var b strings.Builder
	line(&b, "E10 coverage estimation (confidence %.0f%%)", 100*r.Confidence)
	for _, p := range r.Points {
		line(&b, "  rows=%5d  true %s   estimate %s   bound 'more than %s'   holds=%v",
			p.Rows, pct(p.TrueFrac), pct(p.PointEst), pct(p.LowerBound), p.BoundHolds)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// E11 — aggregate semantics (§6): mine crawled tables into an ACSDb and
// value store; score the synonym, auto-complete and value services
// against generator ground truth.

// E11Report scores the three services.
type E11Report struct {
	PagesCrawled int
	RawTables    int
	GoodTables   int
	Schemas      int

	SynonymPairs int // planted alias pairs occurring in the corpus
	SynonymHits  int // recovered in the top-3 suggestions

	AutoQueries int // schema-autocomplete probes
	AutoHits    int // suggestion contains a true co-attribute

	CityValues    int     // city values the value service serves
	ValueFillLift float64 // coverage of a city input filled from the service
}

// E11Semantics crawls the whole world (following links into record
// pages), aggregates, and scores services.
func E11Semantics(ctx context.Context, seed int64, sitesPerDom, rows int) (E11Report, error) {
	var rep E11Report
	w, err := surface.Build(webgen.WorldConfig{Seed: seed, SitesPerDom: sitesPerDom, RowsPerSite: rows})
	if err != nil {
		return rep, err
	}
	// Deep crawl through the surfacer: follow query links so record
	// pages (with tables) are reached — the post-surfacing state of the
	// index.
	sem := w.BuildSemantics(ctx, 4000)
	rep.PagesCrawled = sem.PagesCrawled
	rep.RawTables = sem.RawTables
	rep.GoodTables = len(sem.Tables)
	acs, vals := sem.ACS, sem.Values
	rep.Schemas = acs.Schemas

	// Synonym service vs planted alias pairs.
	for _, pair := range webgen.AliasPairs() {
		canon, alias := pair[0], pair[1]
		if acs.Freq[canon] == 0 || acs.Freq[alias] == 0 {
			continue // the crawl didn't reach both variants
		}
		rep.SynonymPairs++
		for _, s := range acs.Synonyms(canon, 3) {
			if s.Name == alias {
				rep.SynonymHits++
				break
			}
		}
	}

	// Auto-complete: for each domain's lead attribute, the suggestions
	// must include another attribute of the same vertical.
	autoProbes := map[string][]string{
		"make":   {"model", "price", "year", "mileage"},
		"city":   {"state", "zip"},
		"title":  {"company", "salary"},
		"agency": {"topic", "year", "body"},
		"dish":   {"cuisine", "minutes", "ingredients"},
	}
	for given, wants := range autoProbes {
		if acs.Freq[given] == 0 {
			continue
		}
		rep.AutoQueries++
		got := acs.SchemaAutocomplete([]string{given}, 4)
		for _, g := range got {
			for _, w := range wants {
				if g.Name == w {
					rep.AutoHits++
					goto next
				}
			}
		}
	next:
	}

	// Value service → form filling: fill a realestate city input with
	// the service's city values and measure coverage achieved.
	cities := vals.Values("city", 30)
	rep.CityValues = len(cities)
	var re *webgen.Site
	for _, s := range w.Web.Sites() {
		if s.Spec.Domain == "realestate" {
			re = s
			break
		}
	}
	if re != nil && len(cities) > 0 {
		covered := map[int]bool{}
		for _, city := range cities {
			for _, id := range re.MatchingRows(map[string][]string{"city": {city}}) {
				covered[id] = true
			}
		}
		rep.ValueFillLift = float64(len(covered)) / float64(re.Table.Len())
	}
	return rep, nil
}

func (r E11Report) String() string {
	var b strings.Builder
	line(&b, "E11 aggregate semantics (crawled %d pages → %d tables, %d relational)",
		r.PagesCrawled, r.RawTables, r.GoodTables)
	line(&b, "  synonyms:     %d/%d planted alias pairs recovered in top-3", r.SynonymHits, r.SynonymPairs)
	line(&b, "  autocomplete: %d/%d probes suggest a true co-attribute", r.AutoHits, r.AutoQueries)
	line(&b, "  value fill:   %d city values surface %s of a city-keyed site", r.CityValues, pct(r.ValueFillLift))
	return b.String()
}

// ---------------------------------------------------------------------
// E12 — GET vs POST (§3.2): "surfacing cannot be applied to HTML forms
// that use the POST method"; the mediator can still query them.

// E12Report compares reach over a mixed GET/POST population.
type E12Report struct {
	GetSites  int
	PostSites int
	// Record-weighted reach.
	SurfaceableRecords int
	PostRecords        int
	TotalRecords       int
	// Mediator answers on POST sites (proof it reaches them).
	MediatorPostAnswers int
}

// E12GetPost builds a mixed world and measures reach both ways.
func E12GetPost(ctx context.Context, seed int64, sitesPerDom, rows, postFraction int) (E12Report, error) {
	var rep E12Report
	w, err := surface.Build(webgen.WorldConfig{
		Seed: seed, SitesPerDom: sitesPerDom, RowsPerSite: rows, PostFraction: postFraction,
	})
	if err != nil {
		return rep, err
	}
	if _, err := w.Surface(ctx, surface.SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 0}); err != nil {
		return rep, err
	}
	m := virtual.NewMediator(w.Fetch)
	var postHosts []string
	for _, site := range w.Web.Sites() {
		rep.TotalRecords += site.Table.Len()
		if site.Spec.Method == "get" {
			rep.GetSites++
		} else {
			rep.PostSites++
			rep.PostRecords += site.Table.Len()
			postHosts = append(postHosts, site.Spec.Host)
		}
		if f, err := surface.FormOf(ctx, w.Fetch, site); err == nil {
			m.Register(f)
		}
	}
	for host, res := range w.Results {
		if len(res.URLs) == 0 {
			continue
		}
		site := w.Web.Site(host)
		ex := coverage.ExactOf(site, res.URLs)
		rep.SurfaceableRecords += ex.Covered
	}
	// Mediator reaches POST content: one keyword probe per POST host,
	// built from the domain's routing vocabulary plus a value the site
	// actually holds.
	sort.Strings(postHosts)
	for _, host := range postHosts {
		site := w.Web.Site(host)
		var q string
		switch site.Spec.Domain {
		case "govdocs":
			q = "public records " + site.Table.DistinctStrings("topic")[0]
		case "usedcars":
			q = "used cars " + site.Table.DistinctStrings("make")[0]
		case "library":
			q = "books about " + site.Table.DistinctStrings("subject")[0]
		case "realestate":
			q = "homes in " + site.Table.DistinctStrings("city")[0]
		case "jobs":
			q = site.Table.DistinctStrings("title")[0] + " jobs"
		case "stores":
			q = "store locations " + site.Table.DistinctStrings("state")[0]
		case "media":
			q = site.Table.DistinctStrings("category")[0]
		case "faculty":
			q = "professor " + site.Table.DistinctStrings("department")[0]
		case "recipes":
			q = site.Table.DistinctStrings("cuisine")[0] + " recipes"
		default:
			continue
		}
		if answers, _ := m.Answer(ctx, q, 5); len(answers) > 0 {
			for _, a := range answers {
				if a.Site == host {
					rep.MediatorPostAnswers++
					break
				}
			}
		}
	}
	return rep, nil
}

func (r E12Report) String() string {
	var b strings.Builder
	line(&b, "E12 GET vs POST (%d GET sites, %d POST sites)", r.GetSites, r.PostSites)
	line(&b, "  surfacing reaches %d/%d records (%s); %d records (%s) sit behind POST, invisible to it",
		r.SurfaceableRecords, r.TotalRecords, pct(float64(r.SurfaceableRecords)/float64(r.TotalRecords)),
		r.PostRecords, pct(float64(r.PostRecords)/float64(r.TotalRecords)))
	line(&b, "  mediator answered live from %d POST sites (paper: POST usable by mediation, not surfacing)", r.MediatorPostAnswers)
	return b.String()
}
