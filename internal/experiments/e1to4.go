package experiments

import (
	"context"
	"strings"

	"deepweb/internal/core"
	"deepweb/internal/surface"
	"deepweb/internal/virtual"
	"deepweb/internal/webgen"
	webxpkg "deepweb/internal/webx"
	"deepweb/internal/workload"
)

// ---------------------------------------------------------------------
// E1 — long-tail impact (§3.2): "top 10,000 forms … accounted for only
// 50% of deep-web results, while even the top 100,000 forms only
// accounted for 85%".

// E1Config sizes the experiment.
type E1Config struct {
	NForms  int // form population (paper-scale default 200k)
	Queries int // sampled queries for the noisy arm
	Seed    int64
}

// DefaultE1 returns paper-scale parameters.
func DefaultE1() E1Config { return E1Config{NForms: 200000, Queries: 2000000, Seed: 1} }

// E1Report holds analytic and sampled cumulative shares.
type E1Report struct {
	Cfg            E1Config
	Exponent       float64 // Zipf exponent calibrated to the paper's 50% point
	Top10kShare    float64
	Top100kShr     float64
	SampledTop10k  float64
	SampledTop100k float64
	Gini           float64
}

// E1LongTail calibrates the traffic exponent against the paper's first
// data point and checks the second falls out, analytically and with
// sampled query traffic.
func E1LongTail(cfg E1Config) E1Report {
	r := E1Report{Cfg: cfg}
	r.Exponent = workload.CalibrateExponent(cfg.NForms, cfg.NForms/20, workload.PaperShares.Top10kOf200k)
	weights := workload.FormImpact(r.Exponent, cfg.NForms)
	shares := workload.SharesAt(weights, []int{cfg.NForms / 20, cfg.NForms / 2})
	r.Top10kShare, r.Top100kShr = shares[0], shares[1]
	sampled := workload.SampleImpacts(cfg.Seed, r.Exponent, cfg.NForms, cfg.Queries)
	sshares := workload.SharesAt(sampled, []int{cfg.NForms / 20, cfg.NForms / 2})
	r.SampledTop10k, r.SampledTop100k = sshares[0], sshares[1]
	r.Gini = workload.GiniCoefficient(weights)
	return r
}

func (r E1Report) String() string {
	var b strings.Builder
	line(&b, "E1 long-tail impact (%d forms, exponent %.3f, gini %.2f)", r.Cfg.NForms, r.Exponent, r.Gini)
	line(&b, "  top-%d forms:  paper 50%%   analytic %s   sampled %s", r.Cfg.NForms/20, pct(r.Top10kShare), pct(r.SampledTop10k))
	line(&b, "  top-%d forms: paper 85%%   analytic %s   sampled %s", r.Cfg.NForms/2, pct(r.Top100kShr), pct(r.SampledTop100k))
	return b.String()
}

// ---------------------------------------------------------------------
// E2 — site load (§3.1–3.2): surfacing's off-line analysis imposes a
// bounded one-time load and then zero per-query load; the mediator
// pays live submissions on every query.

// E2Report compares the two architectures' load on form sites.
type E2Report struct {
	Sites              int
	OfflineReqPerSite  float64 // one-time surfacing cost
	MeanCoverage       float64 // what that one-time cost bought
	Queries            int
	MediatorReqPerQry  float64 // live submissions per user query
	SurfacingReqPerQry float64 // always 0: queries hit the index
}

// E2SiteLoad surfaces a world, then runs the same query stream through
// the index and through a mediator over the same sites.
func E2SiteLoad(ctx context.Context, seed int64, sitesPerDom, rows, queries int) (E2Report, error) {
	w, err := surface.Build(webgen.WorldConfig{Seed: seed, SitesPerDom: sitesPerDom, RowsPerSite: rows})
	if err != nil {
		return E2Report{}, err
	}
	w.IndexSurfaceWeb(ctx)
	resp, err := w.Surface(ctx, surface.SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		return E2Report{}, err
	}
	var rep E2Report
	rep.Sites = len(w.Web.Sites())
	var total uint64
	for _, site := range resp.Sites {
		total += site.Attempts
	}
	rep.OfflineReqPerSite = float64(total) / float64(rep.Sites)
	rep.MeanCoverage = w.MeanCoverage()

	// Build the mediator over the same forms.
	m := virtual.NewMediator(w.Fetch)
	for _, site := range w.Web.Sites() {
		f, err := surface.FormOf(ctx, w.Fetch, site)
		if err != nil {
			continue
		}
		m.Register(f) // unmappable forms are simply not mediated
	}
	// Query stream: one query per domain routing vocabulary, cycled.
	queriesList := []string{
		"used ford cars", "homes in seattle", "nurse jobs",
		"history books", "public records permits", "store hours",
		"movies catalog", "professor biography", "thai recipes",
	}
	w.Web.ResetCounts()
	m.Requests = 0
	for i := 0; i < queries; i++ {
		q := queriesList[i%len(queriesList)]
		m.Answer(ctx, q, 10)
	}
	rep.Queries = queries
	rep.MediatorReqPerQry = float64(m.Requests) / float64(queries)
	// Surfacing serves the same stream from the index: no site traffic.
	before := w.Web.TotalRequests()
	for i := 0; i < queries; i++ {
		w.Engine.Index.TopK(ctx, queriesList[i%len(queriesList)], 10, 0, nil)
	}
	rep.SurfacingReqPerQry = float64(w.Web.TotalRequests()-before) / float64(queries)
	return rep, nil
}

func (r E2Report) String() string {
	var b strings.Builder
	line(&b, "E2 site load (%d sites)", r.Sites)
	line(&b, "  surfacing: %.0f reqs/site once (coverage %s), then %.2f reqs/query", r.OfflineReqPerSite, pct(r.MeanCoverage), r.SurfacingReqPerQry)
	line(&b, "  mediator:  %.1f live reqs/query, forever (paper: risks 'unreasonable load')", r.MediatorReqPerQry)
	return b.String()
}

// ---------------------------------------------------------------------
// E3 — fortuitous answering (§3.2): the award-query example. Surfacing
// answers cross-attribute keyword queries the mediator cannot express.

// E3Report compares recall on award queries.
type E3Report struct {
	Queries       int
	SurfacingHits int // queries answered by a surfaced page naming the award
	MediatorHits  int // queries the mediator answered at all
}

// E3Fortuitous builds faculty sites, surfaces them, and asks
// "<award> professor" for every award in the data.
func E3Fortuitous(ctx context.Context, seed int64, rows int) (E3Report, error) {
	w, err := surface.Build(webgen.WorldConfig{Seed: seed, SitesPerDom: 1, RowsPerSite: rows})
	if err != nil {
		return E3Report{}, err
	}
	w.IndexSurfaceWeb(ctx)
	if _, err := w.Surface(ctx, surface.SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 5}); err != nil {
		return E3Report{}, err
	}
	m := virtual.NewMediator(w.Fetch)
	for _, site := range w.Web.Sites() {
		if f, err := surface.FormOf(ctx, w.Fetch, site); err == nil {
			m.Register(f)
		}
	}
	// Which awards actually occur in the faculty data?
	var site *webgen.Site
	for _, s := range w.Web.Sites() {
		if s.Spec.Domain == "faculty" {
			site = s
		}
	}
	var rep E3Report
	bi := site.Table.ColIndex("bio")
	present := map[string]bool{}
	for i := 0; i < site.Table.Len(); i++ {
		bio := site.Table.Row(i)[bi].Str
		for _, aw := range awardsIn(bio) {
			present[aw] = true
		}
	}
	for aw := range present {
		rep.Queries++
		q := aw + " professor"
		// Surfacing arm: any top-10 index hit containing the award.
		hits, _, _ := w.Engine.Index.TopK(ctx, q, 10, 0, nil)
		for _, hit := range hits {
			doc := w.Engine.Index.Doc(hit.DocID)
			if strings.Contains(strings.ToLower(doc.Text), aw) {
				rep.SurfacingHits++
				break
			}
		}
		// Mediator arm: any answer whose record names the award.
		answers, _ := m.Answer(ctx, q, 10)
		for _, a := range answers {
			if strings.Contains(strings.ToLower(a.Record), aw) {
				rep.MediatorHits++
				break
			}
		}
	}
	return rep, nil
}

// awardsIn extracts known award names from a bio.
func awardsIn(bio string) []string {
	var out []string
	low := strings.ToLower(bio)
	for _, aw := range awardNames {
		if strings.Contains(low, aw) {
			out = append(out, aw)
		}
	}
	return out
}

var awardNames = []string{
	"sigmod innovations award", "turing award", "fields medal",
	"dijkstra prize", "godel prize", "knuth prize", "nobel prize",
	"abel prize", "von neumann medal", "kyoto prize",
}

func (r E3Report) String() string {
	var b strings.Builder
	line(&b, "E3 fortuitous query answering (%d award queries)", r.Queries)
	line(&b, "  surfacing answered %d/%d; mediator answered %d/%d (paper: mediator cannot route such queries)",
		r.SurfacingHits, r.Queries, r.MediatorHits, r.Queries)
	return b.String()
}

// ---------------------------------------------------------------------
// E4 — URL scaling (§3.2): "the number of URLs our algorithms generate
// is proportional to the size of the underlying database, rather than
// the number of possible queries".

// E4Point is one sweep point.
type E4Point struct {
	Domain     string
	Rows       int
	URLs       int
	QuerySpace float64 // cross-product of candidate value spaces
	Coverage   float64
}

// E4Report is the sweep.
type E4Report struct {
	Points []E4Point
}

// E4URLScaling sweeps database size on two verticals — a select-driven
// one (usedcars) and a text-database (library), whose probed keyword
// count tracks content — and counts emitted URLs against the naive
// cross-product query space.
func E4URLScaling(ctx context.Context, seed int64, rowSizes []int) (E4Report, error) {
	var rep E4Report
	for _, domain := range []string{"usedcars", "library"} {
		for _, rows := range rowSizes {
			web := webgen.NewWeb()
			site, err := webgen.BuildSite(domain, 0, seed, rows)
			if err != nil {
				return rep, err
			}
			web.AddSite(site)
			cfg := core.DefaultConfig()
			// Generous caps so URL counts are limited by the content
			// the engine finds, not by configuration.
			cfg.MaxValuesPerInput = 250
			cfg.ProbeBudget = 2500
			cfg.URLBudget = 20000
			s := core.NewSurfacer(webxpkg.NewFetcher(web), cfg)
			res, err := s.SurfaceSite(ctx, site.HomeURL())
			if err != nil {
				return rep, err
			}
			space := 1.0
			for _, d := range res.Analysis.Dimensions {
				space *= float64(len(d.Values) + 1)
			}
			covered := map[int]bool{}
			for _, u := range res.URLs {
				for _, id := range site.MatchingRows(parseQueryOf(u)) {
					covered[id] = true
				}
			}
			rep.Points = append(rep.Points, E4Point{
				Domain:     domain,
				Rows:       rows,
				URLs:       len(res.URLs),
				QuerySpace: space,
				Coverage:   float64(len(covered)) / float64(rows),
			})
		}
	}
	return rep, nil
}

func (r E4Report) String() string {
	var b strings.Builder
	line(&b, "E4 URLs ∝ database size, not query space")
	for _, p := range r.Points {
		line(&b, "  %-8s rows=%6d  urls=%5d  urls/rows=%.3f  query-space=%.0f  coverage=%s",
			p.Domain, p.Rows, p.URLs, float64(p.URLs)/float64(p.Rows), p.QuerySpace, pct(p.Coverage))
	}
	return b.String()
}
