package experiments

import (
	"context"
	"strings"
	"testing"

	"deepweb/internal/core"
	"deepweb/internal/surface"
	"deepweb/internal/webgen"
)

func TestE1SharesMatchPaper(t *testing.T) {
	rep := E1LongTail(E1Config{NForms: 200000, Queries: 500000, Seed: 1})
	if rep.Top10kShare < 0.47 || rep.Top10kShare > 0.53 {
		t.Errorf("analytic top-10k share = %.3f, want ≈0.50", rep.Top10kShare)
	}
	if rep.Top100kShr < 0.78 || rep.Top100kShr > 0.92 {
		t.Errorf("analytic top-100k share = %.3f, want ≈0.85", rep.Top100kShr)
	}
	if d := rep.SampledTop10k - rep.Top10kShare; d > 0.05 || d < -0.05 {
		t.Errorf("sampled arm diverges from analytic: %.3f vs %.3f", rep.SampledTop10k, rep.Top10kShare)
	}
	if !strings.Contains(rep.String(), "paper 50%") {
		t.Error("report must cite the paper number")
	}
}

func TestE2SurfacingLoadBounded(t *testing.T) {
	rep, err := E2SiteLoad(context.Background(), 7, 1, 120, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SurfacingReqPerQry != 0 {
		t.Errorf("index queries hit sites: %.2f reqs/query", rep.SurfacingReqPerQry)
	}
	if rep.MediatorReqPerQry <= 0 {
		t.Errorf("mediator issued no live requests: %+v", rep)
	}
	if rep.MeanCoverage < 0.4 {
		t.Errorf("mean coverage = %.2f, too low", rep.MeanCoverage)
	}
	if rep.OfflineReqPerSite <= 0 || rep.OfflineReqPerSite > float64(core.DefaultConfig().ProbeBudget+core.DefaultConfig().URLBudget) {
		t.Errorf("offline reqs/site = %.0f implausible", rep.OfflineReqPerSite)
	}
}

func TestE3SurfacingBeatsMediator(t *testing.T) {
	rep, err := E3Fortuitous(context.Background(), 7, 400)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 {
		t.Fatal("no award queries generated")
	}
	if rep.SurfacingHits <= rep.MediatorHits {
		t.Errorf("surfacing (%d) should beat mediator (%d) on %d fortuitous queries",
			rep.SurfacingHits, rep.MediatorHits, rep.Queries)
	}
	if rep.SurfacingHits < rep.Queries/2 {
		t.Errorf("surfacing answered only %d/%d", rep.SurfacingHits, rep.Queries)
	}
}

func TestE4URLsTrackRows(t *testing.T) {
	rep, err := E4URLScaling(context.Background(), 7, []int{100, 400})
	if err != nil {
		t.Fatal(err)
	}
	small, large := rep.Points[0], rep.Points[1]
	// URLs grow sublinearly in query space: ratio of URL growth must be
	// far below ratio of query-space growth, and coverage must hold.
	if large.URLs < small.URLs {
		t.Errorf("URLs shrank with database size: %+v", rep.Points)
	}
	for _, p := range rep.Points {
		if float64(p.URLs) > 0.9*p.QuerySpace && p.QuerySpace > 100 {
			t.Errorf("URLs ≈ query space at rows=%d: %+v", p.Rows, p)
		}
		if p.Coverage < 0.7 {
			t.Errorf("coverage %.2f at rows=%d", p.Coverage, p.Rows)
		}
	}
}

func TestE5Accuracy(t *testing.T) {
	rep, err := E5TypedInputs(context.Background(), 7, 5000, 150)
	if err != nil {
		t.Fatal(err)
	}
	planted := float64(rep.PlantedTyped) / float64(rep.PopulationForms)
	if planted < 0.05 || planted > 0.09 {
		t.Errorf("planted rate %.3f, want ≈0.067", planted)
	}
	if rep.PopPrecision < 0.9 || rep.PopRecall < 0.9 {
		t.Errorf("population recognizer weak: precision %.2f recall %.2f", rep.PopPrecision, rep.PopRecall)
	}
	if rep.SitePrecision() < 0.8 {
		t.Errorf("behavioural precision %.2f", rep.SitePrecision())
	}
	if rep.SiteRecall() < 0.6 {
		t.Errorf("behavioural recall %.2f", rep.SiteRecall())
	}
}

func TestE6IterativeBeatsDictionary(t *testing.T) {
	rep, err := E6Probing(context.Background(), 7, 300, []int{30, 120})
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Points[len(rep.Points)-1]
	if last.IterCoverage <= last.DictCoverage {
		t.Errorf("iterative (%.2f) should beat dictionary (%.2f)", last.IterCoverage, last.DictCoverage)
	}
	if last.IterCoverage < 0.5 {
		t.Errorf("iterative coverage %.2f too low", last.IterCoverage)
	}
	if rep.Points[0].IterCoverage > last.IterCoverage+1e-9 {
		t.Error("coverage decreased with budget")
	}
}

func TestE7RangeShape(t *testing.T) {
	rep, err := E7Ranges(context.Background(), 7, 300)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's shape: naive ≫ fused, with no coverage loss.
	if rep.NaiveURLs < 3*rep.AwareURLs {
		t.Errorf("naive %d vs fused %d: expected ≳10x, got <3x", rep.NaiveURLs, rep.AwareURLs)
	}
	if rep.AwareCoverage < rep.NaiveCoverage-0.05 {
		t.Errorf("fusion lost coverage: %.2f vs %.2f", rep.AwareCoverage, rep.NaiveCoverage)
	}
	if rep.FormsWithRange == 0 || rep.FormsWithRange == rep.FormsTotal {
		t.Errorf("range prevalence degenerate: %d/%d", rep.FormsWithRange, rep.FormsTotal)
	}
	if rep.NaiveInvalid == 0 {
		t.Error("naive arm should emit some empty-result range URLs")
	}
}

func TestE8PerDBBeatsGlobal(t *testing.T) {
	rep, err := E8DBSelection(context.Background(), 7, 400)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerDBMean <= rep.GlobalMean {
		t.Errorf("per-catalog (%.2f) should beat global (%.2f)", rep.PerDBMean, rep.GlobalMean)
	}
	if len(rep.PerCatalog) < 4 {
		t.Errorf("catalogs measured: %d", len(rep.PerCatalog))
	}
}

func TestE9FilterBoundsPageSizes(t *testing.T) {
	rep, err := E9Indexability(context.Background(), 7, 600)
	if err != nil {
		t.Fatal(err)
	}
	// Admission enforces the band exactly over indexed pages.
	if rep.OnP95Items > float64(rep.MaxAllowed) {
		t.Errorf("criterion on: p95 %.0f exceeds band %d", rep.OnP95Items, rep.MaxAllowed)
	}
	if rep.OffP95Items <= rep.OnP95Items {
		t.Errorf("criterion off (p95 %.0f) should exceed on (p95 %.0f)", rep.OffP95Items, rep.OnP95Items)
	}
	if rep.OnRejected == 0 {
		t.Error("criterion rejected nothing on a no-paging site")
	}
	if rep.OnIndexed >= rep.OffIndexed {
		t.Errorf("on indexed %d should be < off %d", rep.OnIndexed, rep.OffIndexed)
	}
	if rep.OnCoverage <= 0.2 {
		t.Errorf("filtered coverage %.2f collapsed", rep.OnCoverage)
	}
}

func TestE10BoundsHold(t *testing.T) {
	rep, err := E10Coverage(context.Background(), 7, []int{150, 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if !p.BoundHolds {
			t.Errorf("lower bound %.2f above truth %.2f at rows=%d", p.LowerBound, p.TrueFrac, p.Rows)
		}
		if p.PointEst <= 0 {
			t.Errorf("no estimate at rows=%d", p.Rows)
		}
	}
}

func TestE11ServicesWork(t *testing.T) {
	rep, err := E11Semantics(context.Background(), 7, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoodTables == 0 || rep.GoodTables > rep.RawTables {
		t.Fatalf("table pipeline wrong: %+v", rep)
	}
	if rep.SynonymPairs == 0 {
		t.Fatal("no planted synonym pairs reached the corpus")
	}
	if float64(rep.SynonymHits) < 0.5*float64(rep.SynonymPairs) {
		t.Errorf("synonyms recovered %d/%d", rep.SynonymHits, rep.SynonymPairs)
	}
	if rep.AutoHits < rep.AutoQueries-1 {
		t.Errorf("autocomplete hits %d/%d", rep.AutoHits, rep.AutoQueries)
	}
	if rep.CityValues == 0 || rep.ValueFillLift <= 0.2 {
		t.Errorf("value service weak: %d values, lift %.2f", rep.CityValues, rep.ValueFillLift)
	}
}

func TestE12PostInvisibleToSurfacing(t *testing.T) {
	rep, err := E12GetPost(context.Background(), 7, 2, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PostSites == 0 {
		t.Fatal("no POST sites in world")
	}
	surfFrac := float64(rep.SurfaceableRecords) / float64(rep.TotalRecords)
	postFrac := float64(rep.PostRecords) / float64(rep.TotalRecords)
	if surfFrac > 1-postFrac+0.01 {
		t.Errorf("surfacing reached POST content: %.2f reachable with %.2f behind POST", surfFrac, postFrac)
	}
	if rep.MediatorPostAnswers == 0 {
		t.Error("mediator answered nothing from POST sites")
	}
}

func TestWorldHelpers(t *testing.T) {
	w, err := surface.Build(webgen.WorldConfig{Seed: 1, SitesPerDom: 1, RowsPerSite: 30})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.IndexSurfaceWeb(context.Background()); n == 0 {
		t.Error("surface-web crawl indexed nothing")
	}
	if cov := w.SiteCoverage("nosuch.example"); cov.Total != 0 {
		t.Error("unknown host coverage should be zero-valued")
	}
}

func TestE13AnnotationsFixDecoys(t *testing.T) {
	rep, err := E13LostSemantics(context.Background(), 7, 700)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries < 10 {
		t.Fatalf("only %d decoy queries generated", rep.Queries)
	}
	if rep.PlainDecoyTop3 == 0 {
		t.Error("plain BM25 showed no decoys — the §5.1 failure mode did not manifest")
	}
	if rep.AnnotDecoyTop3 >= rep.PlainDecoyTop3 {
		t.Errorf("annotations did not reduce decoys: %d vs %d", rep.AnnotDecoyTop3, rep.PlainDecoyTop3)
	}
	if rep.AnnotPrecision3 <= rep.PlainPrecision3 {
		t.Errorf("annotation precision %.2f not above plain %.2f", rep.AnnotPrecision3, rep.PlainPrecision3)
	}
}

func TestE14ExtractionAccuracy(t *testing.T) {
	rep, err := E14Extraction(context.Background(), 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesUsed == 0 || rep.RecordsSeen == 0 {
		t.Fatalf("no extraction input: %+v", rep)
	}
	if len(rep.FieldsLearned) < 2 {
		t.Fatalf("learned only %v", rep.FieldsLearned)
	}
	if rep.FieldAccuracy["make"] < 0.9 {
		t.Errorf("make accuracy %.2f, want ≥0.9", rep.FieldAccuracy["make"])
	}
	if rep.MeanAccuracy < 0.7 {
		t.Errorf("mean accuracy %.2f, want ≥0.7", rep.MeanAccuracy)
	}
}
