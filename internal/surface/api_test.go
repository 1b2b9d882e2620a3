package surface

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"deepweb/internal/core"
	"deepweb/internal/engine"
	"deepweb/internal/webgen"
)

// A canceled context must abort a mid-flight Surface promptly — the
// prober checks the context before every submission — and the
// ordered-commit pipeline must drain cleanly instead of deadlocking.
// The cancellation fires from inside the world's own traffic, so the
// run is canceled while genuinely mid-flight. Run with -race.
func TestSurfaceCanceledContextAborts(t *testing.T) {
	e, err := Build(webgen.WorldConfig{Seed: 7, SitesPerDom: 1, RowsPerSite: 60})
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The first site (in commit order) cancels the run on its first
	// request, then serves normally: every worker's next probe check
	// sees the canceled context.
	first := e.Web.Sites()[0]
	e.Web.AddHandler(first.Spec.Host, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cancel()
		first.ServeHTTP(w, r)
	}))

	start := time.Now()
	_, err = e.Surface(ctx, SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Surface returned %v, want context.Canceled", err)
	}
	// "Promptly": the whole abort, pipeline drain included, takes a
	// bounded moment, not a full surfacing pass (which needs tens of
	// seconds of probe traffic at this world size when sequential).
	if elapsed > 10*time.Second {
		t.Fatalf("canceled Surface took %v", elapsed)
	}
	// The canceling site is first in commit order, so nothing commits.
	if len(e.Results) != 0 {
		t.Fatalf("%d sites committed after a cancellation at position 0", len(e.Results))
	}
	// The engine is still consistent and usable.
	if _, err := e.Engine.Search(context.Background(), engine.SearchRequest{Query: "ford", K: 5}); err != nil {
		t.Fatalf("engine unusable after canceled Surface: %v", err)
	}
}

// Refresh must honor PerHostCap: the politeness cap bounds every
// host's request count for the whole pass, asserted with the virtual
// web's per-host request counters.
func TestRefreshPerHostCap(t *testing.T) {
	const cap = 40
	run := func(capped bool) (*Surfacer, map[string]int, RefreshResponse) {
		e, err := Build(webgen.WorldConfig{Seed: 7, SitesPerDom: 1, RowsPerSite: 60})
		if err != nil {
			t.Fatal(err)
		}
		e.Workers = 4
		e.IndexSurfaceWeb(context.Background())
		if _, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3}); err != nil {
			t.Fatal(err)
		}
		webgen.Churn(e.Web, 8*len(e.Web.Sites()), 99)
		before := map[string]int{}
		for _, site := range e.Web.Sites() {
			before[site.Spec.Host] = e.Web.Requests(site.Spec.Host)
		}
		req := RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3}
		if capped {
			req.PerHostCap = cap
		}
		st, err := e.Refresh(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		delta := map[string]int{}
		for host, n := range before {
			delta[host] = e.Web.Requests(host) - n
		}
		return e, delta, st
	}

	_, uncapped, st := run(false)
	if st.SitesChanged == 0 {
		t.Fatal("churn changed no sites; the test exercises nothing")
	}
	maxUncapped := 0
	for _, n := range uncapped {
		maxUncapped = max(maxUncapped, n)
	}
	if maxUncapped <= cap {
		t.Fatalf("uncapped refresh peaked at %d requests/host; cap %d would not bind", maxUncapped, cap)
	}

	capped, capDelta, st := run(true)
	if st.SitesChanged == 0 {
		t.Fatal("capped refresh saw no changed sites")
	}
	truncated := 0
	for host, n := range capDelta {
		if n > cap {
			t.Errorf("host %s got %d requests during capped refresh, cap %d", host, n, cap)
		}
		// A host the cap truncated must be left looking stale (no
		// recorded signature), not committed as fully refreshed.
		if n >= cap {
			truncated++
			if _, ok := capped.siteSignatures[host]; ok {
				t.Errorf("host %s was truncated by the cap yet its signature was recorded", host)
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no host reached the cap; the truncation path went unexercised")
	}

	// Convergence: the next uncapped Refresh re-drives the truncated
	// sites; once healed, a further Refresh finds nothing to do.
	heal, err := capped.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if heal.SitesChanged < truncated {
		t.Errorf("healing refresh re-drove %d sites, want at least the %d truncated ones", heal.SitesChanged, truncated)
	}
	again, err := capped.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if again.SitesChanged != 0 {
		t.Errorf("post-heal refresh still re-drove %d sites", again.SitesChanged)
	}
}

// BudgetFraction scales the per-site probe budget: a half-budget
// refresh must spend at most half the configured probes per site, and
// an out-of-range fraction is rejected.
func TestRefreshBudgetFraction(t *testing.T) {
	e, err := Build(webgen.WorldConfig{Seed: 7, SitesPerDom: 1, RowsPerSite: 60})
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 4
	cfg := core.DefaultConfig()
	if _, err := e.Surface(context.Background(), SurfaceRequest{Config: cfg, FollowNext: 3}); err != nil {
		t.Fatal(err)
	}
	webgen.Churn(e.Web, 8*len(e.Web.Sites()), 3)

	if _, err := e.Refresh(context.Background(), RefreshRequest{Config: cfg, BudgetFraction: 1.5}); err == nil {
		t.Fatal("BudgetFraction 1.5 accepted")
	}
	if _, err := e.Refresh(context.Background(), RefreshRequest{Config: cfg, BudgetFraction: -0.1}); err == nil {
		t.Fatal("BudgetFraction -0.1 accepted")
	}

	st, err := e.Refresh(context.Background(), RefreshRequest{Config: cfg, FollowNext: 3, BudgetFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st.SitesChanged == 0 {
		t.Fatal("churn changed no sites")
	}
	half := cfg.ProbeBudget / 2
	for host, res := range e.Results {
		if res.ProbesUsed > half {
			t.Errorf("host %s spent %d probes; half budget is %d", host, res.ProbesUsed, half)
		}
	}

	// Starvation: a fraction small enough that sites run the scaled
	// budget dry mid-analysis. Those sites must be left stale (no
	// recorded signature) — not committed as refreshed with a shrunken
	// corpus — so a later full-budget Refresh heals them.
	webgen.Churn(e.Web, 8*len(e.Web.Sites()), 4)
	tiny := 0.03 // 600 * 0.03 = 18 probes: exhausted before ISIT finishes
	st, err = e.Refresh(context.Background(), RefreshRequest{Config: cfg, FollowNext: 3, BudgetFraction: tiny})
	if err != nil {
		t.Fatal(err)
	}
	if st.SitesChanged == 0 {
		t.Fatal("second churn changed no sites")
	}
	scaled := int(float64(cfg.ProbeBudget) * tiny)
	starved := 0
	for host, res := range e.Results {
		if res.ProbesUsed < scaled {
			continue
		}
		starved++
		if _, recorded := e.siteSignatures[host]; recorded {
			t.Errorf("host %s exhausted its reduced budget yet its signature was recorded", host)
		}
	}
	if starved == 0 {
		t.Fatal("no site exhausted the starving budget; the staleness path went unexercised")
	}
	heal, err := e.Refresh(context.Background(), RefreshRequest{Config: cfg, FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if heal.SitesChanged < starved {
		t.Errorf("healing refresh re-drove %d sites, want at least the %d starved ones", heal.SitesChanged, starved)
	}
	if again, err := e.Refresh(context.Background(), RefreshRequest{Config: cfg, FollowNext: 3}); err != nil || again.SitesChanged != 0 {
		t.Errorf("post-heal refresh: changed=%d err=%v, want 0/nil", again.SitesChanged, err)
	}
}

// Filtered refresh: the §5.2 admission band plumbs through
// RefreshRequest.Filter, so re-ingested pages outside the band are
// rejected exactly as a filtered Surface would reject them.
func TestRefreshFiltered(t *testing.T) {
	e, err := Build(webgen.WorldConfig{Seed: 7, SitesPerDom: 1, RowsPerSite: 60})
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 4
	filt := core.IngestFilter{MinItems: 1, MaxItems: 3}
	if _, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 0, Filter: filt}); err != nil {
		t.Fatal(err)
	}
	webgen.Churn(e.Web, 8*len(e.Web.Sites()), 5)
	st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), Filter: filt})
	if err != nil {
		t.Fatal(err)
	}
	if st.SitesChanged == 0 {
		t.Fatal("churn changed no sites")
	}
	rejected := 0
	for _, rep := range st.Sites {
		rejected += rep.Ingest.Rejected
	}
	if rejected == 0 {
		t.Fatal("admission band rejected nothing during refresh; filter not plumbed")
	}
}
