package surface

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"testing"

	"deepweb/internal/core"
	"deepweb/internal/engine"
	"deepweb/internal/index"
	"deepweb/internal/store"
	"deepweb/internal/webgen"
)

// refreshWorldCfg is shared by both arms of every equivalence test so
// the two worlds are byte-identical before churn.
var refreshWorldCfg = webgen.WorldConfig{Seed: 7, SitesPerDom: 1, RowsPerSite: 50}

// churnSubset deterministically mutates every third site (by host
// order), leaving the rest untouched, so a refresh has both changed
// sites to re-surface and unchanged sites to skip.
func churnSubset(web *webgen.Web, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	churned := 0
	for i, s := range web.Sites() {
		if i%3 != 0 {
			continue
		}
		webgen.ChurnSite(s, 6, rng)
		churned++
	}
	return churned
}

// freshEngine builds and fully surfaces a world on the parallel path.
func freshEngine(t *testing.T, shards int) *Surfacer {
	e, _ := churnedEngine(t, shards, nil)
	return e
}

// churnedEngine builds the shared world, applies churn to it (if any),
// then crawls and surfaces it from scratch on the parallel path: the
// corpus a refresh of that churn must converge on. It returns the
// pass's site reports too.
func churnedEngine(t *testing.T, shards int, churn func(*webgen.Web)) (*Surfacer, map[string]SiteReport) {
	t.Helper()
	e, err := Build(refreshWorldCfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Engine.Index = index.NewSharded(shards)
	e.Workers = 4
	if churn != nil {
		churn(e.Web)
	}
	if e.IndexSurfaceWeb(context.Background()) == 0 {
		t.Fatal("surface-web crawl indexed nothing")
	}
	resp, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	return e, resp.Sites
}

// requireSameCorpus compares two engines' live corpora id-free: the
// live document count, and for every persistQueries probe the whole
// result set as URL → score bits and source, answered by Search — from
// the result cache, where one is enabled.
func requireSameCorpus(t *testing.T, label string, a, b *Surfacer) {
	t.Helper()
	if x, y := a.Engine.Index.Len(), b.Engine.Index.Len(); x != y {
		t.Errorf("%s: live docs %d vs %d", label, x, y)
	}
	for _, q := range persistQueries {
		if x, y := urlHits(t, a, q), urlHits(t, b, q); !reflect.DeepEqual(x, y) {
			t.Errorf("%s: Search(%q) live corpora differ (%d vs %d URLs)", label, q, len(x), len(y))
		}
	}
}

// urlHits flattens a whole-corpus search into URL → score bits and
// source, the id-free view of a result set.
func urlHits(t *testing.T, e *Surfacer, q string) map[string]string {
	t.Helper()
	resp, err := e.Engine.Search(context.Background(), engine.SearchRequest{Query: q, K: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range resp.Results {
		if _, dup := out[r.URL]; dup {
			t.Fatalf("Search(%q) returned URL %q twice", q, r.URL)
		}
		out[r.URL] = fmt.Sprintf("%x %s", math.Float64bits(r.Score), r.Source)
	}
	return out
}

// The acceptance bar of the freshness pipeline, in three tiers.
//
// Tier 1 (uncompacted): after churning N sites and Refreshing, the
// live corpus — URL set, per-URL score bits and source, live doc count,
// per-host results/stats/coverage — is identical to a from-scratch Surface
// of the churned world. Doc ids differ (the refreshed index appended
// re-surfaced documents after tombstones), so results are compared by
// URL.
//
// Tier 2 (snapshot): a Save/Open round trip of the refreshed, still
// tombstoned engine reproduces its Search output bit-for-bit — ids,
// scores, tie order — which is what pins the tombstone persistence.
//
// Tier 3 (compacted): Compact renumbers into canonical URL order, so
// after compacting BOTH engines their Search outputs match
// reflect.DeepEqual exactly: same ids, same score bits, same tie
// order. Run with -race; both arms surface on 4 workers.
func TestRefreshMatchesFromScratch(t *testing.T) {
	for _, shards := range []int{1, 4, index.DefaultShards} {
		// Arm 1: surface, churn, refresh incrementally.
		refreshed, reports := churnedEngine(t, shards, nil)
		refreshed.CompactRatio = 0 // keep tombstones; tier 3 compacts explicitly
		// A warm result cache must not outlive the pass: every commit of
		// it retires the cached answers.
		refreshed.Engine.EnableResultCache(256)
		for _, q := range persistQueries {
			urlHits(t, refreshed, q)
		}
		churned := churnSubset(refreshed.Web, 99)
		st, err := refreshed.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
		if err != nil {
			t.Fatalf("shards=%d: refresh: %v", shards, err)
		}
		if st.SitesChanged == 0 || st.SitesChanged > churned {
			t.Fatalf("shards=%d: %d of %d churned sites refreshed", shards, st.SitesChanged, churned)
		}
		if st.SitesChecked != len(refreshed.Web.Sites()) {
			t.Errorf("shards=%d: checked %d of %d sites", shards, st.SitesChecked, len(refreshed.Web.Sites()))
		}
		if st.DocsDeleted == 0 || st.DocsAdded == 0 || st.SurfacePages == 0 {
			t.Errorf("shards=%d: degenerate refresh: %+v", shards, st)
		}
		if refreshed.Engine.Index.Deleted() != st.DocsDeleted {
			t.Errorf("shards=%d: %d tombstones for %d deletions", shards, refreshed.Engine.Index.Deleted(), st.DocsDeleted)
		}

		// Arm 2: churn the same way, then surface from scratch.
		scratch, scratchReports := churnedEngine(t, shards, func(web *webgen.Web) { churnSubset(web, 99) })

		// Tier 1: identical live corpus, sources and metrics, compared
		// id-free.
		requireSameCorpus(t, fmt.Sprintf("shards=%d", shards), refreshed, scratch)
		// The first pass's reports, with the refreshed sites' replaced,
		// are the ledger a from-scratch pass of the churned world keeps.
		maps.Copy(reports, st.Sites)
		if !reflect.DeepEqual(reports, scratchReports) {
			t.Errorf("shards=%d: site reports differ:\n  refreshed %v\n  scratch %v", shards, reports, scratchReports)
		}
		if !reflect.DeepEqual(refreshed.siteSignatures, scratch.siteSignatures) {
			t.Errorf("shards=%d: site signatures differ", shards)
		}
		for host, res := range scratch.Results {
			got := refreshed.Results[host]
			if got == nil || !reflect.DeepEqual(got.URLs, res.URLs) {
				t.Errorf("shards=%d: %s: surfaced URLs differ", shards, host)
			}
		}
		if a, b := refreshed.MeanCoverage(), scratch.MeanCoverage(); a != b {
			t.Errorf("shards=%d: coverage %v vs %v", shards, a, b)
		}

		// Tier 2: the tombstoned engine round-trips through a snapshot
		// bit-for-bit, ids and tie order included.
		dir := t.TempDir()
		if err := refreshed.Save(dir); err != nil {
			t.Fatalf("shards=%d: save: %v", shards, err)
		}
		loaded, err := Open(refreshed.Web, dir)
		if err != nil {
			t.Fatalf("shards=%d: load: %v", shards, err)
		}
		if loaded.Engine.Index.Deleted() != refreshed.Engine.Index.Deleted() {
			t.Errorf("shards=%d: tombstones %d became %d across snapshot", shards, refreshed.Engine.Index.Deleted(), loaded.Engine.Index.Deleted())
		}
		if !reflect.DeepEqual(loaded.siteSignatures, refreshed.siteSignatures) {
			t.Errorf("shards=%d: site signatures lost across snapshot", shards)
		}
		for _, q := range persistQueries {
			if a, b := search(refreshed.Engine.Index, q, 10), search(loaded.Engine.Index, q, 10); !reflect.DeepEqual(a, b) {
				t.Errorf("shards=%d: Search(%q) differs across snapshot:\n  live   %v\n  loaded %v", shards, q, a, b)
			}
			if a, b := annotatedSearch(refreshed.Engine.Index, q, 10), annotatedSearch(loaded.Engine.Index, q, 10); !reflect.DeepEqual(a, b) {
				t.Errorf("shards=%d: AnnotatedSearch(%q) differs across snapshot", shards, q)
			}
		}

		// Tier 3: compaction is a normal form — both engines land on
		// identical ids, scores and tie order.
		if got := refreshed.Engine.Index.Compact(); got != st.DocsDeleted {
			t.Errorf("shards=%d: compact reclaimed %d of %d tombstones", shards, got, st.DocsDeleted)
		}
		scratch.Engine.Index.Compact()
		if refreshed.Engine.Index.Deleted() != 0 {
			t.Errorf("shards=%d: tombstones survived compact", shards)
		}
		for _, q := range persistQueries {
			a, b := search(refreshed.Engine.Index, q, 10), search(scratch.Engine.Index, q, 10)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("shards=%d: post-compact Search(%q) differs:\n  refreshed %v\n  scratch   %v", shards, q, a, b)
				continue
			}
			for i := range a {
				if math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
					t.Errorf("shards=%d: post-compact Search(%q) hit %d: score bits differ", shards, q, i)
				}
			}
			if a, b := annotatedSearch(refreshed.Engine.Index, q, 10), annotatedSearch(scratch.Engine.Index, q, 10); !reflect.DeepEqual(a, b) {
				t.Errorf("shards=%d: post-compact AnnotatedSearch(%q) differs", shards, q)
			}
		}
	}
}

// The deepcrawl -refresh path: persist a surfaced world, rebuild the
// world from config, churn it, reattach the snapshot with Open and
// refresh. The refreshed snapshot must match a from-scratch surface of
// the churned world after both compact to canonical form.
func TestLoadWithRefreshAgainstSnapshot(t *testing.T) {
	orig := freshEngine(t, 4)
	dir := t.TempDir()
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}

	web2, err := webgen.BuildWorld(refreshWorldCfg)
	if err != nil {
		t.Fatal(err)
	}
	churnSubset(web2, 4242)
	e, err := Open(web2, dir)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 4
	e.CompactRatio = 0
	st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.SitesChanged == 0 {
		t.Fatalf("nothing refreshed: %+v", st)
	}

	scratch, _ := churnedEngine(t, 4, func(web *webgen.Web) { churnSubset(web, 4242) })

	e.Engine.Index.Compact()
	scratch.Engine.Index.Compact()
	for _, q := range persistQueries {
		if a, b := search(e.Engine.Index, q, 10), search(scratch.Engine.Index, q, 10); !reflect.DeepEqual(a, b) {
			t.Errorf("Search(%q) differs:\n  refreshed %v\n  scratch   %v", q, a, b)
		}
	}
}

// The meta segment is the surfacer's: Open reads the signatures Save
// wrote, so refreshing an unchanged world through a snapshot does
// nothing. Without the segment every site counts as changed on the
// next Refresh; a damaged one is refused, though engine.Load serves
// the same directory.
func TestOpenMetaSegment(t *testing.T) {
	cfg := webgen.WorldConfig{Seed: 3, SitesPerDom: 1, RowsPerSite: 20}
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 4
	if _, err := s.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	save := func(t *testing.T) string {
		dir := t.TempDir()
		if err := s.Save(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	refreshOpened := func(t *testing.T, dir string) RefreshResponse {
		web, err := webgen.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opened, err := Open(web, dir)
		if err != nil {
			t.Fatal(err)
		}
		opened.Workers = 4
		st, err := opened.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	t.Run("meta segment", func(t *testing.T) {
		if st := refreshOpened(t, save(t)); st.SitesChanged != 0 {
			t.Fatalf("unchanged world re-surfaced %d sites through a snapshot", st.SitesChanged)
		}
	})
	t.Run("missing meta segment", func(t *testing.T) {
		dir := save(t)
		if err := os.Remove(store.MetaPath(dir)); err != nil {
			t.Fatal(err)
		}
		st := refreshOpened(t, dir)
		if st.SitesChecked == 0 || st.SitesChanged != st.SitesChecked {
			t.Fatalf("meta-less snapshot: %d of %d sites changed, want all", st.SitesChanged, st.SitesChecked)
		}
	})
	t.Run("damaged meta segment", func(t *testing.T) {
		dir := save(t)
		path := store.MetaPath(dir)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Load(dir); err != nil {
			t.Fatalf("engine.Load refused a snapshot whose meta segment alone is damaged: %v", err)
		}
		if _, err := Open(s.Web, dir); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open of a damaged meta segment: want ErrCorrupt, got %v", err)
		}
	})
}

// Refreshing an unchanged world is a no-op: nothing deleted, nothing
// added, no site re-surfaced.
func TestRefreshUnchangedWorldNoOp(t *testing.T) {
	e := freshEngine(t, 4)
	docs := e.Engine.Index.Len()
	st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.SitesChanged != 0 || st.DocsDeleted != 0 || st.DocsAdded != 0 {
		t.Fatalf("no-op refresh did work: %+v", st)
	}
	if e.Engine.Index.Len() != docs || e.Engine.Index.Deleted() != 0 {
		t.Fatalf("no-op refresh mutated the index: %d docs, %d tombstones", e.Engine.Index.Len(), e.Engine.Index.Deleted())
	}
}

// A host filter restricts both checking and re-surfacing.
func TestRefreshHostFilter(t *testing.T) {
	e := freshEngine(t, 4)
	e.CompactRatio = 0
	churnSubset(e.Web, 7) // churns sites 0, 3, 6 … by host order
	hosts := []string{e.Web.Sites()[0].Spec.Host}
	st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3, Hosts: hosts})
	if err != nil {
		t.Fatal(err)
	}
	if st.SitesChecked != 1 {
		t.Fatalf("checked %d sites, want 1", st.SitesChecked)
	}
	if st.SitesChanged != 1 {
		t.Fatalf("refreshed %d sites, want 1", st.SitesChanged)
	}
}

// A Refresh pass that fails mid-pipeline must be recoverable: the
// failing site's surfaced docs are retired, but its crawled
// surface-web pages survive (stale, not gone), and a retry after the
// fault clears converges on the same corpus as a from-scratch surface.
func TestRefreshFailureThenRetryConverges(t *testing.T) {
	e := freshEngine(t, 4)
	e.CompactRatio = 0
	site := e.Web.Sites()[0]
	host := site.Spec.Host
	rng := rand.New(rand.NewSource(55))
	webgen.ChurnSite(site, 6, rng)

	// Poison the churned host so its re-surfacing fails mid-refresh.
	// The failure is contained: the pass completes, classifying the
	// site as transiently failed in the per-site report.
	e.Web.AddHandler(host, http.RedirectHandler("http://"+host+"/", http.StatusFound))
	broken, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatalf("partial refresh failure aborted the pass: %v", err)
	}
	if rep := broken.Sites[host]; rep.Status != SiteFailedTransient {
		t.Fatalf("poisoned site reported %s, want %s", rep.Status, SiteFailedTransient)
	}
	if !broken.Degraded {
		t.Error("refresh with a failed site is not marked Degraded")
	}
	// Surface-web pages of the failed site must still be live.
	if !e.Engine.Index.Has("http://" + host + "/") {
		t.Fatal("failed refresh dropped the site's homepage from the index")
	}

	// Fault clears; the retry re-surfaces the site (its signature is
	// still unrecorded) and swaps the surface pages.
	e.Web.AddHandler(host, site)
	st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.SitesChanged != 1 || st.SurfacePages == 0 {
		t.Fatalf("retry did not recover the site: %+v", st)
	}

	scratch, _ := churnedEngine(t, 4, func(web *webgen.Web) {
		webgen.ChurnSite(web.Sites()[0], 6, rand.New(rand.NewSource(55)))
	})
	e.Engine.Index.Compact()
	scratch.Engine.Index.Compact()
	for _, q := range persistQueries {
		if a, b := search(e.Engine.Index, q, 10), search(scratch.Engine.Index, q, 10); !reflect.DeepEqual(a, b) {
			t.Errorf("Search(%q) differs after recovery:\n  refreshed %v\n  scratch   %v", q, a, b)
		}
	}
}

// Past the tombstone threshold, Refresh compacts automatically, and a
// second refresh still works on the renumbered index.
func TestRefreshAutoCompacts(t *testing.T) {
	e := freshEngine(t, 4)
	e.CompactRatio = 0.01 // any churn at all triggers compaction
	churnSubset(e.Web, 99)
	st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Compacted {
		t.Fatalf("refresh did not compact: %+v", st)
	}
	if e.Engine.Index.Deleted() != 0 {
		t.Fatalf("%d tombstones after compaction", e.Engine.Index.Deleted())
	}
	// The renumbered engine must still refresh correctly.
	churnSubset(e.Web, 100)
	st2, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st2.SitesChanged == 0 {
		t.Fatalf("post-compact refresh found nothing: %+v", st2)
	}
	if got := search(e.Engine.Index, "used ford focus", 5); len(got) == 0 {
		t.Fatal("post-compact refreshed index answers nothing")
	}
}

// Compact renumbers every document, and nothing outside the index may
// hold ids across it: compacting the engine's index before a Refresh
// must leave Refresh retiring exactly the churned sites' documents and
// converging on the from-scratch corpus.
func TestRefreshAfterBareIndexCompact(t *testing.T) {
	e := freshEngine(t, 4)
	e.CompactRatio = 0
	e.Engine.Index.Compact()
	churnSubset(e.Web, 99)
	st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.SitesChanged == 0 || st.DocsDeleted == 0 {
		t.Fatalf("degenerate refresh: %+v", st)
	}
	scratch, _ := churnedEngine(t, 4, func(web *webgen.Web) { churnSubset(web, 99) })
	requireSameCorpus(t, "bare compact", e, scratch)
}
