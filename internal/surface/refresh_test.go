package surface

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

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
	e.ix = index.NewSharded(shards)
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

// requireSameSearch requires two engines to answer every
// persistQueries probe, plain and annotated, identically: ids, URLs,
// sources, score bits and tie order.
func requireSameSearch(t *testing.T, label string, a, b *Surfacer) {
	t.Helper()
	for _, q := range persistQueries {
		for _, rank := range []func(*index.Index, string, int) []index.Result{search, annotatedSearch} {
			x, y := rank(a.Engine.Index, q, 10), rank(b.Engine.Index, q, 10)
			if !reflect.DeepEqual(x, y) {
				t.Errorf("%s: %q answers differ:\n  %v\n  %v", label, q, x, y)
				continue
			}
			for i := range x {
				if math.Float64bits(x[i].Score) != math.Float64bits(y[i].Score) {
					t.Errorf("%s: %q hit %d: score bits differ", label, q, i)
				}
			}
		}
	}
}

// requireSameSave requires two surfacers to save byte-identical
// snapshot directories: docs, columns, postings and meta.
func requireSameSave(t *testing.T, label string, a, b *Surfacer) {
	t.Helper()
	read := func(s *Surfacer) map[string][]byte {
		dir := t.TempDir()
		if err := s.Save(dir); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, ent := range ents {
			raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[ent.Name()] = raw
		}
		return files
	}
	x, y := read(a), read(b)
	if len(x) != len(y) {
		t.Fatalf("%s: snapshots hold %d and %d files", label, len(x), len(y))
	}
	for name, raw := range x {
		if !bytes.Equal(raw, y[name]) {
			t.Errorf("%s: %s differs (%d vs %d bytes)", label, name, len(raw), len(y[name]))
		}
	}
}

// The acceptance bar of the freshness pipeline: after churning a third
// of the sites and refreshing, the engine is the one a from-scratch
// Surface of the churned world builds — the same Search and annotated
// search answers, ids, score bits and tie order included; the same
// site reports, signatures, surfaced URLs and coverage; and a Save
// that writes the same bytes. Run with -race; both arms surface on 4
// workers.
func TestRefreshMatchesFromScratch(t *testing.T) {
	for _, shards := range []int{1, 4, index.DefaultShards} {
		label := fmt.Sprintf("shards=%d", shards)
		// Arm 1: surface, churn, refresh incrementally.
		refreshed, reports := churnedEngine(t, shards, nil)
		// A warm result cache must not outlive the pass: the refreshed
		// engine gets an empty one of the same capacity.
		refreshed.Engine.EnableResultCache(256)
		for _, q := range persistQueries {
			urlHits(t, refreshed, q)
		}
		churned := churnSubset(refreshed.Web, 99)
		st, err := refreshed.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
		if err != nil {
			t.Fatalf("%s: refresh: %v", label, err)
		}
		if st.SitesChanged == 0 || st.SitesChanged > churned {
			t.Fatalf("%s: %d of %d churned sites refreshed", label, st.SitesChanged, churned)
		}
		if st.SitesChecked != len(refreshed.Web.Sites()) {
			t.Errorf("%s: checked %d of %d sites", label, st.SitesChecked, len(refreshed.Web.Sites()))
		}
		if st.DocsDeleted == 0 || st.DocsAdded == 0 || st.SurfacePages == 0 {
			t.Errorf("%s: degenerate refresh: %+v", label, st)
		}
		if cs, ok := refreshed.Engine.CacheStats(); !ok || cs.Capacity != 256 || cs.Entries != 0 {
			t.Errorf("%s: refreshed engine's cache: %+v (enabled %v), want an empty one of 256 entries", label, cs, ok)
		}

		// Arm 2: churn the same way, then surface from scratch.
		scratch, scratchReports := churnedEngine(t, shards, func(web *webgen.Web) { churnSubset(web, 99) })

		requireSameCorpus(t, label, refreshed, scratch)
		requireSameSearch(t, label, refreshed, scratch)
		// The first pass's reports, with the refreshed sites' replaced,
		// are the ledger a from-scratch pass of the churned world keeps.
		maps.Copy(reports, st.Sites)
		if !reflect.DeepEqual(reports, scratchReports) {
			t.Errorf("%s: site reports differ:\n  refreshed %v\n  scratch %v", label, reports, scratchReports)
		}
		if !reflect.DeepEqual(refreshed.siteSignatures, scratch.siteSignatures) {
			t.Errorf("%s: site signatures differ", label)
		}
		for host, res := range scratch.Results {
			got := refreshed.Results[host]
			if got == nil || !reflect.DeepEqual(got.URLs, res.URLs) {
				t.Errorf("%s: %s: surfaced URLs differ", label, host)
			}
		}
		if a, b := refreshed.MeanCoverage(), scratch.MeanCoverage(); a != b {
			t.Errorf("%s: coverage %v vs %v", label, a, b)
		}
		requireSameSave(t, label, refreshed, scratch)
	}
}

// The deepcrawl -refresh path: persist a surfaced world, rebuild the
// world from config, churn it, reattach the snapshot with Open and
// refresh. The refreshed engine must be the one a from-scratch surface
// of the churned world builds, down to the bytes Save writes.
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
	st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.SitesChanged == 0 {
		t.Fatalf("nothing refreshed: %+v", st)
	}

	scratch, _ := churnedEngine(t, 4, func(web *webgen.Web) { churnSubset(web, 4242) })
	requireSameSearch(t, "opened and refreshed", e, scratch)
	requireSameSave(t, "opened and refreshed", e, scratch)
}

// Passes onto an opened snapshot commit to the builder store.Load
// filled, as they commit to the surfacer that saved it: a world
// surfaced on a budget of five URLs a form, saved and opened, then
// crawled for its surface web and surfaced again on the full budget —
// both passes adding documents, the second annotated ones — answers
// and saves exactly as
// the surfacer that ran the same passes with no snapshot between,
// and reports the same per-site outcomes.
func TestOpenThenSurfaceMatchesInMemory(t *testing.T) {
	ctx := context.Background()
	mem, err := Build(refreshWorldCfg)
	if err != nil {
		t.Fatal(err)
	}
	mem.Workers = 4
	budget := core.DefaultConfig()
	budget.URLBudget = 5
	if _, err := mem.Surface(ctx, SurfaceRequest{Config: budget}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	web, err := webgen.BuildWorld(refreshWorldCfg)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(web, dir)
	if err != nil {
		t.Fatal(err)
	}
	opened.Workers = 4

	saved := mem.Engine.Index.Len()
	var crawled [2]int
	var reports [2]map[string]SiteReport
	for i, s := range []*Surfacer{mem, opened} {
		crawled[i] = s.IndexSurfaceWeb(ctx)
		resp, err := s.Surface(ctx, SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3})
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = resp.Sites
	}
	if crawled[0] == 0 || crawled[0] != crawled[1] {
		t.Fatalf("surface-web crawl added %d documents in memory, %d onto the opened snapshot", crawled[0], crawled[1])
	}
	ix := mem.Engine.Index
	if ix.Len() <= saved+crawled[0] || ix.AnnotationsOf(ix.Len()-1) == nil {
		t.Fatalf("the full-budget pass added no annotated document: %d documents saved, %d crawled, %d after", saved, crawled[0], ix.Len())
	}
	t.Logf("%d documents saved, %d crawled onto them, %d after the second pass", saved, crawled[0], ix.Len())
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Errorf("site reports differ:\n in memory %+v\n opened    %+v", reports[0], reports[1])
	}
	requireSameCorpus(t, "opened and surfaced", opened, mem)
	requireSameSearch(t, "opened and surfaced", opened, mem)
	requireSameSave(t, "opened and surfaced", opened, mem)
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
// added, no site re-surfaced, and the engine is left in place.
func TestRefreshUnchangedWorldNoOp(t *testing.T) {
	e := freshEngine(t, 4)
	before := e.Engine
	st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.SitesChanged != 0 || st.DocsDeleted != 0 || st.DocsAdded != 0 {
		t.Fatalf("no-op refresh did work: %+v", st)
	}
	if e.Engine != before {
		t.Fatal("no-op refresh replaced the engine")
	}
}

// A Refresh pass that fails mid-pipeline must be recoverable: the
// failing site's surfaced docs are gone, but its crawled surface-web
// pages survive (stale, not gone), and a retry after the fault clears
// converges on the from-scratch corpus, ids included.
func TestRefreshFailureThenRetryConverges(t *testing.T) {
	e := freshEngine(t, 4)
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
	// Surface-web pages of the failed site must still be indexed.
	if !e.ix.Has("http://" + host + "/") {
		t.Fatal("failed refresh dropped the site's homepage from the index")
	}

	// Fault clears; the retry re-surfaces the site (its signature is
	// still unrecorded) and refetches the surface pages.
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
	requireSameSearch(t, "recovered", e, scratch)
}

// A canceled Refresh keeps the contract a canceled Surface keeps: the
// changed sites committed before the cancellation stay committed, in
// the places a from-scratch surface gives them; every unchanged site's
// documents and every crawled surface-web page are carried over; the
// changed sites the pass never finished hold no surfaced documents;
// and no goroutine is left behind. The cancellation fires from inside
// the second changed site's probe traffic, on one worker, so exactly
// the first changed site commits.
func TestRefreshCanceledKeepsCommittedSites(t *testing.T) {
	e := freshEngine(t, 4)
	old := e.Engine.Index
	churnSubset(e.Web, 99) // sites 0, 3, 6, … by host order
	sites := e.Web.Sites()
	if len(sites) < 5 {
		t.Fatalf("world has %d sites; the test needs two changed sites and unchanged ones between them", len(sites))
	}
	committed, canceling := sites[0].Spec.Host, sites[3]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Surface pages carry no query string; probes and result pages do,
	// so the refetch of the canceling site's surface pages goes through.
	e.Web.AddHandler(canceling.Spec.Host, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.RawQuery != "" {
			cancel()
		}
		canceling.ServeHTTP(w, r)
	}))
	e.Workers = 1
	goroutines := runtime.NumGoroutine()
	_, err := e.Refresh(ctx, RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Refresh returned %v, want context.Canceled", err)
	}
	for i := 0; runtime.NumGoroutine() > goroutines; i++ {
		if i == 100 {
			t.Fatalf("canceled Refresh left %d goroutines behind", runtime.NumGoroutine()-goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ix := e.Engine.Index
	changed := map[string]bool{}
	for i, site := range sites {
		changed[site.Spec.Host] = i%3 == 0
	}
	old.ForEach(func(_ int, d index.Doc, host string) {
		if (d.Source == "" || !changed[host]) && !e.ix.Has(d.URL) {
			t.Errorf("%s (host %s, source %q) was not carried over", d.URL, host, d.Source)
		}
	})
	ix.ForEach(func(_ int, d index.Doc, host string) {
		if d.Source != "" && changed[host] && host != committed {
			t.Errorf("%s of unfinished changed site %s is indexed", d.URL, host)
		}
	})

	// Up to the canceling site, the index is the one a from-scratch
	// surface of the churned world builds.
	scratch, _ := churnedEngine(t, 4, func(web *webgen.Web) { churnSubset(web, 99) })
	before := map[string]bool{}
	for _, site := range sites[:3] {
		before[site.Spec.Host] = true
	}
	prefix := 0
	scratch.Engine.Index.ForEach(func(id int, d index.Doc, host string) {
		if id == prefix && (d.Source == "" || before[host]) {
			prefix++
		}
	})
	if prefix == 0 || prefix >= scratch.Engine.Index.Len() {
		t.Fatalf("scratch prefix of %d documents of %d", prefix, scratch.Engine.Index.Len())
	}
	for id := range prefix {
		want, got := scratch.Engine.Index.Doc(id), ix.Doc(id)
		if got != want || !reflect.DeepEqual(ix.AnnotationsOf(id), scratch.Engine.Index.AnnotationsOf(id)) {
			t.Fatalf("doc %d: refreshed %s, scratch %s", id, got.URL, want.URL)
		}
	}
	if res := e.Results[committed]; res == nil || !reflect.DeepEqual(res.URLs, scratch.Results[committed].URLs) {
		t.Errorf("committed site %s: surfaced URLs differ from scratch", committed)
	}
	if e.siteSignatures[committed] != scratch.siteSignatures[committed] {
		t.Errorf("committed site %s: signature differs from scratch", committed)
	}
	if _, ok := e.siteSignatures[canceling.Spec.Host]; ok && e.siteSignatures[canceling.Spec.Host] == canceling.TableSignature() {
		t.Errorf("canceled site %s recorded its new signature", canceling.Spec.Host)
	}
}
