package surface

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"reflect"
	"testing"

	"deepweb/internal/core"
	"deepweb/internal/index"
	"deepweb/internal/semserv"
	"deepweb/internal/webgen"
)

// search and annotatedSearch are the tests' shorthand for the index's
// first unfiltered page under a live context — the reference the engine
// API's responses are compared against.
func search(ix *index.Index, q string, k int) []index.Result {
	hits, _, _ := ix.TopK(context.Background(), q, k, 0, nil)
	return hits
}

func annotatedSearch(ix *index.Index, q string, k int) []index.Result {
	hits, _, _ := ix.AnnotatedTopK(context.Background(), q, k, 0, nil)
	return hits
}

var persistQueries = []string{
	"used ford focus", "homes in seattle", "nurse jobs",
	"history books", "thai recipes", "turing award professor",
	"ford ford focus", "the of and", "zzz-no-such-term",
}

// sourceCounts counts the documents of each non-empty Source.
func sourceCounts(ix *index.Index) map[string]int {
	counts := map[string]int{}
	ix.ForEach(func(_ int, d index.Doc, _ string) {
		if d.Source != "" {
			counts[d.Source]++
		}
	})
	return counts
}

// buildEngine surfaces a fresh multi-site world with the given worker
// count. Each call regenerates the world from the same seed so the two
// arms share nothing. It requires every site's report to count exactly
// the requests the web server saw from the pass: the report is the
// crawler's traffic ledger, and the server's own books are the truth.
func buildEngine(t testing.TB, workers int) (*Surfacer, SurfaceResponse) {
	t.Helper()
	e, err := Build(webgen.WorldConfig{Seed: 7, SitesPerDom: 1, RowsPerSite: 60})
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = workers
	if n := e.IndexSurfaceWeb(context.Background()); n == 0 {
		t.Fatal("surface-web crawl indexed nothing")
	}
	e.Web.ResetCounts()
	resp, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range e.Web.Sites() {
		host := site.Spec.Host
		if got, want := resp.Sites[host].Attempts, uint64(e.Web.Requests(host)); got != want {
			t.Errorf("%s: report counts %d attempts, the server saw %d requests", host, got, want)
		}
	}
	return e, resp
}

// The acceptance bar of this refactor: parallel surfacing must be
// bit-identical to sequential — same document set, same doc-id order,
// same search results, same experiment metrics. Run with -race.
func TestSurfaceDeterministicAcrossWorkers(t *testing.T) {
	seq, seqResp := buildEngine(t, 1)
	par, parResp := buildEngine(t, 4)

	if len(seq.Web.Sites()) < 8 {
		t.Fatalf("world too small to exercise the pool: %d sites", len(seq.Web.Sites()))
	}

	// Identical index contents in identical doc-id order.
	if seq.Engine.Index.Len() != par.Engine.Index.Len() {
		t.Fatalf("index sizes differ: %d vs %d", seq.Engine.Index.Len(), par.Engine.Index.Len())
	}
	for id := 0; id < seq.Engine.Index.Len(); id++ {
		a, b := seq.Engine.Index.Doc(id), par.Engine.Index.Doc(id)
		if a != b {
			t.Fatalf("doc %d differs:\n  seq %+v\n  par %+v", id, a, b)
		}
		if !reflect.DeepEqual(seq.Engine.Index.AnnotationsOf(id), par.Engine.Index.AnnotationsOf(id)) {
			t.Fatalf("annotations of doc %d differ", id)
		}
	}

	// Identical experiment metrics.
	if !reflect.DeepEqual(seqResp, parResp) {
		t.Errorf("site reports differ:\n  seq %v\n  par %v", seqResp, parResp)
	}
	if a, b := seq.MeanCoverage(), par.MeanCoverage(); a != b {
		t.Errorf("mean coverage differs: %v vs %v", a, b)
	}
	if a, b := sourceCounts(seq.Engine.Index), sourceCounts(par.Engine.Index); !reflect.DeepEqual(a, b) {
		t.Errorf("per-source doc counts differ:\n  seq %v\n  par %v", a, b)
	}
	for host, sres := range seq.Results {
		pres := par.Results[host]
		if pres == nil {
			t.Fatalf("host %s missing from parallel results", host)
		}
		if !reflect.DeepEqual(sres.URLs, pres.URLs) {
			t.Errorf("%s: surfaced URL lists differ (%d vs %d)", host, len(sres.URLs), len(pres.URLs))
		}
		if sres.ProbesUsed != pres.ProbesUsed {
			t.Errorf("%s: probes used differ: %d vs %d", host, sres.ProbesUsed, pres.ProbesUsed)
		}
	}

	// Identical ranked results, plain and annotated.
	for _, q := range []string{
		"used ford focus", "homes in seattle", "nurse jobs",
		"history books", "thai recipes", "turing award professor",
	} {
		if a, b := search(seq.Engine.Index, q, 10), search(par.Engine.Index, q, 10); !reflect.DeepEqual(a, b) {
			t.Errorf("Search(%q) differs:\n  seq %v\n  par %v", q, a, b)
		}
		if a, b := annotatedSearch(seq.Engine.Index, q, 10), annotatedSearch(par.Engine.Index, q, 10); !reflect.DeepEqual(a, b) {
			t.Errorf("AnnotatedSearch(%q) differs", q)
		}
	}
}

// Worker counts beyond the site count, and the Workers=0 default, are
// clamped rather than misbehaving.
func TestSurfaceWorkerClamping(t *testing.T) {
	for _, workers := range []int{0, 64} {
		e, err := Build(webgen.WorldConfig{Seed: 3, SitesPerDom: 1, RowsPerSite: 20})
		if err != nil {
			t.Fatal(err)
		}
		e.Workers = workers
		if _, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 0}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(e.Results) != len(e.Web.Sites()) {
			t.Errorf("workers=%d: %d results for %d sites", workers, len(e.Results), len(e.Web.Sites()))
		}
	}
}

// An empty world is a no-op, not a hang.
func TestSurfaceEmptyWorld(t *testing.T) {
	e := New(webgen.NewWeb())
	e.Workers = 4
	if _, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 0}); err != nil {
		t.Fatal(err)
	}
	if e.Engine.Index.Len() != 0 {
		t.Error("empty world indexed documents")
	}
}

// The filtered variant applies the §5.2 admission band at fetch time
// in the workers (rejected pages never reach the sink), and the site
// reports surface it.
func TestSurfaceFilteredRejects(t *testing.T) {
	run := func(filt core.IngestFilter) (indexed, rejected int) {
		e, err := Build(webgen.WorldConfig{Seed: 3, SitesPerDom: 1, RowsPerSite: 40})
		if err != nil {
			t.Fatal(err)
		}
		e.Workers = 4
		resp, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 0, Filter: filt})
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range resp.Sites {
			indexed += rep.Ingest.Indexed
			rejected += rep.Ingest.Rejected
		}
		return indexed, rejected
	}
	plainIndexed, plainRejected := run(core.IngestFilter{})
	bandIndexed, bandRejected := run(core.IngestFilter{MinItems: 1, MaxItems: 3})
	if plainRejected != 0 {
		t.Errorf("unfiltered run rejected %d pages", plainRejected)
	}
	if bandRejected == 0 || bandIndexed >= plainIndexed {
		t.Errorf("admission band had no effect: indexed %d vs %d, rejected %d",
			bandIndexed, plainIndexed, bandRejected)
	}
}

// A site that fails mid-surfacing still has its analysis traffic
// metered: the requests were really issued against the host (§3.2
// accounting), so its report must count them even though the site
// commits no result. The failure does not abort the pass — it is
// classified into the per-site report and the response is Degraded.
func TestReportCountsAttemptsOfFailedSite(t *testing.T) {
	e, err := Build(webgen.WorldConfig{Seed: 3, SitesPerDom: 1, RowsPerSite: 20})
	if err != nil {
		t.Fatal(err)
	}
	// First host in commit order, so the failure is deterministic and
	// no other site's outcome depends on cancellation timing.
	bad := e.Web.Sites()[0].Spec.Host
	// A redirect loop makes the http.Client itself error (10-hop cap),
	// the only way a fault-free virtual-web fetch fails.
	e.Web.AddHandler(bad, http.RedirectHandler("http://"+bad+"/", http.StatusFound))
	e.Workers = 2
	resp, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 0})
	if err != nil {
		t.Fatalf("partial failure aborted the pass: %v", err)
	}
	rep, ok := resp.Sites[bad]
	if !ok {
		t.Fatalf("no report for failed site %s", bad)
	}
	if rep.Status != SiteFailedTransient {
		t.Fatalf("failed site %s reported %s, want %s", bad, rep.Status, SiteFailedTransient)
	}
	if rep.Err == "" {
		t.Errorf("failed site's report carries no error text")
	}
	if !resp.Degraded {
		t.Error("response with a failed site is not marked Degraded")
	}
	if rep.Attempts == 0 {
		t.Fatalf("failed site %s issued requests but its report counts 0 attempts", bad)
	}
	if _, committed := e.Results[bad]; committed {
		t.Fatalf("failed site %s committed a result", bad)
	}
	// The other sites must have surfaced normally around the failure.
	if len(e.Results) == 0 {
		t.Fatal("no healthy site committed around the failure")
	}
	for host, rep := range resp.Sites {
		if host != bad && rep.Status != SiteOK {
			t.Errorf("healthy site %s reported %s", host, rep.Status)
		}
	}
}

// BuildSemantics produces working stores behind the façade.
func TestBuildSemantics(t *testing.T) {
	e, err := Build(webgen.WorldConfig{Seed: 7, SitesPerDom: 1, RowsPerSite: 40})
	if err != nil {
		t.Fatal(err)
	}
	sem := e.BuildSemantics(context.Background(), 2000)
	if sem.PagesCrawled == 0 || len(sem.Tables) == 0 {
		t.Fatalf("semantic crawl found nothing: %+v", sem)
	}
	if len(sem.Tables) > sem.RawTables {
		t.Fatalf("quality filter grew the table set: %d > %d", len(sem.Tables), sem.RawTables)
	}
	if sem.ACS == nil || sem.ACS.Schemas == 0 {
		t.Error("ACSDb empty")
	}
}

// The semantic store round-trips through its tables segment: the
// rebuilt ACSDb and value store are identical because both are pure
// functions of the persisted tables. A directory without the segment
// (an index-only or bulk-built snapshot) loads as fs.ErrNotExist,
// which a server reads as "no §6 group".
func TestSemanticsSaveLoad(t *testing.T) {
	e, err := Build(webgen.WorldConfig{Seed: 7, SitesPerDom: 1, RowsPerSite: 40})
	if err != nil {
		t.Fatal(err)
	}
	sem := e.BuildSemantics(context.Background(), 2000)
	dir := t.TempDir()
	if _, err := semserv.Load(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing tables segment: want not-exist, got %v", err)
	}
	if err := sem.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := semserv.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sem) {
		t.Fatalf("semantic store round trip differs:\n got %+v\nwant %+v", got, sem)
	}
}

// FormOf parses the form of every GET site.
func TestFormOf(t *testing.T) {
	e, err := Build(webgen.WorldConfig{Seed: 7, SitesPerDom: 1, RowsPerSite: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range e.Web.Sites() {
		f, err := FormOf(context.Background(), e.Fetch, site)
		if err != nil {
			t.Fatalf("%s: %v", site.Spec.Host, err)
		}
		if f == nil || len(f.Inputs) == 0 {
			t.Errorf("%s: degenerate form %+v", site.Spec.Host, f)
		}
	}
}

func ExampleSurfacer_Surface() {
	e, err := Build(webgen.WorldConfig{Seed: 42, SitesPerDom: 1, RowsPerSite: 30})
	if err != nil {
		panic(err)
	}
	e.Workers = 4
	e.IndexSurfaceWeb(context.Background())
	if _, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 1}); err != nil {
		panic(err)
	}
	fmt.Println(len(e.Results) == len(e.Web.Sites()))
	// Output: true
}
