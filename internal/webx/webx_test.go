package webx

import (
	"context"
	"net/url"
	"strings"
	"testing"

	"deepweb/internal/webgen"
)

func testWorld(t *testing.T) *webgen.Web {
	t.Helper()
	web, err := webgen.BuildWorld(webgen.WorldConfig{Seed: 5, SitesPerDom: 1, RowsPerSite: 40})
	if err != nil {
		t.Fatal(err)
	}
	return web
}

func TestFetcherGetParses(t *testing.T) {
	web := testWorld(t)
	f := NewFetcher(web)
	site := web.Sites()[0]
	p, err := f.GetCtx(context.Background(), site.FormURL())
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != 200 {
		t.Errorf("status = %d", p.Status)
	}
	if len(p.Forms()) != 1 {
		t.Errorf("forms = %d, want 1", len(p.Forms()))
	}
	if p.Title() == "" {
		t.Error("no title extracted")
	}
	if !strings.Contains(p.Text(), "search") {
		t.Errorf("visible text wrong: %q", p.Text())
	}
}

func TestFetcherGet404IsPageNotError(t *testing.T) {
	web := testWorld(t)
	f := NewFetcher(web)
	p, err := f.GetCtx(context.Background(), "http://nosuch.example/")
	if err != nil {
		t.Fatalf("404 should not be a transport error: %v", err)
	}
	if p.Status != 404 {
		t.Errorf("status = %d", p.Status)
	}
}

func TestCrawlerReachesAllSitesFromHub(t *testing.T) {
	web := testWorld(t)
	c := &Crawler{Fetcher: NewFetcher(web)}
	pages := c.Crawl(context.Background(), "http://"+webgen.HubHost+"/")
	hosts := map[string]bool{}
	for _, p := range pages {
		u, err := url.Parse(p.URL)
		if err != nil {
			t.Fatal(err)
		}
		hosts[u.Host] = true
	}
	for _, s := range web.Sites() {
		if !hosts[s.Spec.Host] {
			t.Errorf("crawl missed host %s", s.Spec.Host)
		}
	}
}

func TestCrawlerSkipsQueryURLsByDefault(t *testing.T) {
	web := testWorld(t)
	c := &Crawler{Fetcher: NewFetcher(web)}
	pages := c.Crawl(context.Background(), "http://"+webgen.HubHost+"/")
	for _, p := range pages {
		if strings.Contains(p.URL, "?") {
			t.Fatalf("pre-surfacing crawl fetched query URL %s", p.URL)
		}
	}
	// With FollowQuery it must reach record pages linked from homepages.
	c2 := &Crawler{Fetcher: NewFetcher(web), FollowQuery: true}
	sawRecord := false
	for _, p := range c2.Crawl(context.Background(), "http://"+webgen.HubHost+"/") {
		if strings.Contains(p.URL, "/record?id=") {
			sawRecord = true
			break
		}
	}
	if !sawRecord {
		t.Error("FollowQuery crawl reached no record pages")
	}
}

func TestCrawlerMaxPages(t *testing.T) {
	web := testWorld(t)
	c := &Crawler{Fetcher: NewFetcher(web), MaxPages: 3}
	pages := c.Crawl(context.Background(), "http://"+webgen.HubHost+"/")
	if len(pages) > 3 {
		t.Errorf("MaxPages violated: %d", len(pages))
	}
}

func TestCrawlerDedupes(t *testing.T) {
	web := testWorld(t)
	c := &Crawler{Fetcher: NewFetcher(web)}
	seed := web.Sites()[0].HomeURL()
	pages := c.Crawl(context.Background(), seed, seed, seed)
	seen := map[string]int{}
	for _, p := range pages {
		seen[p.URL]++
		if seen[p.URL] > 1 {
			t.Fatalf("URL fetched twice: %s", p.URL)
		}
	}
}

func TestPostFetch(t *testing.T) {
	web := testWorld(t)
	f := NewFetcher(web)
	var post *webgen.Site
	for _, s := range web.Sites() {
		if s.Spec.Domain == "govdocs" {
			ps := webgen.AsPost(s)
			web.AddSite(ps)
			post = ps
			break
		}
	}
	topic := post.Table.DistinctStrings("topic")[0]
	p, err := f.PostCtx(context.Background(), "http://"+post.Spec.Host+"/results", "topic="+topic)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Text(), "results found") {
		t.Errorf("POST results page wrong: %q", p.Text()[:80])
	}
}
