package webgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"

	"deepweb/internal/htmlx"
)

// HubHost is the virtual host of the hub page linking every site's
// homepage — the crawler's seed, standing in for "the rest of the web"
// that links to deep-web sites.
const HubHost = "hub.example"

// Web is a virtual internet: a set of Sites addressable by host name,
// dispatched in-process. It implements http.RoundTripper so the crawler
// and the surfacing engine use an ordinary *http.Client against it, and
// it counts requests per host — the measurement behind the site-load
// experiment (E2).
type Web struct {
	mu       sync.Mutex
	sites    map[string]*Site
	handlers map[string]http.Handler
	reqs     map[string]int
}

// NewWeb returns an empty virtual internet.
func NewWeb() *Web {
	return &Web{sites: map[string]*Site{}, handlers: map[string]http.Handler{}, reqs: map[string]int{}}
}

// AddSite registers a site under its spec's host.
func (w *Web) AddSite(s *Site) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sites[s.Spec.Host] = s
	w.handlers[s.Spec.Host] = s
}

// AddHandler registers an arbitrary handler under a host — the hook for
// hostile/degenerate sites in failure-injection tests.
func (w *Web) AddHandler(host string, h http.Handler) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.handlers[host] = h
}

// Site returns the registered site for host, or nil.
func (w *Web) Site(host string) *Site {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sites[host]
}

// Sites returns all registered sites sorted by host.
func (w *Web) Sites() []*Site {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*Site, 0, len(w.sites))
	for _, s := range w.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Host < out[j].Spec.Host })
	return out
}

// RoundTrip implements http.RoundTripper, serving the request from the
// owning site (or the hub) without touching the network.
func (w *Web) RoundTrip(req *http.Request) (*http.Response, error) {
	w.mu.Lock()
	w.reqs[req.URL.Host]++
	handler := w.handlers[req.URL.Host]
	w.mu.Unlock()

	rec := httptest.NewRecorder()
	switch {
	case req.URL.Host == HubHost:
		w.serveHub(rec)
	case handler != nil:
		// Rebuild the request so handlers see path+query the usual way.
		inner := req.Clone(req.Context())
		inner.RequestURI = ""
		handler.ServeHTTP(rec, inner)
	default:
		http.NotFound(rec, req)
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

func (w *Web) serveHub(rw http.ResponseWriter) {
	w.mu.Lock()
	hosts := make([]string, 0, len(w.sites))
	for h := range w.sites {
		hosts = append(hosts, h)
	}
	w.mu.Unlock()
	sort.Strings(hosts)
	var b strings.Builder
	b.WriteString("<h1>directory of sites</h1><ul>")
	for _, h := range hosts {
		fmt.Fprintf(&b, `<li><a href="http://%s/">%s</a></li>`, h, htmlx.EscapeText(h))
	}
	b.WriteString("</ul>")
	writeHTML(rw, "site directory", b.String())
}

// Client returns an *http.Client whose transport is this virtual
// internet.
func (w *Web) Client() *http.Client {
	return &http.Client{Transport: w}
}

// Requests returns the number of requests served for host since the last
// ResetCounts.
func (w *Web) Requests(host string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reqs[host]
}

// TotalRequests sums request counts across hosts.
func (w *Web) TotalRequests() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := 0
	for _, n := range w.reqs {
		total += n
	}
	return total
}

// ResetCounts zeroes the per-host request counters.
func (w *Web) ResetCounts() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.reqs = map[string]int{}
}
