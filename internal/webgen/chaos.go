package webgen

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// Chaos fault injection: the virtual internet's bad weather. The
// paper's crawler ran against millions of real sites — slow, flaky,
// rate-limiting, connection-dropping, garbage-emitting — so the
// virtual web can simulate the same failure modes, deterministically.
//
// Chaos wraps any RoundTripper (normally *Web) and injects faults per
// host according to a FaultProfile. Determinism is the whole point:
// each host gets its own RNG seeded from (seed XOR hash(host)) and its
// own request ordinal, and the surfacer's pipeline guarantees one site =
// one worker with every request targeting the site's own host — so the
// exact same faults hit the exact same requests regardless of worker
// count or scheduling. That is what lets a property test demand
// bit-identical convergence between a chaos run and a fault-free run.

// FaultKind enumerates the injectable failure modes.
type FaultKind int

const (
	// FaultNone passes the request through untouched.
	FaultNone FaultKind = iota
	// Fault503 answers 503 Service Unavailable without reaching the site.
	Fault503
	// Fault429 answers 429 Too Many Requests without reaching the site.
	Fault429
	// FaultTimeout fails the request with a deadline-exceeded error, as
	// a dead-slow server would (returned immediately so tests stay fast).
	FaultTimeout
	// FaultReset fails the request with a connection-reset error.
	FaultReset
	// FaultTruncate serves the real response cut off mid-body: half the
	// bytes, then an unexpected-EOF read error.
	FaultTruncate
	// FaultGarble serves the real response with the body deterministically
	// mangled — valid transport, corrupt content.
	FaultGarble
)

func (k FaultKind) String() string {
	switch k {
	case Fault503:
		return "503"
	case Fault429:
		return "429"
	case FaultTimeout:
		return "timeout"
	case FaultReset:
		return "reset"
	case FaultTruncate:
		return "truncate"
	case FaultGarble:
		return "garble"
	default:
		return "none"
	}
}

// faultOrder fixes the iteration order for probability draws — map
// iteration order must never influence which fault fires.
var faultOrder = []FaultKind{Fault503, Fault429, FaultTimeout, FaultReset, FaultTruncate, FaultGarble}

// FaultProfile describes one host's misbehavior. FailFirst/FailWith is
// the flap schedule: the first FailFirst requests fail with FailWith
// (defaulting to 503), then the host recovers — the shape retry loops
// and refresh healing are built for, because it is guaranteed to end.
// P adds steady-state trouble: per-kind probabilities (summing ≤ 1)
// drawn once per request after the flap window. Latency is added to
// every request, honoring the request context.
type FaultProfile struct {
	Latency   time.Duration
	FailFirst int
	FailWith  FaultKind
	P         map[FaultKind]float64
}

// chaosHost is one host's deterministic fault state.
type chaosHost struct {
	rng      *rand.Rand
	ordinal  int
	injected int
}

// Chaos is a deterministic fault-injecting RoundTripper. Configure
// per-host profiles with SetProfile (hosts without one pass through),
// then put it between the resilient transport and the web.
type Chaos struct {
	inner http.RoundTripper
	seed  int64

	mu       sync.Mutex
	profiles map[string]FaultProfile
	hosts    map[string]*chaosHost
}

// NewChaos wraps inner with fault injection derived from seed.
func NewChaos(inner http.RoundTripper, seed int64) *Chaos {
	return &Chaos{
		inner:    inner,
		seed:     seed,
		profiles: make(map[string]FaultProfile),
		hosts:    make(map[string]*chaosHost),
	}
}

// SetProfile installs (or replaces) a host's fault profile.
func (c *Chaos) SetProfile(host string, p FaultProfile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.profiles[host] = p
}

// Injected reports how many faults have been injected against host.
func (c *Chaos) Injected(host string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := c.hosts[host]; h != nil {
		return h.injected
	}
	return 0
}

// TotalInjected reports the fault count across all hosts.
func (c *Chaos) TotalInjected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, h := range c.hosts {
		n += h.injected
	}
	return n
}

// hostSeed mixes the chaos seed with the host name so each host's
// fault stream is independent but reproducible.
func hostSeed(seed int64, host string) int64 {
	f := fnv.New64a()
	io.WriteString(f, host) //nolint:errcheck // fnv never errors
	return seed ^ int64(f.Sum64())
}

// decide picks the fault for the next request to host, advancing that
// host's deterministic state. Called under c.mu.
func (c *Chaos) decide(host string, prof FaultProfile) FaultKind {
	h := c.hosts[host]
	if h == nil {
		h = &chaosHost{rng: rand.New(rand.NewSource(hostSeed(c.seed, host)))}
		c.hosts[host] = h
	}
	h.ordinal++
	kind := FaultNone
	if h.ordinal <= prof.FailFirst {
		kind = prof.FailWith
		if kind == FaultNone {
			kind = Fault503
		}
	} else if len(prof.P) > 0 {
		// Exactly one draw per request past the flap window, consumed in
		// a fixed kind order — the draw count per ordinal is what keeps
		// the stream reproducible.
		draw := h.rng.Float64()
		acc := 0.0
		for _, k := range faultOrder {
			p := prof.P[k]
			if p <= 0 {
				continue
			}
			acc += p
			if draw < acc {
				kind = k
				break
			}
		}
	}
	if kind != FaultNone {
		h.injected++
	}
	return kind
}

// RoundTrip injects the decided fault (if any) and otherwise forwards
// to the wrapped transport.
func (c *Chaos) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	c.mu.Lock()
	prof, ok := c.profiles[host]
	if !ok {
		c.mu.Unlock()
		return c.inner.RoundTrip(req)
	}
	kind := c.decide(host, prof)
	c.mu.Unlock()

	if prof.Latency > 0 {
		timer := time.NewTimer(prof.Latency)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}

	switch kind {
	case Fault503:
		return chaosResponse(req, 503, "chaos: injected 503"), nil
	case Fault429:
		return chaosResponse(req, 429, "chaos: injected 429"), nil
	case FaultTimeout:
		return nil, fmt.Errorf("chaos: %s: injected timeout: %w", host, context.DeadlineExceeded)
	case FaultReset:
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	case FaultTruncate:
		resp, err := c.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return truncateResponse(resp)
	case FaultGarble:
		resp, err := c.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return garbleResponse(resp)
	default:
		return c.inner.RoundTrip(req)
	}
}

// chaosResponse builds a synthetic error response.
func chaosResponse(req *http.Request, status int, body string) *http.Response {
	return &http.Response{
		StatusCode: status,
		Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
		Body:       io.NopCloser(bytes.NewReader([]byte(body))),
		Request:    req,
	}
}

// truncatedReader serves its bytes, then fails like a dropped
// connection instead of reporting a clean EOF.
type truncatedReader struct {
	r io.Reader
}

func (t *truncatedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (t *truncatedReader) Close() error { return nil }

// truncateResponse swaps the body for its first half followed by an
// unexpected-EOF read error.
func truncateResponse(resp *http.Response) (*http.Response, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = &truncatedReader{r: bytes.NewReader(body[:len(body)/2])}
	resp.ContentLength = -1
	return resp, nil
}

// garbleResponse deterministically mangles the body: every 7th byte is
// clobbered. The transport succeeds; the content is corrupt — the one
// fault class retries cannot detect, which is why it lives in
// graceful-degradation tests rather than convergence ones.
func garbleResponse(resp *http.Response) (*http.Response, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(body); i += 7 {
		body[i] = '#'
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// ApplyDefaultProfiles spreads a fixed cycle of misbehavior archetypes
// over hosts (every 8th host stays healthy) — the stock weather for
// `deepcrawl -chaos` and smoke tests.
func (c *Chaos) ApplyDefaultProfiles(hosts []string) {
	for i, host := range hosts {
		switch i % 8 {
		case 0: // flapper: down for 4 requests, then fine
			c.SetProfile(host, FaultProfile{FailFirst: 4, FailWith: Fault503})
		case 1: // flaky backend
			c.SetProfile(host, FaultProfile{P: map[FaultKind]float64{Fault503: 0.2}})
		case 2: // rate limiter
			c.SetProfile(host, FaultProfile{P: map[FaultKind]float64{Fault429: 0.3}})
		case 3: // connection resetter
			c.SetProfile(host, FaultProfile{P: map[FaultKind]float64{FaultReset: 0.15}})
		case 4: // slow, sometimes dead slow
			c.SetProfile(host, FaultProfile{Latency: time.Millisecond, P: map[FaultKind]float64{FaultTimeout: 0.05}})
		case 5: // truncator
			c.SetProfile(host, FaultProfile{P: map[FaultKind]float64{FaultTruncate: 0.15}})
		case 6: // garbler
			c.SetProfile(host, FaultProfile{P: map[FaultKind]float64{FaultGarble: 0.1}})
		case 7: // healthy — someone has to be
		}
	}
}
