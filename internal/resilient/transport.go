package resilient

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Options tunes the retrying transport. The zero value of any field
// falls back to a sane default at construction; the func fields exist
// so tests can pin time and randomness (deterministic backoff, instant
// sleeps, a fake clock for breaker cooldowns).
type Options struct {
	// MaxAttempts bounds total tries per request (1 = no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: the delay cap before
	// attempt n+1 is min(MaxDelay, BaseDelay << (n-1)).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth.
	MaxDelay time.Duration
	// PerAttemptTimeout bounds each individual attempt, carved from the
	// request's own deadline (whichever expires first wins).
	PerAttemptTimeout time.Duration
	// MaxBodyBytes caps the buffered response body; larger bodies fail
	// permanently with ErrBodyTooLarge. <= 0 means unlimited.
	MaxBodyBytes int64
	// BreakerThreshold is the consecutive-failure count that opens a
	// host's circuit. <= 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit refuses requests
	// before letting one probe through (half-open).
	BreakerCooldown time.Duration

	// Rand returns a float64 in [0,1) for full-jitter backoff. Must be
	// safe for concurrent use. Defaults to math/rand's global source.
	Rand func() float64
	// Sleep waits out a backoff delay; it must return the context's
	// error promptly if ctx is canceled mid-sleep. Defaults to a
	// timer-based ctx-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now is the breaker's clock. Defaults to time.Now.
	Now func() time.Time
}

// Defaults are the production settings: three attempts with 50ms..2s
// full-jitter backoff, 10s per attempt, 8MB bodies, and a breaker that
// opens after 5 consecutive failures for a 15s cooldown.
func Defaults() Options {
	return Options{
		MaxAttempts:       3,
		BaseDelay:         50 * time.Millisecond,
		MaxDelay:          2 * time.Second,
		PerAttemptTimeout: 10 * time.Second,
		MaxBodyBytes:      8 << 20,
		BreakerThreshold:  5,
		BreakerCooldown:   15 * time.Second,
	}
}

// Stats are one host's cumulative counters. Attempts counts every
// wire try; Retries the tries after the first; Timeouts the attempts
// that died on a deadline; BreakerTrips the closed→open and
// half-open→open transitions; TransientFailures and PermanentFailures
// count logical fetches (not attempts) that ended in each class —
// including retryable-status responses handed back after exhaustion.
type Stats struct {
	Attempts          uint64 `json:"attempts"`
	Retries           uint64 `json:"retries"`
	Timeouts          uint64 `json:"timeouts"`
	BreakerTrips      uint64 `json:"breaker_trips"`
	TransientFailures uint64 `json:"transient_failures"`
	PermanentFailures uint64 `json:"permanent_failures"`
}

// HostStats are one host's counters plus its breaker state
// ("closed", "open" or "half-open").
type HostStats struct {
	Stats
	Breaker string `json:"breaker"`
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// hostState is one host's counters and circuit breaker. Counters are
// atomics (the surfacer reads them while fetches run); the breaker's
// state machine is guarded by mu.
type hostState struct {
	attempts  atomic.Uint64
	retries   atomic.Uint64
	timeouts  atomic.Uint64
	trips     atomic.Uint64
	transient atomic.Uint64
	permanent atomic.Uint64

	mu          sync.Mutex
	state       int
	consecFails int
	openedUntil time.Time
	probing     bool
}

// allow reports whether a request may proceed under the breaker. An
// open circuit past its cooldown flips to half-open and admits exactly
// one probe; concurrent requests during the probe are refused.
func (h *hostState) allow(threshold int, cooldown time.Duration, now time.Time) bool {
	if threshold <= 0 {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(h.openedUntil) {
			return false
		}
		h.state = breakerHalfOpen
		h.probing = true
		return true
	default: // half-open
		if h.probing {
			return false
		}
		h.probing = true
		return true
	}
}

// onSuccess records a healthy exchange: resets the failure streak and
// closes a half-open circuit whose probe just succeeded.
func (h *hostState) onSuccess(threshold int) {
	if threshold <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails = 0
	h.probing = false
	h.state = breakerClosed
}

// onFailure records a failed exchange; returns true when it tripped
// the circuit open (closed past threshold, or a failed half-open probe).
func (h *hostState) onFailure(threshold int, cooldown time.Duration, now time.Time) bool {
	if threshold <= 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails++
	h.probing = false
	switch h.state {
	case breakerHalfOpen:
		h.state = breakerOpen
		h.openedUntil = now.Add(cooldown)
		return true
	case breakerClosed:
		if h.consecFails >= threshold {
			h.state = breakerOpen
			h.openedUntil = now.Add(cooldown)
			return true
		}
	}
	return false
}

func (h *hostState) breakerName() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Transport is the retrying RoundTripper. It owns the per-host breaker
// and counter state; wrap any base transport (the virtual web, a chaos
// transport, a real http.Transport) with NewTransport.
type Transport struct {
	base http.RoundTripper
	opts Options

	mu    sync.Mutex
	hosts map[string]*hostState
}

// NewTransport wraps base with retries, per-attempt timeouts, body
// capping and a per-host circuit breaker per opts.
func NewTransport(base http.RoundTripper, opts Options) *Transport {
	if opts.MaxAttempts < 1 {
		opts.MaxAttempts = 1
	}
	if opts.Rand == nil {
		opts.Rand = rand.Float64
	}
	if opts.Sleep == nil {
		opts.Sleep = sleepCtx
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Transport{base: base, opts: opts, hosts: make(map[string]*hostState)}
}

func (t *Transport) host(name string) *hostState {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hosts[name]
	if h == nil {
		h = &hostState{}
		t.hosts[name] = h
	}
	return h
}

// HostStats snapshots one host's counters (zero value for a host the
// transport has never fetched from).
func (t *Transport) HostStats(host string) HostStats {
	t.mu.Lock()
	h := t.hosts[host]
	t.mu.Unlock()
	if h == nil {
		return HostStats{Breaker: "closed"}
	}
	return HostStats{
		Stats: Stats{
			Attempts:          h.attempts.Load(),
			Retries:           h.retries.Load(),
			Timeouts:          h.timeouts.Load(),
			BreakerTrips:      h.trips.Load(),
			TransientFailures: h.transient.Load(),
			PermanentFailures: h.permanent.Load(),
		},
		Breaker: h.breakerName(),
	}
}

// failTransient finalizes a logical fetch as a transient failure.
func failTransient(h *hostState, host string, attempts int, err error) error {
	h.transient.Add(1)
	return &Error{Class: ClassTransient, Host: host, Attempts: attempts, Err: err}
}

// failPermanent finalizes a logical fetch as a permanent failure.
func failPermanent(h *hostState, host string, attempts int, err error) error {
	h.permanent.Add(1)
	return &Error{Class: ClassPermanent, Host: host, Attempts: attempts, Err: err}
}

// backoffFor returns the full-jitter delay before the attempt after
// attempt n (1-based): rand() * min(MaxDelay, BaseDelay << (n-1)).
func (t *Transport) backoffFor(attempt int) time.Duration {
	if t.opts.BaseDelay <= 0 {
		return 0
	}
	ceil := t.opts.BaseDelay
	for i := 1; i < attempt; i++ {
		ceil *= 2
		if t.opts.MaxDelay > 0 && ceil >= t.opts.MaxDelay {
			ceil = t.opts.MaxDelay
			break
		}
	}
	return time.Duration(t.opts.Rand() * float64(ceil))
}

// bufferBody drains body into memory (bounded by cap), closes it, and
// returns a replayable reader. A mid-read error surfaces here — inside
// the retry loop — instead of at a distant io.ReadAll; a body past the
// cap returns ErrBodyTooLarge.
func bufferBody(body io.ReadCloser, capBytes int64) (io.ReadCloser, error) {
	if body == nil {
		return http.NoBody, nil
	}
	defer body.Close()
	var r io.Reader = body
	if capBytes > 0 {
		r = io.LimitReader(body, capBytes+1)
	}
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if capBytes > 0 && int64(len(buf)) > capBytes {
		return nil, ErrBodyTooLarge
	}
	return io.NopCloser(bytes.NewReader(buf)), nil
}

// RoundTrip runs the retry loop: breaker gate, per-attempt timeout,
// body buffering, classification, jittered backoff. Retryable-status
// responses (408/429/5xx) that survive all attempts are returned as
// responses, not errors — an error page is a real observation for the
// layers above; errors are reserved for exchanges that produced no
// response at all. A response carrying NoRetryHeader is never retried
// and never counts against the breaker.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	h := t.host(host)
	ctx := req.Context()

	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, failTransient(h, host, attempt-1, err)
		}
		if !h.allow(t.opts.BreakerThreshold, t.opts.BreakerCooldown, t.opts.Now()) {
			return nil, failTransient(h, host, attempt-1, ErrCircuitOpen)
		}

		resp, err := t.attempt(ctx, req, h, attempt)

		if err == nil {
			if !RetryableStatus(resp.StatusCode) {
				// Success or a definitive 4xx — either way the host
				// answered; the breaker cares about reachability, not
				// application-level rejection.
				h.onSuccess(t.opts.BreakerThreshold)
				return resp, nil
			}
			if resp.Header.Get(NoRetryHeader) != "" {
				// A layer below answered locally and on purpose (e.g.
				// the politeness cap's 429); retrying would burn the
				// very budget it protects, and it says nothing about
				// the real host's health.
				h.transient.Add(1)
				return resp, nil
			}
			if tripped := h.onFailure(t.opts.BreakerThreshold, t.opts.BreakerCooldown, t.opts.Now()); tripped {
				h.trips.Add(1)
			}
			if attempt >= t.opts.MaxAttempts || !rewindable(req) {
				h.transient.Add(1)
				return resp, nil
			}
		} else {
			// The original request's context ending takes precedence
			// over any classification: the caller is gone.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, failTransient(h, host, attempt, ctxErr)
			}
			if isTimeout(err) {
				h.timeouts.Add(1)
			}
			if errors.Is(err, ErrBodyTooLarge) {
				// The host delivered fine; the body is just over our
				// cap. Not a breaker failure, and no retry can shrink it.
				h.onSuccess(t.opts.BreakerThreshold)
				return nil, failPermanent(h, host, attempt, err)
			}
			if tripped := h.onFailure(t.opts.BreakerThreshold, t.opts.BreakerCooldown, t.opts.Now()); tripped {
				h.trips.Add(1)
			}
			if attempt >= t.opts.MaxAttempts || !rewindable(req) {
				return nil, failTransient(h, host, attempt, err)
			}
		}

		if serr := t.opts.Sleep(ctx, t.backoffFor(attempt)); serr != nil {
			return nil, failTransient(h, host, attempt, serr)
		}
	}
}

// attempt runs one wire try: clone the request under a per-attempt
// timeout, rewind the body if this is a retry, and buffer the response
// body so truncation errors surface here.
func (t *Transport) attempt(ctx context.Context, req *http.Request, h *hostState, attempt int) (*http.Response, error) {
	h.attempts.Add(1)
	if attempt > 1 {
		h.retries.Add(1)
	}

	attemptReq := req
	cancel := func() {}
	if t.opts.PerAttemptTimeout > 0 {
		var actx context.Context
		actx, cancel = context.WithTimeout(ctx, t.opts.PerAttemptTimeout)
		attemptReq = req.Clone(actx)
	} else if attempt > 1 {
		attemptReq = req.Clone(ctx)
	}
	if attempt > 1 && req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			cancel()
			return nil, err
		}
		attemptReq.Body = body
	}

	resp, err := t.base.RoundTrip(attemptReq)
	if err == nil {
		resp.Body, err = bufferBody(resp.Body, t.opts.MaxBodyBytes)
		if err != nil {
			resp = nil
		}
	}
	// The body (if any) is fully in memory by now, so releasing the
	// attempt context cannot interrupt a read.
	cancel()
	return resp, err
}

// rewindable reports whether the request can be re-sent: bodyless
// requests always can; requests with a body need GetBody to replay it.
func rewindable(req *http.Request) bool {
	return req.Body == nil || req.GetBody != nil
}
