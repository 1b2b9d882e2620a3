package resilient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeRT scripts the base transport: fn sees the 1-based call number.
type fakeRT struct {
	mu    sync.Mutex
	calls int
	fn    func(call int, req *http.Request) (*http.Response, error)
}

func (f *fakeRT) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	return f.fn(n, req)
}

func (f *fakeRT) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func respOf(status int, body string) *http.Response {
	return &http.Response{
		StatusCode: status,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

// instant returns options with no real sleeping and pinned randomness,
// so retry tests run in microseconds.
func instant(attempts int) Options {
	return Options{
		MaxAttempts: attempts,
		BaseDelay:   time.Nanosecond,
		MaxDelay:    time.Nanosecond,
		Rand:        func() float64 { return 0.5 },
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

func getReq(t *testing.T, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestErrorTaxonomy(t *testing.T) {
	cause := errors.New("boom")
	tr := &Error{Class: ClassTransient, Host: "a.example", Attempts: 3, Err: cause}
	pe := &Error{Class: ClassPermanent, Host: "a.example", Attempts: 1, Err: cause}

	if !errors.Is(tr, ErrTransient) || errors.Is(tr, ErrPermanent) {
		t.Fatalf("transient error misclassified by errors.Is: %v", tr)
	}
	if !errors.Is(pe, ErrPermanent) || errors.Is(pe, ErrTransient) {
		t.Fatalf("permanent error misclassified by errors.Is: %v", pe)
	}
	if !errors.Is(tr, cause) {
		t.Fatalf("wrapped cause not reachable via errors.Is")
	}
	if ClassOf(tr) != ClassTransient || ClassOf(pe) != ClassPermanent {
		t.Fatalf("ClassOf disagrees with the typed error's class")
	}
	if ClassOf(errors.New("mystery")) != ClassTransient {
		t.Fatalf("unknown errors must default to transient (the healable class)")
	}
	if ClassOf(fmt.Errorf("wrap: %w", ErrBodyTooLarge)) != ClassPermanent {
		t.Fatalf("body-too-large must classify permanent")
	}
	if !errors.Is(StatusError("a", 503), ErrTransient) {
		t.Fatalf("503 must classify transient")
	}
	if !errors.Is(StatusError("a", 404), ErrPermanent) {
		t.Fatalf("404 must classify permanent")
	}
}

func TestRetryOn5xxThenSuccess(t *testing.T) {
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		if call < 3 {
			return respOf(503, "down"), nil
		}
		return respOf(200, "ok"), nil
	}}
	tr := NewTransport(base, instant(3))
	resp, err := tr.RoundTrip(getReq(t, "http://a.example/"))
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200 after retries", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "ok" {
		t.Fatalf("body = %q, want replayable buffered body", b)
	}
	hs := tr.HostStats("a.example")
	if hs.Attempts != 3 || hs.Retries != 2 || hs.TransientFailures != 0 {
		t.Fatalf("host stats = %+v, want 3 attempts / 2 retries / 0 transient failures attributed to a.example", hs)
	}
}

func TestExhaustedRetriesReturnLastResponse(t *testing.T) {
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		return respOf(503, "still down"), nil
	}}
	tr := NewTransport(base, instant(3))
	resp, err := tr.RoundTrip(getReq(t, "http://a.example/"))
	if err != nil {
		t.Fatalf("exhausted retryable status must return the response, got err %v", err)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want the last 503", resp.StatusCode)
	}
	st := tr.HostStats("a.example")
	if st.Attempts != 3 || st.TransientFailures != 1 {
		t.Fatalf("stats = %+v, want 3 attempts and exactly 1 transient failure (logical fetch, not per attempt)", st)
	}
}

func TestNoRetryHeaderShortCircuits(t *testing.T) {
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		r := respOf(429, "cap reached")
		r.Header.Set(NoRetryHeader, "1")
		return r, nil
	}}
	opts := instant(5)
	opts.BreakerThreshold = 1
	opts.BreakerCooldown = time.Hour
	tr := NewTransport(base, opts)
	resp, err := tr.RoundTrip(getReq(t, "http://a.example/"))
	if err != nil || resp.StatusCode != 429 {
		t.Fatalf("resp=%v err=%v, want the 429 back unretried", resp, err)
	}
	if base.callCount() != 1 {
		t.Fatalf("base saw %d calls, want 1: NoRetryHeader responses must not be retried", base.callCount())
	}
	if hs := tr.HostStats("a.example"); hs.Breaker != "closed" || hs.BreakerTrips != 0 {
		t.Fatalf("breaker = %+v, want untouched by locally-answered 429s", hs)
	}
}

func TestPermanent4xxNotRetried(t *testing.T) {
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		return respOf(404, "nope"), nil
	}}
	tr := NewTransport(base, instant(5))
	resp, err := tr.RoundTrip(getReq(t, "http://a.example/"))
	if err != nil || resp.StatusCode != 404 {
		t.Fatalf("resp=%v err=%v, want the 404 back", resp, err)
	}
	if base.callCount() != 1 {
		t.Fatalf("base saw %d calls, want 1: definitive 4xx must not be retried", base.callCount())
	}
}

func TestPerAttemptTimeoutRetries(t *testing.T) {
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		if call == 1 {
			<-req.Context().Done()
			return nil, req.Context().Err()
		}
		return respOf(200, "ok"), nil
	}}
	opts := instant(3)
	opts.PerAttemptTimeout = 5 * time.Millisecond
	tr := NewTransport(base, opts)
	resp, err := tr.RoundTrip(getReq(t, "http://a.example/"))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("resp=%v err=%v, want a timed-out attempt to be retried to success", resp, err)
	}
	if st := tr.HostStats("a.example"); st.Timeouts != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 timeout and 1 retry", st)
	}
}

func TestBodyCapIsPermanent(t *testing.T) {
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		return respOf(200, strings.Repeat("x", 100)), nil
	}}
	opts := instant(5)
	opts.MaxBodyBytes = 10
	tr := NewTransport(base, opts)
	_, err := tr.RoundTrip(getReq(t, "http://a.example/"))
	if !errors.Is(err, ErrBodyTooLarge) || !errors.Is(err, ErrPermanent) {
		t.Fatalf("err = %v, want permanent ErrBodyTooLarge", err)
	}
	if base.callCount() != 1 {
		t.Fatalf("base saw %d calls, want 1: an oversized body cannot shrink on retry", base.callCount())
	}
	if st := tr.HostStats("a.example"); st.PermanentFailures != 1 {
		t.Fatalf("stats = %+v, want 1 permanent failure", st)
	}
}

// errReader yields some bytes then fails, like a connection dying
// mid-body.
type errReader struct{ n int }

func (e *errReader) Read(p []byte) (int, error) {
	if e.n > 0 {
		e.n--
		p[0] = 'x'
		return 1, nil
	}
	return 0, io.ErrUnexpectedEOF
}

func (e *errReader) Close() error { return nil }

func TestTruncatedBodyRetries(t *testing.T) {
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		if call == 1 {
			return &http.Response{StatusCode: 200, Header: http.Header{}, Body: &errReader{n: 3}}, nil
		}
		return respOf(200, "whole"), nil
	}}
	tr := NewTransport(base, instant(3))
	resp, err := tr.RoundTrip(getReq(t, "http://a.example/"))
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "whole" {
		t.Fatalf("body = %q: a truncated body must be retried inside the transport, not surface at io.ReadAll", b)
	}
}

func TestPostRetriesRewindBody(t *testing.T) {
	var seen []string
	var mu sync.Mutex
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		b, _ := io.ReadAll(req.Body)
		mu.Lock()
		seen = append(seen, string(b))
		mu.Unlock()
		if call == 1 {
			return respOf(503, "down"), nil
		}
		return respOf(200, "ok"), nil
	}}
	tr := NewTransport(base, instant(3))
	req, err := http.NewRequest(http.MethodPost, "http://a.example/search", strings.NewReader("q=ford"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	if len(seen) != 2 || seen[0] != "q=ford" || seen[1] != "q=ford" {
		t.Fatalf("bodies seen = %q, want the POST body replayed intact on retry", seen)
	}
}

func TestBreakerOpensRefusesAndRecovers(t *testing.T) {
	var failing = true
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		if failing {
			return nil, errors.New("connection refused")
		}
		return respOf(200, "ok"), nil
	}}
	now := time.Unix(1000, 0)
	opts := instant(1) // one attempt per fetch so failures map 1:1
	opts.BreakerThreshold = 3
	opts.BreakerCooldown = 10 * time.Second
	opts.Now = func() time.Time { return now }
	tr := NewTransport(base, opts)

	req := func() *http.Request { return getReq(t, "http://a.example/") }
	for i := 0; i < 3; i++ {
		if _, err := tr.RoundTrip(req()); err == nil {
			t.Fatalf("fetch %d should fail", i)
		}
	}
	if hs := tr.HostStats("a.example"); hs.Breaker != "open" || hs.BreakerTrips != 1 {
		t.Fatalf("after threshold failures breaker = %+v, want open with 1 trip", hs)
	}

	// While open, requests are refused locally without touching base.
	calls := base.callCount()
	_, err := tr.RoundTrip(req())
	if !errors.Is(err, ErrCircuitOpen) || !errors.Is(err, ErrTransient) {
		t.Fatalf("open-circuit err = %v, want transient ErrCircuitOpen", err)
	}
	if base.callCount() != calls {
		t.Fatalf("open circuit leaked a request to the base transport")
	}

	// Past the cooldown a single probe goes through; its success closes
	// the circuit.
	failing = false
	now = now.Add(11 * time.Second)
	if _, err := tr.RoundTrip(req()); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if hs := tr.HostStats("a.example"); hs.Breaker != "closed" {
		t.Fatalf("after successful probe breaker = %+v, want closed", hs)
	}
	if _, err := tr.RoundTrip(req()); err != nil {
		t.Fatalf("closed circuit: %v", err)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		return nil, errors.New("connection refused")
	}}
	now := time.Unix(1000, 0)
	opts := instant(1)
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = 10 * time.Second
	opts.Now = func() time.Time { return now }
	tr := NewTransport(base, opts)

	for i := 0; i < 2; i++ {
		tr.RoundTrip(getReq(t, "http://a.example/")) //nolint:errcheck // driving the breaker open
	}
	now = now.Add(11 * time.Second)
	if _, err := tr.RoundTrip(getReq(t, "http://a.example/")); err == nil {
		t.Fatalf("failing probe should error")
	}
	hs := tr.HostStats("a.example")
	if hs.Breaker != "open" || hs.BreakerTrips != 2 {
		t.Fatalf("after failed probe breaker = %+v, want re-opened with 2 trips", hs)
	}
}

// TestCancelInterruptsBackoff pins the satellite requirement: a
// canceled context interrupts the retry sleep promptly (bounded
// wall-clock) and surfaces as the wrapped ctx error, not a
// retry-exhausted error.
func TestCancelInterruptsBackoff(t *testing.T) {
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		return respOf(503, "down"), nil
	}}
	opts := Options{
		MaxAttempts: 5,
		BaseDelay:   30 * time.Second, // a sleep the test must never wait out
		MaxDelay:    30 * time.Second,
		Rand:        func() float64 { return 0.999 },
	}
	tr := NewTransport(base, opts)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://a.example/", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = tr.RoundTrip(req)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to interrupt the backoff sleep", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the wrapped ctx error, not a retry-exhausted error", err)
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want it classified in the taxonomy", err)
	}
	var re *Error
	if !errors.As(err, &re) || re.Host != "a.example" {
		t.Fatalf("err = %v, want a typed *Error carrying the host", err)
	}
}

func TestBackoffDeterministicWithInjectedRand(t *testing.T) {
	opts := Defaults()
	opts.Rand = func() float64 { return 1.0 } // upper edge: delay == ceiling
	tr := NewTransport(http.DefaultTransport, opts)
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	for i, w := range want {
		if got := tr.backoffFor(i + 1); got != w {
			t.Fatalf("backoffFor(%d) = %v, want %v", i+1, got, w)
		}
	}
	// And the cap holds far out.
	if got := tr.backoffFor(20); got != opts.MaxDelay {
		t.Fatalf("backoffFor(20) = %v, want MaxDelay %v", got, opts.MaxDelay)
	}
}

func TestOriginalDeadlinePreemptsAttempts(t *testing.T) {
	base := &fakeRT{fn: func(call int, req *http.Request) (*http.Response, error) {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}}
	opts := instant(5)
	opts.PerAttemptTimeout = time.Hour // attempt timeout far beyond the request's own deadline
	tr := NewTransport(base, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://a.example/", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.RoundTrip(req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the request's own deadline error", err)
	}
	if base.callCount() != 1 {
		t.Fatalf("base saw %d calls, want 1: a dead request must not be retried", base.callCount())
	}
}
