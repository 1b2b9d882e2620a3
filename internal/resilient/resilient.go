// Package resilient is the fetch path's fault armor. The paper's
// surfacing system probed millions of real deep-web forms, where slow,
// flaky, rate-limiting and garbage-emitting sites are the norm — so
// every fetch the surfacer issues flows through this package's
// RoundTripper, which adds what a bare transport lacks:
//
//   - an error taxonomy (transient vs. permanent, typed wrapped errors
//     testable with errors.Is), so callers can tell "retry later and it
//     may heal" from "this will never work";
//   - bounded retries with capped exponential backoff + full jitter,
//     per-attempt timeouts carved from the request deadline, and
//     ctx-aware sleeps (a canceled caller never waits out a backoff);
//   - a per-host three-state circuit breaker (closed → open →
//     half-open), so a host that is down stops soaking up attempts and
//     is re-probed with a single trial request after a cooldown;
//   - atomic counters per host, so the surfacer can attribute every
//     attempt and fault to the site that issued it.
//
// The transport buffers each response body (bounded by MaxBodyBytes),
// which is what makes truncated bodies retryable: a mid-body read error
// surfaces here, inside the retry loop, instead of at some distant
// io.ReadAll. Responses with retryable statuses (408/429/5xx) are
// retried too; when attempts run out the last response is returned, not
// an error — error pages are real observations the layers above reason
// about.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Class partitions fetch failures by what a caller should do about
// them: transient failures may heal on retry (now, or on the next
// refresh pass); permanent ones will not.
type Class int

const (
	// ClassTransient marks failures worth retrying: timeouts, resets,
	// truncated bodies, 5xx/429 statuses, open circuits — and, by
	// default, anything unrecognized (retrying something permanent
	// wastes a little budget; not retrying something transient loses
	// corpus).
	ClassTransient Class = iota
	// ClassPermanent marks failures no retry can fix: non-retryable 4xx
	// statuses and oversized bodies.
	ClassPermanent
)

func (c Class) String() string {
	if c == ClassPermanent {
		return "permanent"
	}
	return "transient"
}

// Sentinels for errors.Is tests against the taxonomy.
var (
	// ErrTransient matches any *Error of ClassTransient.
	ErrTransient = errors.New("resilient: transient failure")
	// ErrPermanent matches any *Error of ClassPermanent.
	ErrPermanent = errors.New("resilient: permanent failure")
	// ErrCircuitOpen marks a request refused locally because the host's
	// circuit breaker is open (cooling down after consecutive failures).
	ErrCircuitOpen = errors.New("resilient: circuit open")
	// ErrBodyTooLarge marks a response body that exceeded MaxBodyBytes.
	ErrBodyTooLarge = errors.New("resilient: response body exceeds cap")
)

// NoRetryHeader marks a response that must not be retried regardless of
// its status — set by layers that answer requests locally on purpose
// (the surfacer's politeness cap serves 429s this way; backing off and
// re-asking would just burn the very budget the cap protects).
const NoRetryHeader = "X-Resilient-No-Retry"

// Error is a classified fetch failure: the taxonomy class, the host it
// happened against, how many attempts were spent, and the underlying
// cause. errors.Is(err, ErrTransient/ErrPermanent) tests the class;
// Unwrap exposes the cause (so context.Canceled etc. stay testable).
type Error struct {
	Class    Class
	Host     string
	Attempts int
	Err      error
}

func (e *Error) Error() string {
	return fmt.Sprintf("resilient: %s: %s failure after %d attempt(s): %v", e.Host, e.Class, e.Attempts, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Is matches the class sentinels, so the taxonomy is testable without
// reaching into the struct.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrTransient:
		return e.Class == ClassTransient
	case ErrPermanent:
		return e.Class == ClassPermanent
	}
	return false
}

// ClassOf classifies any error against the taxonomy. Explicitly typed
// errors answer for themselves; everything else defaults to transient —
// the safe default, because a transiently-classified site is left
// unrecorded and healed by the next refresh, while a permanent
// misclassification would freeze a recoverable failure.
func ClassOf(err error) Class {
	var re *Error
	if errors.As(err, &re) {
		return re.Class
	}
	if errors.Is(err, ErrBodyTooLarge) {
		return ClassPermanent
	}
	return ClassTransient
}

// RetryableStatus reports whether an HTTP status is worth retrying:
// rate limiting (429), request timeout (408) and server errors (5xx).
// Other 4xx are the server answering definitively — permanent.
func RetryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusRequestTimeout || code >= 500
}

// StatusError wraps a failing HTTP status as a classified error —
// the bridge for callers that treat a non-2xx page as a failure (the
// prober, the surfacer's homepage fetch).
func StatusError(host string, code int) error {
	class := ClassPermanent
	if RetryableStatus(code) {
		class = ClassTransient
	}
	return &Error{Class: class, Host: host, Attempts: 1, Err: fmt.Errorf("status %d", code)}
}

// isTimeout reports whether err is a timeout: a deadline-exceeded
// context or a net.Error that says so.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// sleepCtx is the default Sleep: a timer that a canceled context
// interrupts promptly, returning the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
