// Package httpx is the serving counterpart of webx: the hardened
// http.Server wiring shared by every binary that listens — sane
// timeouts and context-based graceful shutdown — so no command ships
// Go's unbounded default server. It also owns the one JSON wire
// discipline every HTTP surface speaks: buffered JSON writes, the
// shared error envelope, and method enforcement.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"
)

// Server returns an http.Server with production timeouts.
func Server(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadTimeout:       5 * time.Second,
		ReadHeaderTimeout: 2 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// Serve runs a hardened server until SIGINT/SIGTERM (or ctx ends), then
// drains in-flight requests before returning. It returns nil on a clean
// shutdown.
func Serve(ctx context.Context, addr string, h http.Handler) error {
	srv := Server(addr, h)
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s", addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("shutting down…")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// ErrorBody is the one JSON error shape every endpoint returns,
// wrapped as {"error": {"code": ..., "message": ...}} so clients can
// switch on a stable machine code and log the human message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Stable error codes of the shared envelope.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal"
)

// WriteJSON encodes v into a buffer first, so an encoding failure (an
// unmarshalable value such as NaN) can still become a 500 envelope
// instead of a silently truncated 200, and reports the error to the
// caller. status is the success status (http.StatusOK for most
// endpoints).
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, "encoding response: "+err.Error())
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteError writes the shared JSON error envelope with the given
// status, machine code and human message.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	var buf bytes.Buffer
	// The envelope contains only strings; this encode cannot fail.
	json.NewEncoder(&buf).Encode(errorEnvelope{Error: ErrorBody{Code: code, Message: message}})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// RequireMethod enforces the endpoint's verb: a mismatch answers 405
// with an Allow header and the shared envelope, and returns false so
// the handler can bail with a bare `if !RequireMethod(...) { return }`.
// A GET gate also admits HEAD (load balancers probe liveness with it;
// the net/http server discards the body itself), matching HTTP's
// GET-without-body semantics.
func RequireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method || (method == http.MethodGet && r.Method == http.MethodHead) {
		return true
	}
	w.Header().Set("Allow", method)
	WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
		fmt.Sprintf("%s requires %s, got %s", r.URL.Path, method, r.Method))
	return false
}
