// Package httpx is the serving counterpart of webx: the hardened
// http.Server wiring shared by every binary that listens — sane
// timeouts and context-based graceful shutdown — so no command ships
// Go's unbounded default server. It also owns the one JSON wire
// discipline every HTTP surface speaks: buffered JSON writes, the
// shared error envelope, and method enforcement.
//
// Bodies are written whole or not at all, by WriteJSONBody, into a
// pooled buffer. WriteJSON fills it by reflecting over any value with
// encoding/json; the cold endpoints use it. The hot one, /v1/search,
// appends its fixed-schema document itself with AppendString,
// AppendFloat and strconv: byte-identical to what encoding/json would
// write for the equivalent struct, with no allocation per field.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os/signal"
	"reflect"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unicode/utf8"
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

// WriteJSON encodes v with encoding/json through WriteJSONBody, so an
// encoding failure (an unmarshalable value such as NaN) still becomes a
// 500 envelope instead of a silently truncated 200, and reports the
// error to the caller. status is the success status (http.StatusOK for
// most endpoints).
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	return WriteJSONBody(w, status, func(b []byte) ([]byte, error) {
		buf := bytes.NewBuffer(b)
		err := json.NewEncoder(buf).Encode(v)
		return buf.Bytes(), err
	})
}

// maxPooledBody bounds the buffers WriteJSONBody returns to its pool: a
// rare deep page must not pin its buffer for every later request.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteJSONBody writes the one JSON document appendDoc appends to the
// empty buffer it is given, whole: the body is complete before the
// status goes out, so an appendDoc error (a non-finite float from
// AppendFloat) answers the 500 envelope instead of a truncated 200, and
// is returned. The buffer comes from a pool and goes back to it after
// the write, so appendDoc must not keep it.
func WriteJSONBody(w http.ResponseWriter, status int, appendDoc func(b []byte) ([]byte, error)) error {
	bp := bodyPool.Get().(*[]byte)
	b, err := appendDoc((*bp)[:0])
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, "encoding response: "+err.Error())
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, err = w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
	return err
}

// AppendString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on (json.NewEncoder's default): `"`, `\`,
// `<`, `>`, `&`, control bytes, U+2028 and U+2029 are escaped, and each
// byte of invalid UTF-8 becomes the six characters `\ufffd`.
func AppendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// htmlSafe marks the ASCII bytes AppendString copies unescaped:
// printable ASCII and DEL, except `"`, `\`, `<`, `>` and `&`.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or 'e' with an unpadded exponent when |f| < 1e-6 or
// |f| >= 1e21. NaN and ±Inf have no JSON form; they are refused with
// the error encoding/json returns for them.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-07 → e-7
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
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
