package httpx

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestServerHasTimeouts(t *testing.T) {
	srv := Server(":0", http.NewServeMux())
	if srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("default-ish server escaped: %+v", srv)
	}
}

// Serve must answer requests and return nil on a context-driven
// graceful shutdown.
func TestServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "pong")
	})
	// Grab a free port so parallel runs cannot collide.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, addr, mux) }()

	// Wait for the listener, then exercise it.
	var body string
	for i := 0; i < 100; i++ {
		resp, err := http.Get("http://" + addr + "/ping")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(b)
		break
	}
	if body != "pong" {
		t.Fatalf("no response from server: %q", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
}

// Both body writers must surface encoder failures as the same 500
// envelope and return the error — not swallow it behind a truncated
// 200.
func TestWriteJSONReportsEncodeErrors(t *testing.T) {
	writers := []struct {
		name  string
		write func(w http.ResponseWriter, status int, n float64) error
	}{
		{"WriteJSON", func(w http.ResponseWriter, status int, n float64) error {
			return WriteJSON(w, status, map[string]float64{"n": n})
		}},
		{"WriteJSONBody", func(w http.ResponseWriter, status int, n float64) error {
			return WriteJSONBody(w, status, func(b []byte) ([]byte, error) {
				b = append(b, `{"n":`...)
				b, err := AppendFloat(b, n)
				return append(b, "}\n"...), err
			})
		}},
	}
	var envelopes []string
	for _, wr := range writers {
		rec := httptest.NewRecorder()
		if err := wr.write(rec, http.StatusOK, math.NaN()); err == nil {
			t.Fatalf("%s returned nil for an unencodable value", wr.name)
		}
		if rec.Code != 500 {
			t.Errorf("%s: status %d, want 500", wr.name, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), `"code":"internal"`) ||
			!strings.Contains(rec.Body.String(), "encoding response: json: unsupported value: NaN") {
			t.Errorf("%s: body %q is not the error envelope", wr.name, rec.Body.String())
		}
		envelopes = append(envelopes, rec.Body.String())

		// The happy path: JSON body, JSON content type, chosen status, nil error.
		rec = httptest.NewRecorder()
		if err := wr.write(rec, http.StatusCreated, 1); err != nil {
			t.Fatalf("%s(valid) = %v", wr.name, err)
		}
		if rec.Code != http.StatusCreated || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d content-type %q", wr.name, rec.Code, rec.Header().Get("Content-Type"))
		}
		if rec.Body.String() != "{\"n\":1}\n" {
			t.Errorf("%s: body %q", wr.name, rec.Body.String())
		}
	}
	if envelopes[0] != envelopes[1] {
		t.Errorf("the writers' 500 envelopes differ:\n%s%s", envelopes[0], envelopes[1])
	}
}

// A buffer that grew past maxPooledBody is not pooled: every body
// starts from an empty buffer no larger than the limit.
func TestWriteJSONBodyDropsLargeBuffers(t *testing.T) {
	big := strings.Repeat("x", 2*maxPooledBody)
	for i := range 4 {
		err := WriteJSONBody(httptest.NewRecorder(), http.StatusOK, func(b []byte) ([]byte, error) {
			if len(b) != 0 || cap(b) > maxPooledBody {
				t.Fatalf("body %d starts from len %d cap %d", i, len(b), cap(b))
			}
			return AppendString(b, big), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// The envelope is exactly {"error":{"code":...,"message":...}}.
func TestWriteErrorEnvelopeShape(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusNotFound, CodeNotFound, "no such endpoint")
	if rec.Code != 404 {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	var env map[string]map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("bad envelope JSON: %v", err)
	}
	e := env["error"]
	if e["code"] != CodeNotFound || e["message"] != "no such endpoint" || len(env) != 1 || len(e) != 2 {
		t.Errorf("envelope = %v", env)
	}
}

func TestRequireMethod(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/search", nil)
	if RequireMethod(rec, req, http.MethodGet) {
		t.Fatal("POST passed a GET gate")
	}
	if rec.Code != 405 || rec.Header().Get("Allow") != "GET" {
		t.Errorf("status %d Allow %q", rec.Code, rec.Header().Get("Allow"))
	}
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/v1/search", nil)
	if !RequireMethod(rec, req, http.MethodGet) {
		t.Fatal("GET failed its own gate")
	}
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Errorf("passing gate wrote a response: %d %q", rec.Code, rec.Body.String())
	}
}
