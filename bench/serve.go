package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"deepweb/internal/api"
	"deepweb/internal/dist"
	"deepweb/internal/engine"
)

// server is the system under test as a /v1/search user reaches it: the
// api.Server over one engine, listening on a loopback port of this
// process.
type server struct {
	api  *api.Server
	http *http.Server
	base string
	done chan error
}

func startServer(e *engine.Engine) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := api.New(api.Options{Engine: func() *engine.Engine { return e }})
	s := &server{api: h, http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener and waits for Serve to return.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		s.http.Close()
	}
	<-s.done
}

// newClient returns the one http.Client all client goroutines share;
// each goroutine sends its next request only after the previous reply,
// so it settles on one keep-alive connection per goroutine.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}
}

// fetch sends one request. With keep false the body is drained and
// dropped, which is all a timed pass does with it.
func fetch(ctx context.Context, hc *http.Client, url string, keep bool) (status int, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, body, err
}

// sample is one completed operation of a replay.
type sample struct {
	pos   int64         // position in the replay; pos / n is its pass
	start time.Duration // since the replay began
	end   time.Duration
	ok    bool
}

// replay is a closed loop over whole passes: clients goroutines pull
// the next position from one shared cursor and call do(client,
// pos % n); once minDur has elapsed the pass then running is the last,
// so every replay performs the same operations a whole number of
// times. minDur 0 is exactly one pass. do reports whether the operation
// succeeded. A canceled ctx ends the replay at once.
func replay(ctx context.Context, n, clients int, minDur time.Duration, do func(client, idx int) bool) []sample {
	var (
		mu     sync.Mutex
		cursor int64
		limit  = int64(n) // end of the pass being handed out
	)
	t0 := time.Now()
	// next hands out positions in order, so a pass is handed out in
	// full before the one after it begins.
	next := func() (pos int64, start time.Duration, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		start = time.Since(t0)
		if ctx.Err() != nil {
			return 0, 0, false
		}
		if cursor == limit {
			if start >= minDur {
				return 0, 0, false
			}
			limit += int64(n)
		}
		cursor++
		return cursor - 1, start, true
	}
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				pos, start, ok := next()
				if !ok {
					return
				}
				ok = do(c, int(pos%int64(n)))
				perClient[c] = append(perClient[c], sample{pos: pos, start: start, end: time.Since(t0), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// serving summarizes the samples of a replay slice by slice. A slice
// is size consecutive positions of the replay, a whole fraction of a
// pass chosen per workload so that every slice holds the same mix of
// operations: its throughput and its latency percentiles are then
// repeated measurements of one quantity, a few hundred of them a run.
type serving struct {
	samples   int
	failed    int
	sliceQPS  []float64 // one per slice
	sliceP50  []float64 // ms
	sliceP95  []float64 // ms
	latencies []float64 // ms, every sample
}

// add folds one replay's samples in. A slice's wall runs from the last
// completion of the slice before it to its own, so the slices tile the
// replay without gaps. A replay is whole passes and a pass whole
// slices, so no slice is partial.
func (s *serving) add(samples []sample, size int) {
	if len(samples) == 0 {
		return
	}
	slices := (len(samples) + size - 1) / size
	ends := make([]time.Duration, slices)
	lat := make([][]float64, slices)
	for _, sm := range samples {
		k := int(sm.pos) / size
		ends[k] = max(ends[k], sm.end)
		ms := float64(sm.end-sm.start) / float64(time.Millisecond)
		lat[k] = append(lat[k], ms)
		s.latencies = append(s.latencies, ms)
		if !sm.ok {
			s.failed++
		}
	}
	s.samples += len(samples)
	prev := time.Duration(0)
	for k, end := range ends {
		s.sliceQPS = append(s.sliceQPS, float64(len(lat[k]))/(end-prev).Seconds())
		s.sliceP50 = append(s.sliceP50, dist.Percentile(lat[k], 0.50))
		s.sliceP95 = append(s.sliceP95, dist.Percentile(lat[k], 0.95))
		prev = end
	}
}

func (s *serving) String() string {
	return fmt.Sprintf("%d samples in %d slices, %d failed", s.samples, len(s.sliceQPS), s.failed)
}

// undisturbed is the decile of xs on the side of better: the value a
// tenth of the slices beat. This machine is a few cores of a shared
// host whose other tenants slow the program by tens of percent in
// bursts lasting from milliseconds to whole runs, and never speed it
// up; the median over slices follows those bursts, the best decile
// stays with the slices they spared. It is not the best slice, which
// would be one measurement's luck.
func undisturbed(xs []float64, better string) float64 {
	if better == "higher" {
		return dist.Percentile(xs, 0.9)
	}
	return dist.Percentile(xs, 0.1)
}
