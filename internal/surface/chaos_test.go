package surface

import (
	"context"
	"reflect"
	"testing"
	"time"

	"deepweb/internal/core"
	"deepweb/internal/resilient"
	"deepweb/internal/webgen"
)

// chaosOpts are the resilient defaults with the backoff delays shrunk
// to test scale — real jitter schedule, microsecond waits.
func chaosOpts() resilient.Options {
	o := resilient.Defaults()
	o.BaseDelay = 100 * time.Microsecond
	o.MaxDelay = time.Millisecond
	return o
}

// useStorm routes the surfacer's traffic through storm, as UseTransport
// does, but under opts instead of the resilient defaults.
func useStorm(s *Surfacer, storm *webgen.Chaos, opts resilient.Options) {
	s.base = storm
	s.rt = resilient.NewTransport(storm, opts)
	s.Fetch = newFetcher(s.rt)
}

// stormOver profiles every second host with a decaying flap — the
// first 4 requests fail, with the failure mode rotating through the
// whole retryable taxonomy (5xx, 429, timeout, reset, truncation) —
// and returns the armed Chaos transport plus the flapped hosts.
// FailFirst faults are count-bounded, so a retrying fetch stack plus
// refresh healing must eventually outlast them; probabilistic faults
// never drain, which is why they have no place in a convergence test.
// Garbling is also excluded: a garbled 200 is indistinguishable from
// content at the transport layer, so it cannot heal bit-identically.
func stormOver(web *webgen.Web, seed int64) (*webgen.Chaos, []string) {
	storm := webgen.NewChaos(web, seed)
	kinds := []webgen.FaultKind{
		webgen.Fault503, webgen.Fault429, webgen.FaultTimeout,
		webgen.FaultReset, webgen.FaultTruncate,
	}
	var flapped []string
	for i, site := range web.Sites() {
		if i%2 != 0 {
			continue
		}
		host := site.Spec.Host
		// FailFirst 4 stays under the breaker threshold (5), so the
		// breaker arms but never opens: the flap is exactly the shape
		// the retry/refresh stack is specified to ride out.
		storm.SetProfile(host, webgen.FaultProfile{FailFirst: 4, FailWith: kinds[(i/2)%len(kinds)]})
		flapped = append(flapped, host)
	}
	return storm, flapped
}

// The convergence property the whole resilience stack exists for: a
// surfacing pass under deterministic chaos (every retryable fault
// kind, injected as decaying per-host flaps), followed by at most
// three Refresh passes, converges on a corpus bit-identical to a
// fault-free run of the same world — same URL set, same score bits,
// same live doc count, same refresh signatures. Transiently failed
// and degraded sites leave no signature behind, which is exactly what
// makes the next Refresh re-drive them. Run with -race.
func TestChaosSurfaceConvergesToFaultFree(t *testing.T) {
	// Reference arm: the same world, no weather.
	ref, err := Build(refreshWorldCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Workers = 4
	if _, err := ref.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3}); err != nil {
		t.Fatalf("fault-free surface: %v", err)
	}

	// Chaos arm: identical world behind a fault-injecting transport.
	e, err := Build(refreshWorldCfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 4
	storm, flapped := stormOver(e.Web, 1234)
	useStorm(e, storm, chaosOpts())

	resp, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatalf("chaos surface aborted: %v", err)
	}
	if storm.TotalInjected() == 0 {
		t.Fatal("storm injected nothing; the test exercises nothing")
	}
	if !resp.Degraded {
		t.Fatalf("chaos surface reports Degraded=false with %d faults injected", storm.TotalInjected())
	}
	// Every flapped host must be accounted for — either it burned
	// retries on the way to OK/degraded, or it failed transiently.
	for _, host := range flapped {
		rep := resp.Sites[host]
		if rep.Status == SiteOK && rep.Retries == 0 {
			t.Errorf("flapped host %s reports a clean pass", host)
		}
		if rep.Status == SiteFailedPermanent {
			t.Errorf("flapped host %s classified permanent: %s", host, rep.Err)
		}
		if rep.Status != SiteOK {
			if _, ok := e.siteSignatures[host]; ok {
				t.Errorf("troubled host %s recorded a signature; refresh will never heal it", host)
			}
		}
	}
	var retries uint64
	for _, rep := range resp.Sites {
		retries += rep.Retries
	}
	if retries == 0 {
		t.Fatal("site reports show no retries under chaos")
	}

	// Self-healing: each Refresh re-drives the signature-less sites;
	// the flaps decay, so a bounded number of passes must converge.
	healed := false
	for pass := 1; pass <= 3; pass++ {
		st, err := e.Refresh(context.Background(), RefreshRequest{Config: core.DefaultConfig(), FollowNext: 3})
		if err != nil {
			t.Fatalf("healing refresh %d: %v", pass, err)
		}
		if !st.Degraded && st.SitesChanged == 0 {
			healed = true
			break
		}
	}
	if !healed {
		t.Fatal("corpus did not converge within 3 refreshes")
	}

	// Bit-identical equivalence: a refresh commits in the order the
	// fault-free pass did, so ids, scores and tie order all match.
	if !reflect.DeepEqual(e.siteSignatures, ref.siteSignatures) {
		t.Error("healed signatures differ from fault-free")
	}
	requireSameCorpus(t, "healed vs fault-free", e, ref)
	requireSameSearch(t, "healed vs fault-free", e, ref)
}

// With retries disabled the same storm must degrade, not abort: the
// pass completes with a nil error, the flapped sites are classified
// transient failures, and the healthy remainder commits normally.
func TestChaosWithoutRetriesDegradesGracefully(t *testing.T) {
	e, err := Build(refreshWorldCfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 4
	storm, flapped := stormOver(e.Web, 1234)
	opts := chaosOpts()
	opts.MaxAttempts = 1 // retries off
	useStorm(e, storm, opts)

	resp, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatalf("partial failure aborted the pass: %v", err)
	}
	if !resp.Degraded {
		t.Fatal("retry-less chaos surface not marked Degraded")
	}
	failed := 0
	for _, host := range flapped {
		rep := resp.Sites[host]
		if rep.Retries != 0 {
			t.Errorf("host %s retried %d times with MaxAttempts=1", host, rep.Retries)
		}
		if rep.Status == SiteFailedTransient {
			failed++
			if _, committed := e.Results[host]; committed {
				t.Errorf("failed host %s committed a result", host)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no flapped site failed; the storm did not bind")
	}
	// The unflapped half of the world must have surfaced normally.
	if len(e.Results) == 0 {
		t.Fatal("no healthy site committed around the failures")
	}
	for host, rep := range resp.Sites {
		if rep.Status == SiteOK && rep.Err != "" {
			t.Errorf("OK host %s carries error text %q", host, rep.Err)
		}
	}
}

// Garbled-but-delivered content is the fault retries cannot see: the
// transport succeeds, the payload is corrupt. The pipeline must take
// whatever it can parse and finish without a panic or an abort.
func TestChaosGarbleDegradesGracefully(t *testing.T) {
	e, err := Build(refreshWorldCfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 4
	storm := webgen.NewChaos(e.Web, 7)
	garbled := e.Web.Sites()[0].Spec.Host
	storm.SetProfile(garbled, webgen.FaultProfile{P: map[webgen.FaultKind]float64{webgen.FaultGarble: 1}})
	useStorm(e, storm, chaosOpts())

	resp, err := e.Surface(context.Background(), SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 3})
	if err != nil {
		t.Fatalf("garbled host aborted the pass: %v", err)
	}
	if storm.Injected(garbled) == 0 {
		t.Fatal("garbler injected nothing")
	}
	if _, ok := resp.Sites[garbled]; !ok {
		t.Fatalf("no report for garbled host %s", garbled)
	}
	// The rest of the world is untouched and must surface clean.
	clean := 0
	for host, rep := range resp.Sites {
		if host != garbled && rep.Status == SiteOK {
			clean++
		}
	}
	if clean == 0 {
		t.Fatal("no clean site surfaced around the garbled one")
	}
}
