// Package experiments reproduces every quantitative claim of the paper
// as a runnable experiment, E1–E14. Each experiment returns a typed
// report whose String() prints the paper's figure next to the measured
// one; TestLedger runs them all at paper scale and pins the output in
// the repository's EXPERIMENTS.md.
//
// Orchestration — world building, surfacing, ingestion — lives in
// internal/surface; this package only measures.
package experiments

import (
	"fmt"
	"net/url"
	"strings"
)

// parseQueryOf extracts the query parameters of a surfaced URL.
func parseQueryOf(raw string) url.Values {
	u, err := url.Parse(raw)
	if err != nil {
		return nil
	}
	return u.Query()
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func line(b *strings.Builder, format string, args ...any) {
	fmt.Fprintf(b, format+"\n", args...)
}
