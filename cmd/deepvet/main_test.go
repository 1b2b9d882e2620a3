package main

import (
	"strings"
	"testing"

	"deepweb/internal/analysis"
)

// TestSelectAnalyzers pins the -run flag's behavior: known names
// select, unknown names error with a message naming every mounted
// analyzer.
func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) != len(All) {
		t.Fatalf("empty -run: got %d analyzers, err=%v; want all %d", len(all), err, len(All))
	}
	two, err := selectAnalyzers("errcmp,ctxflow")
	if err != nil || len(two) != 2 {
		t.Fatalf("-run errcmp,ctxflow: got %d analyzers, err=%v", len(two), err)
	}
	_, err = selectAnalyzers("nosuch")
	if err == nil {
		t.Fatal("-run nosuch: want an error naming the unknown analyzer")
	}
	for _, a := range All {
		if !strings.Contains(err.Error(), a.Name) {
			t.Errorf("-run nosuch: error %q does not name mounted analyzer %s", err, a.Name)
		}
	}
}

// TestRepoIsClean is the gate's own regression test: the full suite
// must run clean over the entire repository. A failure here means a
// new in-tree violation (fix it, or carry a reasoned //deepvet:allow)
// — exactly what CI's deepvet step would report.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages; pattern or loader regression")
	}
	for _, d := range analysis.Run(pkgs, All) {
		t.Errorf("%s: %s (%s)", position(pkgs, d), d.Message, d.Analyzer)
	}
}
