package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md from this run")

// ledgerPath is the reproduction ledger at the repository root.
var ledgerPath = filepath.Join("..", "..", "EXPERIMENTS.md")

// ledgerSeed seeds every experiment in the ledger.
const ledgerSeed = 7

// ledgerRuns is the ledger's run table: E1–E14 at paper scale, in
// order. Reports are worker-independent (parallel surfacing is
// bit-identical to sequential), so the ledger pins them byte for byte.
var ledgerRuns = []struct {
	name string
	run  func(ctx context.Context) (fmt.Stringer, error)
}{
	{"E1", func(context.Context) (fmt.Stringer, error) {
		cfg := DefaultE1()
		cfg.Seed = ledgerSeed
		return E1LongTail(cfg), nil
	}},
	{"E2", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E2SiteLoad(ctx, ledgerSeed, 2, 600, 200))
	}},
	{"E3", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E3Fortuitous(ctx, ledgerSeed, 1600))
	}},
	{"E4", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E4URLScaling(ctx, ledgerSeed, []int{50, 200, 800, 3200}))
	}},
	{"E5", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E5TypedInputs(ctx, ledgerSeed, 20000, 400))
	}},
	{"E6", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E6Probing(ctx, ledgerSeed, 1000, []int{20, 50, 100, 200, 400}))
	}},
	{"E7", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E7Ranges(ctx, ledgerSeed, 800))
	}},
	{"E8", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E8DBSelection(ctx, ledgerSeed, 1200))
	}},
	{"E9", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E9Indexability(ctx, ledgerSeed, 1600))
	}},
	{"E10", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E10Coverage(ctx, ledgerSeed, []int{100, 400, 1600}))
	}},
	{"E11", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E11Semantics(ctx, ledgerSeed, 2, 240))
	}},
	{"E12", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E12GetPost(ctx, ledgerSeed, 2, 320, 3))
	}},
	{"E13", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E13LostSemantics(ctx, ledgerSeed, 2000))
	}},
	{"E14", func(ctx context.Context) (fmt.Stringer, error) {
		return report(E14Extraction(ctx, ledgerSeed, 1200))
	}},
}

// report adapts a typed (report, error) pair to the run table.
func report[T fmt.Stringer](rep T, err error) (fmt.Stringer, error) { return rep, err }

const ledgerHeader = "# Reproduction ledger\n\n" +
	"Every quantitative claim of the paper this repository reproduces,\n" +
	"E1–E14, with the paper's figure next to the measured one. Each\n" +
	"experiment runs at paper scale with seed 7; the code is in\n" +
	"`internal/experiments`. Wall-clock timings are left out, so this file\n" +
	"changes only when a measured figure does.\n\n" +
	"`TestLedger` fails when the code and this file disagree. After an\n" +
	"intentional change, regenerate it and review the diff:\n\n" +
	"    go test ./internal/experiments -run TestLedger -update\n\n"

// TestLedger runs every experiment and compares the reports with the
// checked-in ledger; -update rewrites the ledger instead.
func TestLedger(t *testing.T) {
	var b strings.Builder
	b.WriteString(ledgerHeader + "```text\n")
	for _, r := range ledgerRuns {
		start := time.Now()
		rep, err := r.run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		b.WriteString(rep.String())
		t.Logf("%s in %v", r.name, time.Since(start).Round(time.Millisecond))
	}
	b.WriteString("```\n")
	got := b.String()

	if *update {
		if err := os.WriteFile(ledgerPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("missing ledger (run `go test ./internal/experiments -run TestLedger -update`): %v", err)
	}
	wantLines, gotLines := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(wantLines), len(gotLines)); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("EXPERIMENTS.md line %d drifted:\n  ledger: %q\n  run:    %q\n"+
				"regenerate with `go test ./internal/experiments -run TestLedger -update` if intended",
				i+1, w, g)
		}
	}
}
