// Command deepvet is the project's domain-specific vet tool: a
// multichecker mounting the four invariant analyzers from
// internal/analysis over any package pattern, exiting non-zero when
// anything is flagged. CI runs it as a hard lint gate (`make deepvet`,
// folded into `make lint`); run it locally the same way:
//
//	go run ./cmd/deepvet ./...
//	go run ./cmd/deepvet -run errcmp,ctxflow ./internal/...
//
// The analyzers (see each package's doc for the invariant and its
// provenance):
//
//	clockinject — internal/resilient and internal/webgen touch time
//	              and randomness only through injected hooks or seeded
//	              generators, keeping chaos and backoff deterministic.
//	envelope    — /v1 handlers (internal/api, internal/semserv) write
//	              through httpx.WriteJSON/WriteJSONBody/WriteError
//	              only: one error dialect on the wire.
//	ctxflow     — exported I/O paths take a leading context.Context
//	              and never store one in a struct.
//	errcmp      — sentinel errors are matched with errors.Is and
//	              wrapped with %w, never == or %v.
//
// The stock x/tools passes (nilness, unusedwrite) this suite would
// normally also mount require the golang.org/x/tools dependency; this
// repository builds offline with a zero-dependency go.mod, so their
// ground stays covered by staticcheck in the same lint job (SA5011,
// SA4006 et al.) until the dependency lands.
//
// Sanctioned exceptions are written in the code, next to what they
// exempt, with a mandatory reason:
//
//	//deepvet:allow <name>[,<name>...] -- <reason>
//
// on the flagged line or the line above it. A malformed directive is
// itself a diagnostic.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"deepweb/internal/analysis"
	"deepweb/internal/analysis/clockinject"
	"deepweb/internal/analysis/ctxflow"
	"deepweb/internal/analysis/envelope"
	"deepweb/internal/analysis/errcmp"
)

// All is the mounted suite, in the order findings are attributed.
var All = []*analysis.Analyzer{
	clockinject.Analyzer,
	envelope.Analyzer,
	ctxflow.Analyzer,
	errcmp.Analyzer,
}

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the mounted analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: deepvet [-run name,...] package...\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "deepvet checks the project's correctness contracts; see the\npackage docs under internal/analysis for each invariant.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepvet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepvet:", err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Printf("%s: %s (%s)\n", position(pkgs, d), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "deepvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func position(pkgs []*analysis.Package, d analysis.Diagnostic) string {
	for _, pkg := range pkgs {
		if f := pkg.Fset.File(d.Pos); f != nil {
			return f.Position(d.Pos).String()
		}
	}
	return "-"
}

func selectAnalyzers(runList string) ([]*analysis.Analyzer, error) {
	if runList == "" {
		return All, nil
	}
	byName := map[string]*analysis.Analyzer{}
	var names []string
	for _, a := range All {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(runList, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
