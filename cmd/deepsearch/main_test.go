package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// crawlSide are the packages of the offline pass: the virtual web and
// its data, the fetch stack, form analysis and probing, coverage
// scoring, the bulk generator and the surfacing pipeline. The server
// serves snapshots and needs none of them.
var crawlSide = []string{
	"webgen", "datagen", "reldb", "resilient", "core", "form", "coverage", "bulkgen", "surface",
}

// goList runs `go list` with args and returns its output's lines.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go list %v: %v\n%s", args, err, out)
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n")
}

// TestServerLinksNoCrawler pins the boundary between the searcher and
// the surfacer: the deepsearch binary's dependencies, as `go list -deps`
// resolves them, include no crawl-side package, and the engine and the
// query layer do not import one, nor the fetcher, themselves. It pins
// the engine's other edge too: the engine is only the searcher, and
// the §6 store, with the tables it aggregates, is semserv's.
func TestServerLinksNoCrawler(t *testing.T) {
	linked := map[string]bool{}
	for _, d := range goList(t, "-deps", ".") {
		linked[d] = true
	}
	if !linked["deepweb/internal/engine"] {
		t.Fatalf("deepsearch's dependencies do not include the engine; the listing is wrong: %v", linked)
	}
	for _, p := range crawlSide {
		if linked["deepweb/internal/"+p] {
			t.Errorf("deepsearch links deepweb/internal/%s, a crawl-side package", p)
		}
	}
	forbidden := map[string][]string{
		"deepweb/internal/engine": slices.Concat(crawlSide, []string{"webx", "semserv", "webtables"}),
		"deepweb/internal/query":  slices.Concat(crawlSide, []string{"webx"}),
	}
	for _, line := range goList(t, "-f", "{{.ImportPath}}: {{join .Imports \" \"}}", "deepweb/internal/engine", "deepweb/internal/query") {
		pkg, imports, _ := strings.Cut(line, ":")
		for _, imp := range strings.Fields(imports) {
			for _, p := range forbidden[pkg] {
				if imp == "deepweb/internal/"+p {
					t.Errorf("%s imports %s", pkg, imp)
				}
			}
		}
	}
}
