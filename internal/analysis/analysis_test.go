package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

func TestSplitDirective(t *testing.T) {
	cases := []struct {
		in     string
		names  []string
		reason string
		ok     bool
	}{
		{"errcmp -- documented migration shim", []string{"errcmp"}, "documented migration shim", true},
		{"errcmp, ctxflow -- shared exemption", []string{"errcmp", "ctxflow"}, "shared exemption", true},
		{"ctxflow — em-dash separator", []string{"ctxflow"}, "em-dash separator", true},
		{"errcmp", nil, "", false},         // no separator
		{"errcmp --", nil, "", false},      // no reason
		{"-- reason only", nil, "", false}, // no names
		{"a,, b -- hole in list", nil, "", false},
	}
	for _, c := range cases {
		names, reason, ok := splitDirective(c.in)
		if ok != c.ok || reason != c.reason || !reflect.DeepEqual(names, c.names) {
			t.Errorf("splitDirective(%q) = %v, %q, %v; want %v, %q, %v",
				c.in, names, reason, ok, c.names, c.reason, c.ok)
		}
	}
}

func TestPkgIs(t *testing.T) {
	cases := []struct {
		path, name string
		want       bool
	}{
		{"deepweb/internal/engine", "engine", true},
		{"engine", "engine", true}, // testdata stand-in
		{"deepweb/internal/webgen", "engine", false},
		{"deepweb/internal/xengine", "engine", false}, // suffix must be a path element
		{"deepweb/internal/engine/sub", "engine", false},
	}
	for _, c := range cases {
		if got := PkgIs(c.path, c.name); got != c.want {
			t.Errorf("PkgIs(%q, %q) = %v, want %v", c.path, c.name, got, c.want)
		}
	}
}

// TestMalformedDirective checks that a directive without a reason is
// itself reported, attributed to the pseudo-analyzer "deepvet".
func TestMalformedDirective(t *testing.T) {
	src := `package p

func f() {
	//deepvet:allow errcmp
	_ = 1
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{file}, Types: types.NewPackage("p", "p"), Info: NewInfo()}
	diags := Run([]*Package{pkg}, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 malformed-directive report: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "deepvet" {
		t.Errorf("malformed directive attributed to %q, want %q", diags[0].Analyzer, "deepvet")
	}
}
