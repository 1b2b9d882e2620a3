// Package analysis is a minimal, dependency-free clone of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package and reports Diagnostics through a Pass.
//
// The real x/tools module is the obvious foundation for a project vet
// suite, but this repository builds offline with a zero-dependency
// go.mod, so the framework is reimplemented here on the standard
// library alone: packages are loaded with `go list -export` plus
// go/importer (see load.go), and the analyzers in the subpackages
// (clockinject, envelope, ctxflow, errcmp) consume the same (Fset,
// Files, TypesInfo) shape they would get from a real
// analysis.Pass, so they can migrate to x/tools mechanically if the
// dependency ever lands.
//
// Suppression: a diagnostic is dropped when the flagged line, or the
// comment line directly above it, carries
//
//	//deepvet:allow <name>[,<name>...] -- <reason>
//
// naming the analyzer. The reason is mandatory — an allow directive
// without one is itself reported — so every sanctioned exception to a
// project invariant documents why it is safe, in the code, where the
// next reader will look.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the short lowercase identifier used in diagnostics and
	// allow directives.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects pass's package and reports findings via pass.Report.
	Run func(pass *Pass)
}

// Package is one loaded, type-checked package: syntax plus types.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	*Package
	report func(Diagnostic)
}

// Diagnostic is one finding, positioned in the package's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Report records a finding at the given position.
func (p *Pass) Report(pos token.Pos, message string) {
	p.report(Diagnostic{Pos: pos, Message: message, Analyzer: p.Analyzer.Name})
}

// Reportf records a formatted finding at the given position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Run applies every analyzer to every package, applies allow
// directives, and returns the surviving diagnostics ordered by file
// position. Malformed directives (no analyzer list, or no reason) are
// reported as findings of the pseudo-analyzer "deepvet".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		allow, malformed := directives(pkg)
		out = append(out, malformed...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Package: pkg}
			pass.report = func(d Diagnostic) {
				if allow.suppresses(pkg.Fset, d.Pos, a.Name) {
					return
				}
				out = append(out, d)
			}
			a.Run(pass)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkgPosition(pkgs, out[i]), pkgPosition(pkgs, out[j])
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// Position resolves a diagnostic's position against the FileSet of the
// package it was found in.
func pkgPosition(pkgs []*Package, d Diagnostic) token.Position {
	for _, pkg := range pkgs {
		if f := pkg.Fset.File(d.Pos); f != nil {
			return f.Position(d.Pos)
		}
	}
	return token.Position{}
}

// allowSet maps file name → line → analyzer names sanctioned there.
type allowSet map[string]map[int]map[string]bool

// suppresses reports whether an allow directive covers the diagnostic:
// one on the same line, or on the line directly above it.
func (s allowSet) suppresses(fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	lines := s[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if names := lines[line]; names[name] || names["all"] {
			return true
		}
	}
	return false
}

const directivePrefix = "//deepvet:allow"

// directives collects every allow directive in the package, and a
// diagnostic for each malformed one.
func directives(pkg *Package) (allowSet, []Diagnostic) {
	set := allowSet{}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				names, reason, ok := splitDirective(rest)
				if !ok {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "deepvet",
						Message:  `malformed directive: want "//deepvet:allow <name>[,<name>...] -- <reason>"`,
					})
					continue
				}
				_ = reason
				p := pkg.Fset.Position(c.Pos())
				lines := set[p.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[p.Filename] = lines
				}
				if lines[p.Line] == nil {
					lines[p.Line] = map[string]bool{}
				}
				for _, n := range names {
					lines[p.Line][n] = true
				}
			}
		}
	}
	return set, bad
}

// splitDirective parses "<names> -- <reason>" (an em dash — also
// separates). Both halves must be non-empty.
func splitDirective(rest string) (names []string, reason string, ok bool) {
	for _, sep := range []string{"--", "—"} {
		i := strings.Index(rest, sep)
		if i < 0 {
			continue
		}
		nameField := strings.TrimSpace(rest[:i])
		reason = strings.TrimSpace(rest[i+len(sep):])
		if nameField == "" || reason == "" {
			return nil, "", false
		}
		for _, n := range strings.Split(nameField, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				return nil, "", false
			}
			names = append(names, n)
		}
		return names, reason, true
	}
	return nil, "", false
}
