// Package envelope keeps /v1 speaking exactly one error dialect.
//
// The versioned HTTP layer (internal/api, internal/semserv) promises
// every response body is either the endpoint's JSON document or the
// httpx error envelope {"error":{"code","message"}} — the golden
// contract tests and every client depend on it. One handler calling
// http.Error, printing straight to the ResponseWriter, or encoding
// ad hoc JSON quietly forks the wire format. envelope flags, inside
// those two packages:
//
//   - http.Error(w, ...)                     → httpx.WriteError
//   - fmt.Fprint*/io.WriteString to a ResponseWriter → httpx.WriteJSON/WriteJSONBody/WriteError
//   - json.NewEncoder(w) on a ResponseWriter → httpx.WriteJSON or WriteJSONBody
//     (which buffer, so a mid-encode failure cannot emit half a body)
//   - w.Write / w.WriteHeader                → the httpx helpers
//
// The helpers write through w themselves, in httpx, outside this
// analyzer's scope: the hot /v1/search page goes through
// httpx.WriteJSONBody, which appends the document into a pooled buffer
// and writes it whole, so a handler never needs a raw w.Write.
//
// Header manipulation (w.Header().Set(...)) stays legal: headers like
// X-Cache are part of the contract, the body discipline is what the
// envelope protects.
package envelope

import (
	"go/ast"

	"deepweb/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "envelope",
	Doc:  "/v1 handlers must write responses through httpx.WriteJSON/WriteJSONBody/WriteError",
	Run:  run,
}

// scope lists the handler packages held to the envelope contract.
var scope = []string{"api", "semserv"}

func run(pass *analysis.Pass) {
	inScope := false
	for _, name := range scope {
		if analysis.PkgIs(pass.Path, name) {
			inScope = true
		}
	}
	if !inScope {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCall(pass, call)
			return true
		})
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil {
		return
	}
	switch {
	case analysis.IsFuncNamed(fn, "net/http", "Error"):
		pass.Reportf(call.Pos(),
			"http.Error writes a text/plain body, not the /v1 JSON envelope; use httpx.WriteError")

	case analysis.IsFuncNamed(fn, "fmt", "Fprint"),
		analysis.IsFuncNamed(fn, "fmt", "Fprintf"),
		analysis.IsFuncNamed(fn, "fmt", "Fprintln"),
		analysis.IsFuncNamed(fn, "io", "WriteString"):
		if len(call.Args) > 0 && isRW(pass, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"%s.%s writes an unenveloped body to the ResponseWriter; use httpx.WriteJSON, httpx.WriteJSONBody or httpx.WriteError",
				fn.Pkg().Name(), fn.Name())
		}

	case analysis.IsFuncNamed(fn, "encoding/json", "NewEncoder"):
		if len(call.Args) > 0 && isRW(pass, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"json.NewEncoder on a ResponseWriter streams unbuffered (a mid-encode error truncates the body mid-status); use httpx.WriteJSON or httpx.WriteJSONBody")
		}

	case fn.Name() == "Write" || fn.Name() == "WriteHeader":
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isRW(pass, sel.X) {
			pass.Reportf(call.Pos(),
				"direct ResponseWriter.%s bypasses the envelope and status discipline; use httpx.WriteJSON, httpx.WriteJSONBody or httpx.WriteError", fn.Name())
		}
	}
}

func isRW(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && analysis.IsResponseWriter(tv.Type)
}
