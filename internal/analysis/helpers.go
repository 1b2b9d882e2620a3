package analysis

import (
	"go/ast"
	"go/types"
)

// Callee resolves a call expression's static callee, or nil for
// indirect calls (function values, conversions, builtins).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsFuncNamed reports whether fn is the function or method `name`
// declared in the project package PkgIs-matching pkgName (for methods,
// the receiver's package).
func IsFuncNamed(fn *types.Func, pkgName, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return PkgIs(fn.Pkg().Path(), pkgName)
}

// IsNamedType reports whether t (or the type it points to) is the
// named type `name` from the project package PkgIs-matching pkgName.
func IsNamedType(t types.Type, pkgName, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PkgIs(obj.Pkg().Path(), pkgName)
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	return IsNamedType(t, "context", "Context")
}

// IsResponseWriter reports whether t is net/http.ResponseWriter.
func IsResponseWriter(t types.Type) bool {
	return IsNamedType(t, "net/http", "ResponseWriter")
}

// IsErrorType reports whether t implements the error interface (i.e.
// a value of type t can be passed where an error is expected).
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

// HasLeadingContext reports whether the signature's first parameter is
// a context.Context.
func HasLeadingContext(sig *types.Signature) bool {
	return sig.Params().Len() > 0 && IsContextType(sig.Params().At(0).Type())
}

// FuncDecls visits every function declaration in the package that has
// a body.
func FuncDecls(files []*ast.File, fn func(decl *ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
