// Package ctxpoll guards the cancellation contract of the kernel
// packages (internal/distance, internal/munich, internal/proud,
// internal/parallel): a long-running kernel that accepts a cancellation
// handle — a context.Context or the lighter `done <-chan struct{}` the
// kernels thread through their inner loops — must actually observe it,
// and code outside those packages must not call a kernel's
// non-cancellable spelling when a Cancel/Ctx variant exists.
//
// Two checks:
//
//  1. Definitions: an exported function in a kernel package that takes a
//     cancellation parameter and contains loops, none of which reference
//     that parameter (no select on Done, no Err() poll, no delegation
//     passing it on), is an uncancellable kernel wearing a cancellable
//     signature.
//
//  2. Call sites: a call from outside the defining package to a kernel
//     function that has no cancellation parameter, when a sibling named
//     <Func>Cancel or <Func>Ctx exists, abandons cancellation at the
//     boundary where it matters most. Call sites with genuinely no
//     context available annotate with //lint:allow ctxpoll <reason>.
package ctxpoll

import (
	"go/ast"
	"go/types"
	"path"
	"strings"

	"uncertts/internal/lint/analysis"
)

// Analyzer enforces the kernel cancellation contract.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "flags kernels that take a ctx/done handle but never poll it in a loop, and calls bypassing a Cancel/Ctx kernel variant",
	Run:  run,
}

// kernelPackages matches by import path base so the analyzer applies both
// to the real uncertts/internal/* packages and to analysistest packages
// named after them.
var kernelPackages = map[string]bool{
	"distance": true,
	"munich":   true,
	"proud":    true,
	"parallel": true,
}

func isKernelPkg(p *types.Package) bool {
	return p != nil && kernelPackages[path.Base(p.Path())]
}

func run(pass *analysis.Pass) (interface{}, error) {
	if isKernelPkg(pass.Pkg) {
		checkDefinitions(pass)
	}
	checkCallSites(pass)
	return nil, nil
}

// cancellationParams returns the objects of every context.Context or
// <-chan struct{} parameter of the function.
func cancellationParams(pass *analysis.Pass, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && isCancellationType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

func isCancellationType(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || ch.Dir() == types.SendOnly {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// checkDefinitions flags exported kernel functions whose loops can never
// observe their cancellation parameter.
func checkDefinitions(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			params := cancellationParams(pass, fd)
			if len(params) == 0 {
				continue
			}
			// Locals derived from the handle count as handles too: the
			// idiom is done := ctx.Done() hoisted above the loop.
			params = taintDerived(pass, fd.Body, params)
			loops := 0
			polled := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch n := n.(type) {
				case *ast.ForStmt:
					body = n.Body
				case *ast.RangeStmt:
					body = n.Body
				default:
					return true
				}
				loops++
				if referencesAny(pass, body, params) {
					polled = true
				}
				return true
			})
			if loops > 0 && !polled {
				pass.Reportf(fd.Name.Pos(),
					"%s accepts a cancellation handle but no loop ever polls or forwards it; a long scan through here cannot be cancelled", fd.Name.Name)
			}
		}
	}
}

// taintDerived grows the handle set with every local variable assigned
// from an expression that mentions a handle (done := ctx.Done(), aliases
// of aliases), iterating to a fixpoint.
func taintDerived(pass *analysis.Pass, body *ast.BlockStmt, objs []types.Object) []types.Object {
	in := func(obj types.Object) bool {
		for _, o := range objs {
			if o == obj {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			tainted := false
			for _, rhs := range assign.Rhs {
				if referencesAny(pass, rhs, objs) {
					tainted = true
				}
			}
			if !tainted {
				return true
			}
			for _, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil && !in(obj) {
					objs = append(objs, obj)
					changed = true
				}
			}
			return true
		})
	}
	return objs
}

// referencesAny reports whether any identifier inside n resolves to one
// of the given objects.
func referencesAny(pass *analysis.Pass, n ast.Node, objs []types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		use := pass.TypesInfo.Uses[id]
		for _, obj := range objs {
			if use == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkCallSites flags calls to kernel functions that bypass an existing
// Cancel/Ctx variant.
func checkCallSites(pass *analysis.Pass) {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			if !isKernelPkg(fn.Pkg()) || fn.Pkg() == pass.Pkg || !fn.Exported() {
				return true
			}
			if hasCancellationParam(fn) {
				return true
			}
			variant := cancellableVariant(fn)
			if variant == "" {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to %s.%s cannot be cancelled; use %s (or annotate why no context is available here)",
				path.Base(fn.Pkg().Path()), fn.Name(), variant)
			return true
		})
	}
}

func hasCancellationParam(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isCancellationType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// cancellableVariant returns the name of an exported sibling function
// named <fn>Cancel or <fn>Ctx that takes a cancellation parameter, or "".
func cancellableVariant(fn *types.Func) string {
	scope := fn.Pkg().Scope()
	for _, suffix := range []string{"Cancel", "Ctx"} {
		obj := scope.Lookup(fn.Name() + suffix)
		sibling, ok := obj.(*types.Func)
		if ok && sibling.Exported() && hasCancellationParam(sibling) {
			return sibling.Name()
		}
	}
	return ""
}
