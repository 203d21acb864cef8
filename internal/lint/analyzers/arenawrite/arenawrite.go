// Package arenawrite enforces the arena copy-on-write contract: slices
// obtained from an arena.Matrix (Row, Data), from a corpus snapshot's
// Columns or Arena (the matrices and the position -> row index beside
// them), or from a corpus Entry's artifact fields are views into shared
// immutable storage. Writing through one corrupts every snapshot aliasing
// the same rows — silently, across goroutines, with no test failing until
// a scan reads the poisoned row. Only the arena package itself (whose
// Builder owns rows before publication) may write; everyone else gets
// flagged on element assignment, op-assignment, ++/--, and copy-into.
//
// The analyzer tracks views through local variables and re-slicings
// within a function (`row := m.Row(i); row[0] = x` is flagged), but not
// across function boundaries: passing a view to a function that writes
// through its parameter is the reviewers' (and the race detector's)
// problem, not this analyzer's.
package arenawrite

import (
	"go/ast"
	"go/types"
	"path"

	"uncertts/internal/lint/analysis"
)

// Analyzer flags writes through arena and corpus snapshot views.
var Analyzer = &analysis.Analyzer{
	Name: "arenawrite",
	Doc:  "flags writes through arena.Matrix.Row/Data, Snapshot.Columns/Arena and corpus entry views — snapshot storage is immutable",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if path.Base(pass.Pkg.Path()) == "arena" {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

type checker struct {
	pass    *analysis.Pass
	tainted map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	c := &checker{pass: pass, tainted: map[types.Object]bool{}}

	// Fixpoint taint: locals assigned from a view (or a slice/index of
	// one) are views themselves.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, rhs := range assign.Rhs {
				if !c.isView(rhs) {
					continue
				}
				id, ok := assign.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = c.pass.TypesInfo.Uses[id]
				}
				if obj != nil && !c.tainted[obj] {
					c.tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if kind := c.viewKind(idx.X); kind != "" {
						c.pass.Reportf(lhs.Pos(), "write through %s; snapshot storage is immutable (arena copy-on-write contract)", kind)
					}
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if kind := c.viewKind(idx.X); kind != "" {
					c.pass.Reportf(n.Pos(), "%s through %s; snapshot storage is immutable (arena copy-on-write contract)", n.Tok, kind)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
					if kind := c.viewKind(n.Args[0]); kind != "" {
						c.pass.Reportf(n.Pos(), "copy into %s; snapshot storage is immutable (arena copy-on-write contract)", kind)
					}
				}
			}
		}
		return true
	})
}

func (c *checker) isView(e ast.Expr) bool { return c.viewKind(e) != "" }

// viewKind classifies e as a snapshot view and returns a description for
// the diagnostic, or "" if e is not a view. It sees through parens,
// re-slicings, and element selection of tracked views.
func (c *checker) viewKind(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil && c.tainted[obj] {
			return "a local alias of a snapshot view"
		}
	case *ast.SliceExpr:
		return c.viewKind(e.X)
	case *ast.IndexExpr:
		return c.viewKind(e.X)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && isMatrixView(fn) {
				return "arena.Matrix." + fn.Name() + "()"
			}
		}
	case *ast.SelectorExpr:
		obj, ok := c.pass.TypesInfo.Uses[e.Sel].(*types.Var)
		if !ok || !obj.IsField() {
			return ""
		}
		if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
			return ""
		}
		if c.derivedFrom(e.X, "Entry") {
			return "corpus entry view ." + e.Sel.Name
		}
		if c.derivedFrom(e.X, "Columns") {
			return "corpus columns view ." + e.Sel.Name
		}
	}
	return ""
}

// isMatrixView reports whether fn is (arena.Matrix).Row or Data.
func isMatrixView(fn *types.Func) bool {
	if fn.Name() != "Row" && fn.Name() != "Data" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), "arena", "Matrix")
}

// derivedFrom reports whether the expression is (a selector chain rooted
// at) a value of the named corpus type: Entry, the carrier of per-series
// artifact views, or Columns, the arena capture, whose Rows index is as
// shared as the matrices it addresses.
func (c *checker) derivedFrom(e ast.Expr, name string) bool {
	e = ast.Unparen(e)
	if tv, ok := c.pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		if isNamed(tv.Type, "corpus", name) {
			return true
		}
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return c.derivedFrom(sel.X, name)
	}
	return false
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgBase.name, matching the package by import path base so analysistest
// packages stand in for the real ones.
func isNamed(t types.Type, pkgBase, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && path.Base(obj.Pkg().Path()) == pkgBase
}
