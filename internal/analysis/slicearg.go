package analysis

import (
	"go/ast"
	"go/types"
)

// SliceArg flags exported functions that retain caller-owned slice
// arguments past the call.
var SliceArg = &Analyzer{
	Name: "slicearg",
	Doc: `forbid retaining caller-owned slice arguments

A slice parameter belongs to the caller unless the API documents otherwise:
storing it into a struct field, package state, a container, or a channel
keeps a live alias after the call returns, so the caller's next reuse of its
buffer silently corrupts the callee (the retained-trace bug class the
broker's orderImportsInto scratch rework had to dodge by hand in PR 5).
Retention is flagged on exported functions when a slice parameter (or a
re-slice of one) is stored without a copy; append(dst, p...) copies and is
fine. Deliberate ownership transfers carry //nyx:retains on the function.

Only this check catches, for example, builder's Builder.Call storing its
data argument as op.Data without a copy.`,
	Run: runSliceArg,
}

func runSliceArg(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			params := sliceParamObjects(pass, fd)
			if len(params) == 0 {
				continue
			}
			checkRetention(pass, fd, params)
		}
	}
	return nil
}

func sliceParamObjects(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	params := make(map[types.Object]bool)
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				params[obj] = true
			}
		}
	}
	return params
}

func checkRetention(pass *Pass, fd *ast.FuncDecl, params map[types.Object]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures have their own lifetime; out of scope here
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) && i > 0 {
					break
				}
				var lhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i]
				} else {
					lhs = n.Lhs[0]
				}
				if !retainingDestination(pass, lhs) {
					continue
				}
				if p := retainedParam(pass, rhs, params); p != nil {
					reportRetention(pass, fd, n, p)
				}
			}
		case *ast.SendStmt:
			if p := retainedParam(pass, n.Value, params); p != nil {
				reportRetention(pass, fd, n, p)
			}
		}
		return true
	})
}

// retainingDestination reports whether storing into lhs outlives the call:
// a struct field, a map/slice element, a dereferenced pointer, or a
// package-level variable. Plain locals do not retain.
func retainingDestination(pass *Pass, lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel, ok := pass.TypesInfo.Selections[x]
		return ok && sel.Kind() == types.FieldVal
	case *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = pass.TypesInfo.Defs[x]
		}
		return obj != nil && isPackageLevelVar(pass, obj)
	}
	return false
}

// retainedParam reports which slice parameter (if any) the stored value
// aliases: the bare parameter, a re-slice of it, or an append whose base or
// bare element is the parameter. append(dst, p...) copies the elements and
// is not retention.
func retainedParam(pass *Pass, rhs ast.Expr, params map[types.Object]bool) types.Object {
	switch x := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil && params[obj] {
			return obj
		}
	case *ast.SliceExpr:
		return retainedParam(pass, x.X, params)
	case *ast.CallExpr:
		if !isBuiltinAppend(pass, x) || len(x.Args) == 0 {
			return nil
		}
		// append(p, ...) may write through p's backing array and aliases it
		// when capacity allows; append(s, p) retains p as an element.
		if p := retainedParam(pass, x.Args[0], params); p != nil {
			return p
		}
		if x.Ellipsis.IsValid() {
			return nil // append(dst, p...) copies
		}
		for _, arg := range x.Args[1:] {
			if p := retainedParam(pass, arg, params); p != nil {
				return p
			}
		}
	}
	return nil
}

func reportRetention(pass *Pass, fd *ast.FuncDecl, n ast.Node, p types.Object) {
	if pass.Allowed(n, "retains") || pass.Allowed(fd, "retains") {
		return
	}
	pass.Reportf(n.Pos(), "exported %s retains caller-owned slice %q past the call: copy it, or document ownership transfer with //nyx:retains", fd.Name.Name, p.Name())
}
