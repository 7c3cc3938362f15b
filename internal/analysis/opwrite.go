package analysis

import (
	"go/ast"
	"go/types"
)

// OpWrite flags writes through the Args or Data array of a spec.Op.
var OpWrite = &Analyzer{
	Name: "opwrite",
	Doc: `forbid writing through a spec.Op's Args or Data array

Inputs share ops: Input.Clone copies op headers only, a child keeps every
payload its mutation did not replace, and a campaign broker hands one queued
input to every worker. That is safe only while nobody writes through
op.Args or op.Data after the op is built, so an element assignment
(op.Data[i] = b, op.Args[j]++), a copy into one (copy(op.Data[i:], tok)) and
an append onto a reslice of one (append(op.Data[:i], tail...), which
overwrites op.Data[i:] in place when capacity allows) are reported, also
through a local variable that was assigned the field or a reslice of it.
Build the new slice in a variable of its own and assign it (op.Data = fresh):
replacing the slice header of an op the function owns is always allowed.

It catches, for example, spec's havocDataFrom flipping its bit in the
parent's payload (data = old instead of slices.Clone(old)) at the line that
writes. The campaign tests catch that mutation too, as a diverged recording
or a corrupted publication, without naming the line.`,
	Run: runOpWrite,
}

// specPkgPath is the package whose Op type carries the shared arrays.
const specPkgPath = "repro/internal/spec"

func runOpWrite(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			views := opArrayViews(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						reportOpElemWrite(pass, views, lhs)
					}
				case *ast.IncDecStmt:
					reportOpElemWrite(pass, views, n.X)
				case *ast.CallExpr:
					id, ok := ast.Unparen(n.Fun).(*ast.Ident)
					if !ok || len(n.Args) == 0 {
						break
					}
					b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
					if !ok {
						break
					}
					dst := ast.Unparen(n.Args[0])
					_, resliced := dst.(*ast.SliceExpr)
					if field := opArrayField(pass, views, dst); field != "" &&
						(b.Name() == "copy" || b.Name() == "append" && resliced) {
						pass.Reportf(n.Pos(), "%s writes into a spec.Op's %s array, which other inputs may share: build a new slice and assign it", b.Name(), field)
					}
				}
				return true
			})
		}
	}
	return nil
}

func reportOpElemWrite(pass *Pass, views map[types.Object]string, lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if field := opArrayField(pass, views, ix.X); field != "" {
		pass.Reportf(lhs.Pos(), "element write into a spec.Op's %s array, which other inputs may share: build a new slice and assign it", field)
	}
}

// opArrayField names the spec.Op field ("Args" or "Data") whose backing
// array e reaches — the field itself, a reslice of it, or a variable in
// views — or "" when e reaches neither.
func opArrayField(pass *Pass, views map[types.Object]string, e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
			continue
		case *ast.Ident:
			return views[pass.TypesInfo.Uses[x]]
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[x]
			if !ok || sel.Kind() != types.FieldVal || (x.Sel.Name != "Args" && x.Sel.Name != "Data") {
				return ""
			}
			recv := sel.Recv()
			if p, ok := recv.Underlying().(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Name() != "Op" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != specPkgPath {
				return ""
			}
			return x.Sel.Name
		}
		return ""
	}
}

// opArrayViews finds the variables that somewhere in body are assigned a
// spec.Op's Args or Data (or a reslice, or another such variable), mapped to
// the field's name. Flow-insensitive: a variable that is ever a view of an
// op's array counts as one everywhere, so code that rewrites an op keeps the
// array it reads and the array it writes in different variables.
func opArrayViews(pass *Pass, body *ast.BlockStmt) map[types.Object]string {
	views := make(map[types.Object]string)
	bind := func(name *ast.Ident, val ast.Expr) bool {
		obj := pass.TypesInfo.Defs[name]
		if obj == nil {
			obj = pass.TypesInfo.Uses[name]
		}
		field := opArrayField(pass, views, val)
		if obj == nil || field == "" || views[obj] != "" {
			return false
		}
		views[obj] = field
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					break
				}
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && bind(id, n.Rhs[i]) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					break
				}
				for i, id := range n.Names {
					if bind(id, n.Values[i]) {
						changed = true
					}
				}
			}
			return true
		})
	}
	return views
}
