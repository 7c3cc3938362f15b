package analysis

import (
	"go/ast"
	"go/types"
)

// AliasRet flags exported functions that return a slice or map aliasing
// unexported struct or package state without a copy.
var AliasRet = &Analyzer{
	Name: "aliasret",
	Doc: `forbid exported returns that alias internal slice/map state

An exported function returning an internal slice or map hands the caller a
live window into state the package will keep mutating (the DirtyPages bug
class fixed in PR 4: a snapshot's dirty-page list was returned by reference
and changed under the caller's feet). The fix is an explicit copy (append,
slices.Clone, maps.Clone) or a documented //nyx:aliased zero-copy contract.

Only this check catches, for example, campaign's Campaign.CoverageLog
returning c.broker.covLog without slices.Clone.`,
	Run: runAliasRet,
}

func runAliasRet(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recv := receiverObject(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // a closure's returns are not the API boundary
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range ret.Results {
					checkAliasingResult(pass, fd, recv, ret, res)
				}
				return true
			})
		}
	}
	return nil
}

func receiverObject(pass *Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

// checkAliasingResult flags res when it is a slice/map-typed expression
// reaching internal state: a field chain rooted at the receiver containing
// an unexported field, or an unexported package-level variable.
func checkAliasingResult(pass *Pass, fd *ast.FuncDecl, recv types.Object, ret *ast.ReturnStmt, res ast.Expr) {
	tv, ok := pass.TypesInfo.Types[res]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
	default:
		return
	}

	root, unexportedField := chaseAliasChain(pass, res)
	if root == nil {
		return
	}
	var what string
	switch {
	case recv != nil && root == recv && unexportedField != "":
		what = "unexported field " + unexportedField
	case isPackageLevelVar(pass, root) && !root.Exported():
		what = "package-level state " + root.Name()
	default:
		return
	}
	if pass.Allowed(ret, "aliased") || pass.Allowed(fd, "aliased") {
		return
	}
	pass.Reportf(ret.Pos(), "exported %s returns %s aliasing %s: copy it (append/slices.Clone/maps.Clone) or document with //nyx:aliased", fd.Name.Name, tv.Type.Underlying().String(), what)
}

// chaseAliasChain walks selector/index/slice chains to the base identifier's
// object, recording the first unexported struct field traversed. It returns
// (nil, "") for expressions that allocate (calls, composite literals,
// conversions) and therefore cannot alias pre-existing state.
func chaseAliasChain(pass *Pass, e ast.Expr) (root types.Object, unexportedField string) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x], unexportedField
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if f := sel.Obj(); !f.Exported() && unexportedField == "" {
					unexportedField = f.Name()
				}
				e = x.X
				continue
			}
			// Qualified identifier (pkg.Var).
			return pass.TypesInfo.Uses[x.Sel], unexportedField
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, ""
		}
	}
}

func isPackageLevelVar(pass *Pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}
