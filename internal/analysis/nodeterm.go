package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// virtualTimePkgs are the packages whose behaviour must be a pure function
// of (spec, seed, virtual time): everything on the fuzzing hot path, the
// campaign layer whose checkpoints must replay bit-for-bit, and the service
// layer whose event feeds must be resume-equivalent across backends.
var virtualTimePkgs = []string{
	"repro/internal/core",
	"repro/internal/campaign",
	"repro/internal/coverage",
	"repro/internal/snappool",
	"repro/internal/mem",
	"repro/internal/device",
	"repro/internal/vm",
	"repro/internal/netemu",
	"repro/internal/spec",
	"repro/internal/service",
}

// NoDeterm forbids wall-clock reads, global math/rand use, and map-iteration
// order escaping into outputs inside virtual-time packages.
var NoDeterm = &Analyzer{
	Name: "nodeterm",
	Doc: `forbid nondeterminism sources in virtual-time packages

Virtual-time packages must produce byte-identical outputs for identical
(spec, seed, virtual-time) inputs: campaign resume-equivalence and the
cross-PR coverage-column comparisons depend on it. This analyzer flags
time.Now/Since/Until, the global math/rand generator, and range-over-map
loops whose iteration order can escape (append to an outer slice that is
never sorted, writes to an encoder/printer, or an early exit). Calls into
non-gated module code that transitively reaches the wall clock or global
rand are flagged at the call site with the full chain. Annotate deliberate
telemetry sites with //nyx:wallclock, seeded-elsewhere rand with
//nyx:rand, and provably order-insensitive loops with //nyx:maporder.

Only this check catches, for example, service's Manager.Close collecting
the campaigns it stops by ranging over m.campaigns instead of calling
campaignsLocked.`,
	PkgPaths: virtualTimePkgs,
	Run:      runNoDeterm,
}

// globalRandFns are the math/rand package-level functions that consult the
// shared global generator. Constructors (New, NewSource, NewZipf) are
// excluded: a fuzzer-seeded *rand.Rand is the deterministic way to get
// randomness.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

func runNoDeterm(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkWallClock(pass, n)
				checkGlobalRand(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			}
			return true
		})
	}
	checkTransitiveNoDeterm(pass)
	return nil
}

// checkTransitiveNoDeterm flags calls from this virtual-time package into
// non-gated module code that transitively reads the wall clock or the
// global rand generator — the one-call-deep escape the intraprocedural
// checks cannot see. Callees in gated packages are skipped: their own pass
// reports the violation (direct or transitive) at the frame closest to the
// source, so each chain is reported exactly once.
func checkTransitiveNoDeterm(pass *Pass) {
	prog := pass.Prog
	kinds := []struct {
		kind      factKind
		directive string
		what      string
	}{
		{factWallclock, "wallclock", "reads the wall clock"},
		{factRand, "rand", "uses the global rand generator"},
	}
	for _, node := range prog.nodes {
		if node.Pkg.PkgPath != pass.PkgPath {
			continue
		}
		for _, site := range node.Calls {
			for _, k := range kinds {
				for _, callee := range site.Callees {
					if pass.Analyzer.AppliesTo(calleePkgPath(callee)) {
						continue
					}
					ff := prog.factsOf(callee)
					if ff == nil || !ff.has[k.kind] {
						continue
					}
					if !pass.Allowed(site.Call, k.directive) {
						pass.Reportf(site.Pos, "call from virtual-time package %s transitively %s: %s (annotate a reviewed site with //nyx:%s)",
							pass.PkgPath, k.what, prog.chain(callee, k.kind), k.directive)
					}
					break // one report per site per fact kind
				}
			}
		}
	}
}

func calleePkgPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// calleeFunc is calleeFuncInfo over the pass's type information.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	return calleeFuncInfo(pass.TypesInfo, call)
}

func checkWallClock(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
	default:
		return
	}
	if pass.Allowed(call, "wallclock") {
		return
	}
	pass.Reportf(call.Pos(), "time.%s in virtual-time package %s: use virtual time, or annotate a telemetry site with //nyx:wallclock", fn.Name(), pass.PkgPath)
}

func checkGlobalRand(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return
	}
	// Methods on *rand.Rand are fine: they are seeded by the caller.
	if fn.Signature().Recv() != nil || !globalRandFns[fn.Name()] {
		return
	}
	if pass.Allowed(call, "rand") {
		return
	}
	pass.Reportf(call.Pos(), "global rand.%s in virtual-time package %s: use a seeded *rand.Rand, or annotate with //nyx:rand", fn.Name(), pass.PkgPath)
}

// checkMapRange flags range-over-map loops whose iteration order can escape:
//   - appending to a slice declared outside the loop that is never passed to
//     a sort function later in the same function;
//   - writing/printing/encoding inside the loop body;
//   - early exit (break, or a return mentioning the iteration variables).
//
// Order-insensitive bodies — aggregation into sums, counters, sets, or other
// maps — are not flagged.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if pass.Allowed(rng, "maporder") {
		return
	}
	loopVars := rangeVarObjects(pass, rng)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				// s += ... on a string accumulates in iteration order;
				// numeric += is commutative and stays legal.
				if t := pass.TypesInfo.Types[n.Lhs[0]].Type; t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						if dest := rootIdentObject(pass, n.Lhs[0]); dest != nil && !withinNode(rng, dest) {
							pass.Reportf(n.Pos(), "map iteration order escapes: string concatenation into %q inside range over map (sort the keys first, or //nyx:maporder)", dest.Name())
						}
					}
				}
			}
			for _, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || len(call.Args) == 0 {
					continue
				}
				dest := rootIdentObject(pass, call.Args[0])
				if dest == nil || withinNode(rng, dest) {
					continue // appending to a loop-local slice
				}
				if sortedAfter(pass, file, rng, dest) {
					continue // canonical collect-then-sort pattern
				}
				pass.Reportf(n.Pos(), "map iteration order escapes: append to %q inside range over map without a later sort (//nyx:maporder to suppress)", dest.Name())
			}
		case *ast.CallExpr:
			if name, ok := orderSensitiveSink(pass, n); ok {
				pass.Reportf(n.Pos(), "map iteration order escapes: %s inside range over map (sort the keys first, or //nyx:maporder)", name)
			}
		case *ast.BranchStmt:
			if n.Tok.String() == "break" && n.Label == nil {
				pass.Reportf(n.Pos(), "map iteration order escapes: break inside range over map picks an arbitrary element (//nyx:maporder to suppress)")
			}
		case *ast.ReturnStmt:
			if returnMentions(pass, n, loopVars) {
				pass.Reportf(n.Pos(), "map iteration order escapes: return of iteration variable picks an arbitrary element (//nyx:maporder to suppress)")
			}
		case *ast.RangeStmt:
			// Nested loops are inspected on their own visit.
		}
		return true
	})
}

func rangeVarObjects(pass *Pass, rng *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rootIdentObject walks selector/index/slice chains down to the base
// identifier and returns its object.
func rootIdentObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// withinNode reports whether obj is declared inside node.
func withinNode(node ast.Node, obj types.Object) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// sortedAfter reports whether obj is passed to a sort/slices ordering
// function after the loop, anywhere later in the enclosing function.
func sortedAfter(pass *Pass, file *ast.File, rng *ast.RangeStmt, obj types.Object) bool {
	fn := enclosingFunc(file, rng.Pos())
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if rootIdentObject(pass, arg) == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var found ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				found = n
			}
		}
		return true
	})
	return found
}

// orderSensitiveSink reports whether the call writes, prints, or encodes —
// operations whose output depends on the order they are reached in.
func orderSensitiveSink(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", false
	}
	if pkg := fn.Pkg(); pkg != nil && fn.Signature().Recv() == nil {
		// Pure formatters (Sprintf and friends) do not escape order by
		// themselves; only actual output calls do.
		if pkg.Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
			return "fmt." + fn.Name(), true
		}
		return "", false
	}
	for _, prefix := range []string{"Write", "Encode", "Print", "Fprint", "Marshal"} {
		if strings.HasPrefix(fn.Name(), prefix) {
			return "call to " + fn.Name(), true
		}
	}
	return "", false
}

func returnMentions(pass *Pass, ret *ast.ReturnStmt, vars map[types.Object]bool) bool {
	if len(vars) == 0 {
		return false
	}
	found := false
	for _, res := range ret.Results {
		ast.Inspect(res, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && vars[pass.TypesInfo.Uses[id]] {
				found = true
			}
			return true
		})
	}
	return found
}
