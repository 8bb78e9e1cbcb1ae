package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimDeterminism guards the harness's reproducibility contract: reports
// must be byte-identical run to run at any -parallel width. Three
// sources of nondeterminism are banned in simulator, harness, trace,
// and command (report-emitting) code:
//
//   - wall-clock reads (time.Now / Since / Until) — simulated time
//     comes from sim cycles;
//   - the global math/rand top-level functions, which draw from shared
//     process-wide state (a seeded *rand.Rand owned by the caller is
//     fine, so rand.New / NewSource / NewZipf are allowed);
//   - map iteration whose body's effect depends on visit order:
//     returning a value derived from the iteration variables (first
//     match wins), printing or writing inside the loop, or appending
//     to an outer slice that is never sorted afterwards. The
//     sanctioned pattern — collect keys, sort, then iterate the
//     slice — passes.
//
// A fourth class is banned in simulated-thread code (the sim kernel and
// the layers whose code runs inside simulated threads: machine,
// workload, pmc, ppath, persist): host concurrency. The step execution
// core resumes thread bodies inline on the kernel's goroutine, so a
// `go` statement, a channel handshake (send, receive, make(chan)), or
// any per-op round trip through the Go scheduler both breaks the
// inline-dispatch model and reintroduces the host-scheduler costs the
// step core exists to remove. Simulated concurrency belongs in
// Kernel.Spawn / events / Block+Wake. The harness's host-side worker
// pool is outside the gated path set.
//
// Intentional wall-clock use (e.g. measuring host elapsed time in
// pmemspec-bench) is annotated with //lint:allow simdeterminism.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock, global RNG, order-sensitive map iteration, and host concurrency in simulator code",
	Run:  runSimDeterminism,
}

// sdBannedRand lists the math/rand (and v2) top-level draws on global
// state. Constructors (New, NewSource, NewZipf, NewPCG, NewChaCha8)
// are not listed: a locally seeded generator is the fix.
var sdBannedRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

func runSimDeterminism(pass *Pass) error {
	base := pathHasAny(pass.Pkg.Path, "/internal/sim", "/internal/harness", "/internal/trace", "/cmd/", "/analysis/testdata")
	// Simulated-thread code: everything the kernel steps inline. The
	// harness is deliberately absent — its worker pool is host-side
	// parallelism over whole experiments, not per-op simulator traffic.
	threadCode := pathHasAny(pass.Pkg.Path, "/internal/sim", "/internal/machine", "/internal/workload",
		"/internal/pmc", "/internal/ppath", "/internal/persist", "/analysis/testdata")
	if !base && !threadCode {
		return nil
	}
	info := pass.Pkg.Info
	for _, fd := range funcDecls(pass.Pkg) {
		body := fd.decl.Body
		ast.Inspect(body, func(n ast.Node) bool {
			if base {
				switch n := n.(type) {
				case *ast.CallExpr:
					sdCheckCall(pass, info, n)
				case *ast.RangeStmt:
					sdCheckRange(pass, info, n, body)
				}
			}
			if threadCode {
				sdCheckHostConcurrency(pass, info, n)
			}
			return true
		})
	}
	return nil
}

// sdCheckHostConcurrency flags host-concurrency constructs in
// simulated-thread code: goroutine spawns and channel handshakes. Each
// one is a per-op round trip through the Go scheduler that the step
// execution core exists to eliminate (and a nondeterminism hazard once
// more than one goroutine touches simulator state).
func sdCheckHostConcurrency(pass *Pass, info *types.Info, n ast.Node) {
	switch n := n.(type) {
	case *ast.GoStmt:
		pass.Reportf(n.Pos(), "go statement spawns a host goroutine in simulated-thread code; the step core resumes bodies inline — model concurrency with Kernel.Spawn and events")
	case *ast.SendStmt:
		pass.Reportf(n.Pos(), "channel send in simulated-thread code is a host-scheduler handshake per operation; use Block/Wake or kernel events")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			pass.Reportf(n.Pos(), "channel receive in simulated-thread code is a host-scheduler handshake per operation; use Block/Wake or kernel events")
		}
	case *ast.CallExpr:
		fun, ok := ast.Unparen(n.Fun).(*ast.Ident)
		if !ok || fun.Name != "make" || len(n.Args) == 0 {
			return
		}
		if _, isBuiltin := info.Uses[fun].(*types.Builtin); !isBuiltin {
			return
		}
		if tv, ok := info.Types[n.Args[0]]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				pass.Reportf(n.Pos(), "make(chan) in simulated-thread code sets up a host handshake; simulated threads communicate through Block/Wake and kernel events")
			}
		}
	}
}

func sdCheckCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	fn := calleeOf(info, call)
	if fn == nil {
		return
	}
	switch {
	case isFunc(fn, "time", "Now"), isFunc(fn, "time", "Since"), isFunc(fn, "time", "Until"):
		pass.Reportf(call.Pos(), "wall-clock read time.%s breaks run-to-run determinism; derive timing from simulated cycles", fn.Name())
	case recvTypeName(fn) == "" && sdBannedRand[fn.Name()] &&
		(fnPkgPath(fn) == "math/rand" || fnPkgPath(fn) == "math/rand/v2"):
		pass.Reportf(call.Pos(), "global rand.%s draws from shared process-wide state; use a seeded *rand.Rand owned by the caller", fn.Name())
	}
}

// sdCheckRange flags order-sensitive bodies of map ranges.
func sdCheckRange(pass *Pass, info *types.Info, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	tv, ok := info.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, ok := tv.Type.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal defined here runs later; its returns and
			// writes are not this loop's.
			return false
		case *ast.RangeStmt:
			if n != rng {
				// The nested range reports for itself.
				return false
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if sdUsesLoopLocal(info, r, rng) {
					pass.Reportf(n.Return, "return inside a map range depends on iteration order (which element is seen first is unspecified); iterate sorted keys instead")
					break
				}
			}
		case *ast.CallExpr:
			if sdIsOutputCall(info, n) {
				pass.Reportf(n.Pos(), "output emitted while ranging over a map is ordered by map iteration; collect the keys, sort them, then print")
			}
		case *ast.AssignStmt:
			sdCheckAppend(pass, info, n, rng, fnBody)
		}
		return true
	})
}

// sdUsesLoopLocal reports whether e mentions a variable declared inside
// the range statement (the key/value variables or body locals derived
// from them).
func sdUsesLoopLocal(info *types.Info, e ast.Expr, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil && rng.Pos() <= obj.Pos() && obj.Pos() < rng.End() {
			found = true
		}
		return !found
	})
	return found
}

// sdIsOutputCall recognizes calls that emit report bytes: the fmt print
// family and Write-style methods on any receiver.
func sdIsOutputCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil {
		return false
	}
	if fnPkgPath(fn) == "fmt" && recvTypeName(fn) == "" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	}
	if recvTypeName(fn) != "" {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
			return true
		}
	}
	return false
}

// sdCheckAppend flags `outer = append(outer, …)` inside a map range
// unless the slice is sorted after the loop (the sanctioned
// collect-then-sort pattern).
func sdCheckAppend(pass *Pass, info *types.Info, as *ast.AssignStmt, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return
	}
	if _, isBuiltin := info.Uses[fun].(*types.Builtin); !isBuiltin {
		return // shadowed, not the builtin
	}
	obj := info.Uses[lhs]
	if obj == nil && as.Tok == token.DEFINE {
		return // fresh local, dies with the loop body
	}
	if obj == nil || (rng.Pos() <= obj.Pos() && obj.Pos() < rng.End()) {
		return // declared inside the loop
	}
	if sdSortedLater(info, obj, rng, fnBody) {
		return
	}
	pass.Reportf(as.Pos(), "append to %s inside a map range leaves it in map-iteration order; sort it before use (collect keys, sort, then iterate)", lhs.Name)
}

// sdSortedLater reports whether obj is passed to a sort function after
// the range statement ends.
func sdSortedLater(info *types.Info, obj types.Object, rng *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return !found
		}
		fn := calleeOf(info, call)
		if fn == nil || fnPkgPath(fn) != "sort" && fnPkgPath(fn) != "slices" {
			return !found
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
