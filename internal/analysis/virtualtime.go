package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// syncTypes are the native synchronization types whose blocking couples
// goroutines to the Go scheduler instead of the event engine.
var syncTypes = map[string]bool{
	"Mutex":     true,
	"RWMutex":   true,
	"WaitGroup": true,
	"Cond":      true,
}

// Virtualtime forbids native concurrency — `go` statements, channel
// operations, sync.{Mutex,RWMutex,WaitGroup,Cond}, and iter.Pull/Pull2 —
// inside coroutine-context functions: any function whose receiver or
// parameters carry a *sim.Coro or *cthreads.Thread. Such code runs
// single-threaded under the engine's dispatch; blocking on a real
// channel or mutex there stalls the whole simulation or, worse, lets a
// second goroutine mutate simulated state concurrently, desynchronizing
// virtual time. A runtime coroutine built with iter.Pull would be a
// second handoff beside the engine's own: the engine's carriers
// (internal/sim/coro.go) are the one place it is used, and they are
// built engine-side, outside coroutine context. Test files are exempt.
var Virtualtime = &framework.Analyzer{
	Name: "virtualtime",
	Doc:  "forbid native go/chan/sync/iter.Pull operations in coroutine-context functions",
	Run:  runVirtualtime,
}

func runVirtualtime(pass *framework.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !coroContext(pass, fd) {
				continue
			}
			checkVirtualtimeBody(pass, fd)
		}
	}
	return nil
}

// coroContext reports whether fd's receiver or parameters include a
// *sim.Coro or *cthreads.Thread (by package-path base, so fixtures
// match too).
func coroContext(pass *framework.Pass, fd *ast.FuncDecl) bool {
	fields := []*ast.FieldList{fd.Recv, fd.Type.Params}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if namedFrom(t, "sim", "Coro") || namedFrom(t, "cthreads", "Thread") {
				return true
			}
		}
	}
	return false
}

func checkVirtualtimeBody(pass *framework.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	name := fd.Name.Name
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos,
			"%s inside coroutine-context function %s: native concurrency desynchronizes the event engine; use Coro.Sleep/Park/Unpark or cthreads primitives", what, name)
	}
	isChan := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Chan)
		return ok
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement")
		case *ast.SendStmt:
			report(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				report(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select statement")
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[n.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "iter" &&
				(fn.Name() == "Pull" || fn.Name() == "Pull2") {
				report(n.Pos(), "iter."+fn.Name()+" coroutine")
			}
		case *ast.RangeStmt:
			if isChan(n.X) {
				report(n.Pos(), "range over channel")
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "close" && len(n.Args) == 1 && isChan(n.Args[0]) {
					if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
						report(n.Pos(), "close of channel")
					}
				}
				if fun.Name == "make" && len(n.Args) >= 1 {
					if t := info.TypeOf(n.Args[0]); t != nil {
						if _, ok := t.Underlying().(*types.Chan); ok {
							report(n.Pos(), "make(chan)")
						}
					}
				}
			case *ast.SelectorExpr:
				if selRecv := info.Selections[fun]; selRecv != nil {
					rt := selRecv.Recv()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					if named, ok := rt.(*types.Named); ok {
						obj := named.Obj()
						if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncTypes[obj.Name()] {
							report(n.Pos(), "sync."+obj.Name()+" operation")
						}
					}
				}
			}
		}
		return true
	})
}
