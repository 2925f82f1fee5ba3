package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHold guards the serving tier's two contended mutex families — the
// runcache shard locks and the server job locks — against work that can
// block (or merely take unbounded time) inside a critical section. Sixteen
// concurrent requests hash onto a handful of shards; one channel wait or
// disk write under a shard mutex serializes the fleet. Within the runcache
// and server packages, while any sync.Mutex/RWMutex is held the analyzer
// forbids:
//
//   - channel sends, receives, and selects;
//   - pool.Queue calls (a Block-mode Submit parks on a channel, and even a
//     FailFast one takes the queue's own lock, nesting lock orders across
//     packages);
//   - flight.Group calls (a waiter parks on the owner's channel, and the
//     run cache's owner takes the shard lock: a Do under it deadlocks);
//   - file and network I/O (os, net, net/http, io, bufio, and the
//     platform recording helpers, which hit the disk).
//
// The tracking is a linear walk with branch snapshots, not a CFG: a lock
// released on a path that returns does not leak "held" state into the code
// after the branch. Deferred unlocks keep the mutex held to function end,
// exactly like the runtime does.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no channel ops, pool.Queue or flight.Group calls, or file/network I/O while a runcache or server mutex is held",
	Run:  runLockHold,
}

// lockHoldPkgs are the last path segments of the packages whose mutexes
// guard the serving hot path.
var lockHoldPkgs = map[string]bool{
	"runcache": true,
	"server":   true,
}

// ioPkgs are packages whose calls mean file or network I/O.
var ioPkgs = map[string]bool{
	"os":        true,
	"net":       true,
	"net/http":  true,
	"io":        true,
	"io/ioutil": true,
	"bufio":     true,
}

func runLockHold(pass *Pass) error {
	if !lockHoldPkgs[lastSegment(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass}
			w.stmts(fd.Body.List, map[string]token.Pos{})
		}
	}
	return nil
}

type lockWalker struct {
	pass *Pass
}

// mutexCall classifies a call as Lock/RLock ("lock"), Unlock/RUnlock
// ("unlock"), or neither, and returns the printed receiver expression that
// names the mutex.
func (w *lockWalker) mutexCall(call *ast.CallExpr) (kind, mutex string) {
	fn := calleeFunc(w.pass.Info, call)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return "", ""
	}
	named := recvNamed(fn)
	if named == nil {
		return "", ""
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	recv := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return "lock", recv
	case "Unlock", "RUnlock":
		return "unlock", recv
	case "TryLock", "TryRLock":
		return "lock", recv // conservatively assume it succeeded
	}
	return "", ""
}

// stmts walks a statement list, threading the held-mutex set through it.
// The map is mutated in place; callers that need branch isolation clone it.
func (w *lockWalker) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			switch kind, mu := w.mutexCall(call); kind {
			case "lock":
				w.scanExpr(s.X, held) // a Lock taken while others are held is fine; but check args
				held[mu] = call.Pos()
				return
			case "unlock":
				delete(held, mu)
				return
			}
		}
		w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		if kind, _ := w.mutexCall(s.Call); kind == "unlock" {
			return // deferred unlock: mutex stays held to function end
		}
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, held) // args evaluate now; the call itself runs later
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			w.violation(s.Pos(), "channel send", held)
		}
		w.scanExpr(s.Chan, held)
		w.scanExpr(s.Value, held)
	case *ast.SelectStmt:
		if len(held) > 0 {
			w.violation(s.Pos(), "select", held)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.branch(cc.Body, held)
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		thenHeld := w.branch(s.Body.List, held)
		var elseHeld map[string]token.Pos
		elseTerm := true
		if s.Else != nil {
			elseHeld = clone(held)
			w.stmt(s.Else, elseHeld)
			elseTerm = false
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				elseTerm = terminates(blk.List)
			}
		}
		// Propagate state from branches that fall through; a branch that
		// returns cannot affect the code after the if.
		if thenHeld != nil {
			replace(held, thenHeld)
		}
		if elseHeld != nil && !elseTerm {
			merge(held, elseHeld)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		body := clone(held)
		w.stmts(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		body := clone(held)
		w.stmts(s.Body.List, body)
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			w.branch(c.(*ast.CaseClause).Body, held)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			w.branch(c.(*ast.CaseClause).Body, held)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.IncDecStmt:
		w.scanExpr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, held)
					}
				}
			}
		}
	}
}

// branch walks a branch body on a cloned held set and returns the resulting
// set when the branch falls through, or nil when it terminates (so its
// lock-state mutations die with it).
func (w *lockWalker) branch(list []ast.Stmt, held map[string]token.Pos) map[string]token.Pos {
	h := clone(held)
	w.stmts(list, h)
	if terminates(list) {
		return nil
	}
	return h
}

// scanExpr looks inside an expression for operations forbidden under a held
// mutex. Function literals are skipped: they execute later, normally after
// the critical section (a literal invoked inline still gets caught at its
// own call site if it locks).
func (w *lockWalker) scanExpr(e ast.Expr, held map[string]token.Pos) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.violation(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			w.checkCallUnderLock(n, held)
		}
		return true
	})
}

func (w *lockWalker) checkCallUnderLock(call *ast.CallExpr, held map[string]token.Pos) {
	fn := calleeFunc(w.pass.Info, call)
	if fn == nil {
		return
	}
	if named := recvNamed(fn); named != nil {
		switch typ := lastSegment(funcPkgPath(fn)) + "." + named.Obj().Name(); typ {
		case "pool.Queue", "flight.Group":
			w.violation(call.Pos(), typ+"."+fn.Name()+" call", held)
			return
		}
	}
	pkg := funcPkgPath(fn)
	if ioPkgs[pkg] {
		w.violation(call.Pos(), pkg+"."+fn.Name()+" I/O", held)
		return
	}
	if lastSegment(pkg) == "platform" &&
		(fn.Name() == "ReadRecording" || fn.Name() == "WriteRecording") {
		w.violation(call.Pos(), "platform."+fn.Name()+" disk I/O", held)
	}
}

func (w *lockWalker) violation(pos token.Pos, what string, held map[string]token.Pos) {
	// Name one held mutex deterministically (the lexically smallest).
	name := ""
	for mu := range held {
		if name == "" || mu < name {
			name = mu
		}
	}
	w.pass.Reportf(pos,
		"%s while %s is held: blocking or unbounded work under a contended mutex serializes the serving tier; move it outside the critical section",
		what, name)
}

// terminates reports whether a statement list cannot fall through: its last
// statement is a return, panic, continue, break, or goto.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok != token.FALLTHROUGH
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

func clone(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// replace overwrites dst's contents with src's.
func replace(dst, src map[string]token.Pos) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// merge adds src's held mutexes into dst (conservative union).
func merge(dst, src map[string]token.Pos) {
	for k, v := range src {
		dst[k] = v
	}
}
