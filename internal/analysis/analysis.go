// Package analysis is stellar-vet: a suite of static analyzers that turn
// the repository's determinism, hot-path, concurrency, and lock-discipline
// contracts into compile-time-checked code. The golden-replay, equivalence,
// and allocation gates prove those contracts hold for the inputs the tests
// happen to run; the analyzers reject violations at lint time, before any
// golden is consulted, which is what keeps the next kernel or model rewrite
// safe.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf) but is built entirely on the standard library: the container this
// repository builds in has no module proxy access, so x/tools cannot be
// vendored or fetched. Packages are loaded through `go list -export`, which
// yields compiled export data for every dependency, and type-checked with
// go/types and the stdlib gc importer — the same pipeline a unitchecker
// driver would use, minus the dependency.
//
// Five analyzers ship today:
//
//   - detdrift: determinism-critical packages must not consult wall clocks,
//     the global math/rand generator, or unordered map iteration, and must
//     not launch goroutines outside internal/pool.
//   - hotalloc: functions annotated //stellar:hotpath must stay free of the
//     allocation sources the PR 6–7 rewrites eliminated.
//   - ctxflow: exported blocking functions thread a context.Context first;
//     context.Background/TODO stay confined to cmd packages.
//   - lockhold: no channel operations, pool.Queue calls, or file/network
//     I/O while a runcache shard mutex or server jobs mutex is held.
//   - deadcode: every function and method is reachable from a main, an
//     init, a package-level var, a nested module, or an interface it
//     satisfies. It is the one whole-module analyzer.
//
// Annotations are magic comments with the prefix "//stellar:"; see
// annotations.go. Run the suite with `go run ./cmd/stellar-vet ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check. The shape deliberately matches
// golang.org/x/tools/go/analysis.Analyzer so the checks could migrate to a
// real multichecker without edits beyond the import path. A Module
// analyzer's Run is called once, over every loaded package (Pass.Pkgs),
// instead of once per package.
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(*Pass) error
	Module bool
}

// Diagnostic is one finding, with its position already resolved so callers
// need no FileSet to render it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Extra marks a package of a nested module (perfbench): whole-module
	// analyzers read its references, and nothing is reported in it.
	Extra bool
}

// Pass carries one analyzer's view of one package. A Module analyzer's one
// pass has only Pkgs and the Fset the module's packages share.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full suite in the order CI runs it.
func All() []*Analyzer {
	return []*Analyzer{DetDrift, HotAlloc, CtxFlow, LockHold, DeadCode}
}

// RunAnalyzers applies every analyzer to every package that is not Extra
// (a Module analyzer to all of them at once; the first package's Fset must
// be the one the non-Extra packages share) and returns the findings sorted
// by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Module && len(pkgs) > 0 {
			if err := a.Run(&Pass{Analyzer: a, Fset: pkgs[0].Fset, Pkgs: pkgs, diags: &diags}); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range pkgs {
			if pkg.Extra {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// lastSegment returns the final path element of an import path, which is how
// the analyzers recognize their target packages both in the real module
// (stellar/internal/sim) and in testdata trees (sim).
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// pathHasSegment reports whether one of path's slash-separated elements
// equals seg.
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// calleeFunc resolves the function or method a call statically invokes.
// It returns nil for builtins, type conversions, and calls through function
// values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X})
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// funcPkgPath returns the import path of f's defining package, or "" for
// universe-scope objects.
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// recvNamed returns the named type of f's receiver (unwrapping pointers),
// or nil for package-level functions.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// exprMentions reports whether any identifier inside e resolves to obj.
func exprMentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil || e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if info.Uses[id] == obj || info.Defs[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// rootIdent peels selectors, indexes, stars, and parens off an expression
// and returns the identifier at its base, or nil when the base is something
// else (a call result, a literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
