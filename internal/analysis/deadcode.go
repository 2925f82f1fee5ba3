package analysis

import (
	"go/ast"
	"go/types"
)

// DeadCode reports every function and method in the module's non-test files
// that no program reaches. Its roots are:
//
//   - each main package's main, every init, and every package-level var
//     initializer;
//   - every reference in an Extra package: a nested module (perfbench)
//     that builds against this one;
//   - every method through which a module type satisfies an interface in
//     view, the module's own or a dependency's (flag.Value, fmt.Stringer).
//
// From the roots it follows every reference, not only calls: a function
// value or a method value keeps its target alive. A call from a test does
// not, because test files are never loaded. A function kept on purpose
// carries //stellar:keep <reason> on its doc comment. A kept function is a
// root, and the keep is verified load-bearing like
// //stellar:order-independent: a keep without a reason, on a function that
// is reachable anyway, or on no function is reported in turn.
//
// Callers outside the loaded packages are invisible, so the check means
// something only over the whole module; stellar-vet runs it only then.
var DeadCode = &Analyzer{
	Name:   "deadcode",
	Doc:    "report functions and methods no main, init, var initializer, nested module or satisfied interface reaches",
	Run:    runDeadCode,
	Module: true,
}

func runDeadCode(pass *Pass) error {
	type decl struct {
		pkg *Package
		fd  *ast.FuncDecl
		fn  *types.Func
	}
	byKey := make(map[string]decl) // every function deadcode may report
	live := make(map[string]bool)
	var queue []string // live keys whose bodies are not walked yet
	mark := func(f *types.Func) {
		if k := funcKey(f); k != "" && !live[k] {
			live[k] = true
			queue = append(queue, k)
		}
	}
	walk := func(info *types.Info, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if f, ok := info.Uses[id].(*types.Func); ok {
					mark(f)
				}
			}
			return true
		})
	}
	drain := func() {
		for len(queue) > 0 {
			k := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if d, ok := byKey[k]; ok {
				walk(d.pkg.Info, d.fd)
			}
		}
	}

	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			if pkg.Extra {
				walk(pkg.Info, f)
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					switch {
					case d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main"):
						walk(pkg.Info, d)
					case fn != nil && d.Name.Name != "_":
						byKey[funcKey(fn)] = decl{pkg, d, fn}
					}
				case *ast.GenDecl: // only a var initializer can refer to a function
					walk(pkg.Info, d)
				}
			}
		}
	}
	for _, f := range satisfyingMethods(pass.Pkgs) {
		mark(f)
	}
	drain()

	// Keeps are judged against reachability without them; then each kept
	// function becomes a root, so what it alone calls is kept with it.
	owned := make(map[*ast.Comment]bool)
	for _, d := range byKey {
		keep, reason := keepMarker(d.fd.Doc)
		switch {
		case keep == nil:
			continue
		case reason == "":
			pass.Reportf(d.fd.Name.Pos(), "%s: //stellar:keep needs a reason after the marker", funcName(d.fn))
		case live[funcKey(d.fn)]:
			pass.Reportf(d.fd.Name.Pos(), "%s is reachable, so its //stellar:keep is stale; delete the annotation", funcName(d.fn))
		default:
			mark(d.fn)
		}
		owned[keep] = true
	}
	drain()
	for _, d := range byKey {
		if keep, _ := keepMarker(d.fd.Doc); keep == nil && !live[funcKey(d.fn)] {
			pass.Reportf(d.fd.Name.Pos(),
				"%s is unreachable from every main, init, var initializer, nested module and satisfied interface; delete it or mark it //stellar:keep <reason>", funcName(d.fn))
		}
	}
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if name, _ := markerName(c); !pkg.Extra && name == "keep" && !owned[c] {
						pass.Reportf(c.Pos(), "unused //stellar:keep annotation: it is not on the doc comment of a function deadcode checks; delete it")
					}
				}
			}
		}
	}
	return nil
}

// keepMarker returns the //stellar:keep comment in doc and its reason.
func keepMarker(doc *ast.CommentGroup) (*ast.Comment, string) {
	if doc != nil {
		for _, c := range doc.List {
			if name, reason := markerName(c); name == "keep" {
				return c, reason
			}
		}
	}
	return nil, ""
}

// funcKey names a concrete function or method by package path, receiver
// type and name. The key, unlike the *types.Func, is the same in a nested
// module, which is checked against this module's export data. Interface
// methods have no declaration to reach and key to "".
func funcKey(f *types.Func) string {
	switch recv, named := f.Type().(*types.Signature).Recv(), recvNamed(f); {
	case recv == nil:
		return f.Pkg().Path() + "." + f.Name()
	case named == nil || types.IsInterface(recv.Type()):
		return ""
	default:
		return f.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
	}
}

// funcName renders f for a finding: Name or Type.Name.
func funcName(f *types.Func) string {
	if named := recvNamed(f); named != nil {
		return named.Obj().Name() + "." + f.Name()
	}
	return f.Name()
}

// satisfyingMethods returns every method, promoted ones included, through
// which a package-level type of a non-Extra package satisfies an interface
// in view: error, the non-generic interface types declared in the loaded
// packages and their transitive imports, and the type of every expression
// (which covers interface literals and generic instantiations).
// types.Implements is unspecified for a generic type, so a generic type's
// method counts when its name alone matches.
func satisfyingMethods(pkgs []*Package) []*types.Func {
	ifaces := make(map[string][]*types.Interface) // method name → interfaces declaring it
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[it] {
			seen[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !isGeneric(tn.Type()) {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
	}

	var out []*types.Func
	for _, pkg := range pkgs {
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if pkg.Extra || !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func)
				for _, it := range ifaces[m.Name()] {
					if isGeneric(tn.Type()) || types.Implements(ptr, it) {
						out = append(out, m)
						break
					}
				}
			}
		}
	}
	return out
}

// isGeneric reports whether t is a generic named type, not instantiated.
func isGeneric(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.TypeParams().Len() > 0
}
