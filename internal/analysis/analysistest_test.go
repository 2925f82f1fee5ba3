package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runTest loads the named package paths from testdata/src, runs the
// analyzer, and checks its diagnostics against the want comments in the
// sources (see checkWants).
func runTest(t *testing.T, analyzer *Analyzer, paths ...string) {
	t.Helper()
	pkgs, err := loadTestdata("testdata", paths...)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, pkgs, analyzer)
}

// checkWants runs the analyzer over pkgs and checks its diagnostics against
// `// want "regexp"` comments in the sources, in the style of
// golang.org/x/tools/go/analysis/analysistest. A want comment applies to its
// own line; several quoted regexps may follow one want, for lines that draw
// multiple findings. Every diagnostic must be wanted and every want must be
// matched by a diagnostic on its line.
func checkWants(t *testing.T, pkgs []*Package, analyzer *Analyzer) {
	t.Helper()
	diags, err := RunAnalyzers(pkgs, []*Analyzer{analyzer})
	if err != nil {
		t.Fatal(err)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			w, err := collectWants(pkg.Fset, f)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, w...)
		}
	}

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic: %s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// expectation is one `// want "regexp"` marker from a testdata file.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// collectWants extracts `// want "re" "re2"` expectations from a parsed
// file's comments. The marker may open the comment or follow other text
// (so a //stellar: annotation and its expectation can share a line), and
// quoted strings use Go syntax so patterns may contain spaces and escapes.
func collectWants(fset *token.FileSet, f *ast.File) ([]*expectation, error) {
	var wants []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			var rest string
			switch {
			case strings.HasPrefix(text, "want "):
				rest = strings.TrimSpace(strings.TrimPrefix(text, "want"))
			default:
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				rest = strings.TrimSpace(text[i+len("// want "):])
			}
			pos := fset.Position(c.Pos())
			if rest == "" {
				return nil, fmt.Errorf("%s: want comment with no pattern", pos)
			}
			for rest != "" {
				if rest[0] != '"' && rest[0] != '`' {
					return nil, fmt.Errorf("%s: malformed want comment: %s", pos, c.Text)
				}
				q, err := scanQuoted(rest)
				if err != nil {
					return nil, fmt.Errorf("%s: %v", pos, err)
				}
				raw, err := strconv.Unquote(rest[:q])
				if err != nil {
					return nil, fmt.Errorf("%s: unquoting %s: %v", pos, rest[:q], err)
				}
				re, err := regexp.Compile(raw)
				if err != nil {
					return nil, fmt.Errorf("%s: compiling %q: %v", pos, raw, err)
				}
				wants = append(wants, &expectation{
					file: pos.Filename, line: pos.Line, re: re, raw: raw,
				})
				rest = strings.TrimSpace(rest[q:])
			}
		}
	}
	return wants, nil
}

// scanQuoted returns the length of the leading Go-quoted string in s.
func scanQuoted(s string) (int, error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if quote == '"' {
				i++
			}
		case quote:
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("unterminated quoted string in want comment")
}

// srcLoader loads GOPATH-style source trees (testdata/src/<path>/*.go),
// resolving imports first against sibling directories in the tree and then
// against the standard library from source. It exists for analyzer
// fixtures, which are not part of the module.
type srcLoader struct {
	srcDir string
	fset   *token.FileSet
	std    types.Importer
	cache  map[string]*Package
	stack  map[string]bool // import cycle guard
}

// loadTestdata loads the named package paths from dir/src. All packages
// share one FileSet.
func loadTestdata(dir string, paths ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	l := &srcLoader{
		srcDir: filepath.Join(dir, "src"),
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  make(map[string]*Package),
		stack:  make(map[string]bool),
	}
	var pkgs []*Package
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func (l *srcLoader) load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.stack[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.stack[path] = true
	defer delete(l.stack, path)

	dir := filepath.Join(l.srcDir, filepath.FromSlash(path))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, af)
	}
	pkg, info, err := typeCheck(path, l.fset, files, importerFunc(func(ipath string) (*types.Package, error) {
		if st, err := os.Stat(filepath.Join(l.srcDir, filepath.FromSlash(ipath))); err == nil && st.IsDir() {
			p, err := l.load(ipath)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
		return l.std.Import(ipath)
	}))
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Fset: l.fset, Files: files, Types: pkg, Info: info}
	l.cache[path] = p
	return p, nil
}
