// Command stellar-vet runs the repository's custom static analyzers — the
// determinism, hot-path, context-flow, lock-discipline and dead-code
// contracts — over the packages matching the given patterns.
//
// Usage:
//
//	stellar-vet ./...                # run the full suite (CI's invocation)
//	stellar-vet -run detdrift ./...  # one analyzer by name
//	stellar-vet -list                # print the suite with one-line docs
//
// Findings print as file:line:col: message (analyzer), one per line, and a
// non-empty report exits 1 so the lint job fails before staticcheck runs.
//
// deadcode is a whole-module check: it runs only when the patterns are the
// default "./..." from the module root, and then the modules nested in the
// root's subdirectories (perfbench) are loaded too, as callers it must see.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"stellar/internal/analysis"
)

func main() {
	var (
		run  = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		list = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	suite := analysis.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "stellar-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadModule(".", patterns...)
	check(err)
	if _, err := os.Stat("go.mod"); err == nil && len(patterns) == 1 && patterns[0] == "./..." {
		nested, _ := filepath.Glob(filepath.Join("*", "go.mod"))
		for _, gomod := range nested {
			extra, err := analysis.LoadModule(filepath.Dir(gomod), "./...")
			check(err)
			for _, p := range extra {
				p.Extra = true
			}
			pkgs = append(pkgs, extra...)
		}
	} else {
		// Over part of the module, callers outside it are not loaded and
		// every function they call would read as dead.
		suite = slices.DeleteFunc(suite, func(a *analysis.Analyzer) bool { return a.Module })
	}
	diags, err := analysis.RunAnalyzers(pkgs, suite)
	check(err)
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "stellar-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// check exits 2 on a load or analysis error.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "stellar-vet: %v\n", err)
		os.Exit(2)
	}
}
