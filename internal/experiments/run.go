package experiments

import (
	"context"
	"fmt"
	"strings"
)

// IDs lists every runnable experiment id, including the textual Figure 10
// case study (which has no Table and so does not appear in All).
func IDs() []string {
	ids := make([]string, 0, len(All())+1)
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return append(ids, "fig10")
}

// Valid reports whether id names a runnable experiment.
func Valid(id string) bool {
	if id == "fig10" {
		return true
	}
	_, ok := Lookup(id)
	return ok
}

// Run regenerates the identified experiment and returns its rendered text —
// the job-shaped entry point shared by stellar-bench and the HTTP serving
// layer, covering both the tabular figures and the textual fig10 timeline.
func Run(ctx context.Context, id string, c Config) (string, error) {
	if id == "fig10" {
		return Fig10CaseStudy(ctx, c)
	}
	e, ok := Lookup(id)
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	tbl, err := e.Run(ctx, c)
	if err != nil {
		return "", err
	}
	return tbl.Render(), nil
}
