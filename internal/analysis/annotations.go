package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotations are magic comments with the prefix "//stellar:". They are the
// escape hatches and opt-ins the analyzers understand:
//
//	//stellar:hotpath
//	    On a function's doc comment: opt the function into hotalloc's
//	    allocation checks.
//	//stellar:order-independent
//	    On the line immediately above a `for ... range m` over a map:
//	    assert the loop body is order-independent for a reason the
//	    analyzer cannot prove (for example, the map is guaranteed to hold
//	    a single entry). detdrift verifies the annotation is load-bearing
//	    and reports it when the loop would not have been flagged anyway.
//	//stellar:allow-background
//	    On a function's doc comment: permit context.Background()/TODO()
//	    outside cmd packages — the documented convenience wrappers.
//	//stellar:keep <reason>
//	    On a function's doc comment: keep a function deadcode finds
//	    unreachable, for the stated reason (for example, a test oracle
//	    other packages' tests call). The reason is required, and deadcode
//	    reports a keep on a function that is reachable anyway.
//
// An annotation may carry a trailing rationale after the marker, e.g.
// "//stellar:order-independent single-entry map", which is encouraged.
const annPrefix = "stellar:"

// hasMarker reports whether the comment group carries the given
// //stellar:<name> marker.
func hasMarker(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if n, _ := markerName(c); n == name {
			return true
		}
	}
	return false
}

// markerName splits a //stellar:* comment into the annotation name and the
// rationale that may follow it after whitespace; both are "" when the
// comment is not an annotation.
func markerName(c *ast.Comment) (name, rationale string) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, annPrefix) {
		return "", ""
	}
	name = strings.TrimPrefix(text, annPrefix)
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		name, rationale = name[:i], strings.TrimSpace(name[i:])
	}
	return name, rationale
}

// markers collects every //stellar:<name> comment in the pass's files,
// keyed for suppression lookups by the line the annotation governs: the
// line immediately below the comment. Analyzers mark entries used as they
// consume them and report the leftovers, so a stale suppression cannot
// linger once the code it excused is fixed.
type markers struct {
	pass *Pass
	name string
	byLn map[markerKey]*marker
	all  []*marker
}

type markerKey struct {
	file string
	line int
}

type marker struct {
	pos  token.Pos
	used bool
}

// collectMarkers scans the pass's files for //stellar:<name> comments.
func collectMarkers(pass *Pass, name string) *markers {
	m := &markers{pass: pass, name: name, byLn: make(map[markerKey]*marker)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if n, _ := markerName(c); n != name {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				mk := &marker{pos: c.Pos()}
				m.byLn[markerKey{p.Filename, p.Line + 1}] = mk
				m.all = append(m.all, mk)
			}
		}
	}
	return m
}

// at returns the marker governing the node starting at pos (i.e. written on
// the line immediately above it), or nil.
func (m *markers) at(pos token.Pos) *marker {
	p := m.pass.Fset.Position(pos)
	return m.byLn[markerKey{p.Filename, p.Line}]
}

// reportUnused flags every marker never consumed by its analyzer: either it
// is attached to nothing the analyzer checks, or it suppresses a finding
// the analyzer would not raise. Both mean the annotation no longer carries
// weight and must be deleted rather than rot into false documentation.
func (m *markers) reportUnused() {
	for _, mk := range m.all {
		if !mk.used {
			m.pass.Reportf(mk.pos,
				"unused //stellar:%s annotation: the line below it is not a finding this suppresses; delete it",
				m.name)
		}
	}
}
