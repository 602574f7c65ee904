package analysis

import (
	"go/ast"
	"regexp"
	"strings"
)

// Machine-readable annotation grammar shared by the analyzers.
//
// Field guards (struct fields and package-level vars):
//
//	mu     sync.RWMutex
//	stores []*familyStore // guarded by: mu
//
// The mutex is named relative to the annotated declaration: a sibling
// field of the same struct, or a package-level mutex var for
// package-level annotations. The annotation may sit in the trailing
// line comment or in the doc comment directly above the field.
//
// Lock preconditions (functions):
//
//	// storeLocked returns the family's store. Caller holds r.mu.
//	func (r *Region) storeLocked(family string) *familyStore
//
// Either the function name carries the `Locked` suffix — asserting the
// receiver's field named `mu` is held — or a doc-comment line
//
//	// locked: r.liveMu
//
// names the held mutexes explicitly (comma-separated, written with the
// function's own receiver name).

var (
	guardedRe = regexp.MustCompile(`(?i)guarded by:?\s+([A-Za-z_][A-Za-z0-9_]*)`)
	lockedRe  = regexp.MustCompile(`^//\s*locked:\s*(.+)$`)
)

// GuardedBy extracts a `guarded by: mu` annotation from the given
// comment groups (a field's line comment and/or doc comment).
func GuardedBy(groups ...*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if m := guardedRe.FindStringSubmatch(c.Text); m != nil {
				return m[1], true
			}
		}
	}
	return "", false
}

// LockedAnnotations extracts the `// locked: a.mu, b.mu` entries from a
// function's doc comment.
func LockedAnnotations(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		m := lockedRe.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		for _, part := range strings.Split(m[1], ",") {
			if p := strings.TrimSpace(part); p != "" {
				out = append(out, p)
			}
		}
	}
	return out
}

// PrintPath renders a selector chain rooted at an identifier — `r`,
// `c.state`, `db.cluster` — as its source text, or "" when the
// expression is not a plain ident/selector path (call results, index
// expressions) and therefore cannot be matched against lock
// acquisitions by name.
func PrintPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return PrintPath(e.X)
	case *ast.SelectorExpr:
		base := PrintPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}
