// Package lockcheck verifies the repo's `guarded by:` annotations: every
// read or write of an annotated struct field (or package-level var) must
// happen while the named mutex is held on a dominating path, inside a
// function that asserts the lock by convention (`fooLocked` name suffix
// or a `// locked: <mu>` doc annotation), or from a freshly constructed
// value no other goroutine can see yet.
//
// The check is flow-sensitive but syntactic about lock identity: a lock
// acquisition `x.y.mu.Lock()` and a field access `x.y.field` match when
// their base selector paths print identically. Branches merge
// conservatively (a lock is held after a join only if every flowing
// branch holds it), and a branch that ends in return/break/continue/
// goto/panic does not flow into the join — so the common
//
//	r.mu.Lock()
//	if r.closed { r.mu.Unlock(); continue }
//	r.node = node // still guarded here
//
// pattern verifies. Writes require the exclusive lock; a write under
// RLock alone is reported. Function literals inherit the lock state at
// their creation point, except goroutine bodies (`go func(){...}()`),
// which start with no locks held.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "reports accesses to `guarded by:`-annotated fields without the named mutex held",
	Run:  run,
}

// guardInfo describes one annotated field or package-level var.
type guardInfo struct {
	mu       string // sibling mutex field name, or package-level mutex var name
	pkgLevel bool
}

func run(pass *analysis.Pass) error {
	guarded := collectGuards(pass)
	if len(guarded) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass, guarded: guarded}
			w.fresh = collectFresh(pass, fd.Body)
			st := &state{held: map[string]lockCount{}}
			for _, mu := range initiallyHeld(pass, fd) {
				st.held[mu] = lockCount{r: 1, w: 1}
			}
			w.walkStmts(fd.Body.List, st)
		}
	}
	return nil
}

// collectGuards gathers `guarded by:` annotations from struct fields and
// package-level var specs, validating that the named mutex exists as a
// sibling (field or package var) of mutex-ish type.
func collectGuards(pass *analysis.Pass) map[types.Object]guardInfo {
	out := map[types.Object]guardInfo{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				mu, ok := analysis.GuardedBy(fld.Doc, fld.Comment)
				if !ok {
					continue
				}
				if !structHasMutex(pass, st, mu) {
					pass.Reportf(fld.Pos(), "guarded by: names %q, which is not a sibling mutex field", mu)
					continue
				}
				for _, name := range fld.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						out[obj] = guardInfo{mu: mu}
					}
				}
			}
			return true
		})
		// Package-level vars: // guarded by: <pkg-level mutex var>.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				groups := []*ast.CommentGroup{vs.Doc, vs.Comment}
				if len(gd.Specs) == 1 {
					// For `var x = ...` without parens the doc comment
					// attaches to the GenDecl, not the ValueSpec.
					groups = append(groups, gd.Doc)
				}
				mu, ok := analysis.GuardedBy(groups...)
				if !ok {
					continue
				}
				muObj := pass.Pkg.Scope().Lookup(mu)
				if muObj == nil || !isMutexType(muObj.Type()) {
					pass.Reportf(vs.Pos(), "guarded by: names %q, which is not a package-level mutex", mu)
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						out[obj] = guardInfo{mu: mu, pkgLevel: true}
					}
				}
			}
		}
	}
	return out
}

func structHasMutex(pass *analysis.Pass, st *ast.StructType, name string) bool {
	for _, fld := range st.Fields.List {
		for _, n := range fld.Names {
			if n.Name == name {
				if obj := pass.Info.Defs[n]; obj != nil && isMutexType(obj.Type()) {
					return true
				}
			}
		}
	}
	return false
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex, or a
// pointer to one.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// initiallyHeld returns the lock paths a function asserts as
// preconditions: `// locked:` doc entries, plus the receiver's `mu`
// field for `fooLocked`-suffixed methods.
func initiallyHeld(pass *analysis.Pass, fd *ast.FuncDecl) []string {
	held := analysis.LockedAnnotations(fd.Doc)
	if strings.HasSuffix(fd.Name.Name, "Locked") && fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recv := fd.Recv.List[0].Names[0]
		if obj := pass.Info.Defs[recv]; obj != nil {
			if hasFieldNamedMu(obj.Type()) {
				held = append(held, recv.Name+".mu")
			}
		}
	}
	return held
}

func hasFieldNamedMu(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if f := s.Field(i); f.Name() == "mu" && isMutexType(f.Type()) {
			return true
		}
	}
	return false
}

// collectFresh finds local variables initialized from composite
// literals or constructor calls (new*/New*): values no other goroutine
// can reference yet, whose fields may be set without locks. A variable
// later reassigned from any other source loses the exemption.
func collectFresh(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	tainted := map[types.Object]bool{}
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if rhs != nil && isFreshExpr(rhs) {
			fresh[obj] = true
		} else {
			tainted[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					mark(n.Lhs[i], n.Rhs[i])
				}
			} else if len(n.Rhs) == 1 {
				for _, l := range n.Lhs {
					mark(l, n.Rhs[0])
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							var rhs ast.Expr
							if i < len(vs.Values) {
								rhs = vs.Values[i]
							}
							if rhs != nil {
								mark(name, rhs)
							}
						}
					}
				}
			}
		}
		return true
	})
	for obj := range tainted {
		delete(fresh, obj)
	}
	return fresh
}

// isFreshExpr reports whether e constructs a value: a composite literal,
// &composite literal, new(T), or a call to a new*/New* constructor.
func isFreshExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := e.X.(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		var name string
		switch fn := e.Fun.(type) {
		case *ast.Ident:
			name = fn.Name
		case *ast.SelectorExpr:
			name = fn.Sel.Name
		}
		return name == "new" || strings.HasPrefix(name, "new") || strings.HasPrefix(name, "New")
	}
	return false
}

// ---- flow-sensitive walk ----

// lockCount tracks reader/writer hold depth for one lock path.
type lockCount struct{ r, w int }

type state struct {
	held map[string]lockCount
}

func (s *state) clone() *state {
	h := make(map[string]lockCount, len(s.held))
	for k, v := range s.held {
		h[k] = v
	}
	return &state{held: h}
}

// join keeps only locks held in every flowing state.
func join(states ...*state) *state {
	var flowing []*state
	for _, s := range states {
		if s != nil {
			flowing = append(flowing, s)
		}
	}
	if len(flowing) == 0 {
		return &state{held: map[string]lockCount{}}
	}
	out := flowing[0].clone()
	for _, s := range flowing[1:] {
		for k, v := range out.held {
			o := s.held[k]
			if o.r < v.r {
				v.r = o.r
			}
			if o.w < v.w {
				v.w = o.w
			}
			if v.r == 0 && v.w == 0 {
				delete(out.held, k)
			} else {
				out.held[k] = v
			}
		}
	}
	return out
}

type walker struct {
	pass    *analysis.Pass
	guarded map[types.Object]guardInfo
	fresh   map[types.Object]bool
	// reported dedupes diagnostics to one per line/field/lock, so a
	// statement that both reads and writes a field yields one finding.
	reported map[string]bool
}

// walkStmts walks a statement list, returning nil when control cannot
// flow past the end (terminating statement).
func (w *walker) walkStmts(list []ast.Stmt, st *state) *state {
	for _, s := range list {
		if st = w.walkStmt(s, st); st == nil {
			return nil
		}
	}
	return st
}

func (w *walker) walkStmt(s ast.Stmt, st *state) *state {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.ExprStmt:
		w.walkExpr(s.X, st, false)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
			return nil
		}
		return st
	case *ast.AssignStmt:
		// Check the write targets first: `t.regions = append(t.regions,
		// x)` reads and writes the same field, and the write diagnostic
		// is the one worth keeping (reads on an already-reported line
		// are deduped by checkHeld).
		for _, l := range s.Lhs {
			w.walkLHS(l, st)
		}
		for _, r := range s.Rhs {
			w.walkExpr(r, st, false)
		}
		return st
	case *ast.IncDecStmt:
		w.walkLHS(s.X, st)
		return st
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, st, false)
					}
				}
			}
		}
		return st
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e, st, false)
		}
		return nil
	case *ast.BranchStmt: // break, continue, goto, fallthrough
		return nil
	case *ast.IfStmt:
		if s.Init != nil {
			if st = w.walkStmt(s.Init, st); st == nil {
				return nil
			}
		}
		w.walkExpr(s.Cond, st, false)
		thenOut := w.walkStmts(s.Body.List, st.clone())
		var elseOut *state
		if s.Else != nil {
			elseOut = w.walkStmt(s.Else, st.clone())
		} else {
			elseOut = st.clone()
		}
		if thenOut == nil && elseOut == nil {
			return nil
		}
		return join(thenOut, elseOut)
	case *ast.ForStmt:
		if s.Init != nil {
			if st = w.walkStmt(s.Init, st); st == nil {
				return nil
			}
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, st, false)
		}
		body := w.walkStmts(s.Body.List, st.clone())
		if body != nil && s.Post != nil {
			body = w.walkStmt(s.Post, body)
		}
		if s.Cond == nil && !hasBreak(s.Body) {
			// `for { ... }` with no break never flows past.
			return nil
		}
		return join(st, body)
	case *ast.RangeStmt:
		w.walkExpr(s.X, st, false)
		if s.Key != nil {
			w.walkLHS(s.Key, st)
		}
		if s.Value != nil {
			w.walkLHS(s.Value, st)
		}
		body := w.walkStmts(s.Body.List, st.clone())
		return join(st, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			if st = w.walkStmt(s.Init, st); st == nil {
				return nil
			}
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, st, false)
		}
		return w.walkCases(s.Body, st, false)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			if st = w.walkStmt(s.Init, st); st == nil {
				return nil
			}
		}
		w.walkStmt(s.Assign, st.clone())
		return w.walkCases(s.Body, st, false)
	case *ast.SelectStmt:
		return w.walkCases(s.Body, st, true)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.GoStmt:
		// The goroutine does not inherit the caller's locks.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			for _, a := range s.Call.Args {
				w.walkExpr(a, st, false)
			}
			w.walkStmts(lit.Body.List, &state{held: map[string]lockCount{}})
		} else {
			w.walkExpr(s.Call, st, false)
		}
		return st
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end, so it
		// is deliberately NOT applied to the state. Other deferred
		// calls (including func literals) are walked with the current
		// state as an approximation of the at-return state.
		if path, kind, ok := w.lockCall(s.Call); ok && (kind == "Unlock" || kind == "RUnlock") {
			_ = path
			return st
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			for _, a := range s.Call.Args {
				w.walkExpr(a, st, false)
			}
			w.walkStmts(lit.Body.List, st.clone())
		} else {
			w.walkExpr(s.Call, st, false)
		}
		return st
	case *ast.SendStmt:
		w.walkExpr(s.Chan, st, false)
		w.walkExpr(s.Value, st, false)
		return st
	case *ast.EmptyStmt:
		return st
	}
	return st
}

// walkCases joins the outcomes of a switch/select body's clauses.
func (w *walker) walkCases(body *ast.BlockStmt, st *state, isSelect bool) *state {
	var outs []*state
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.walkExpr(e, st, false)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			sub := st.clone()
			if c.Comm != nil {
				if out := w.walkStmt(c.Comm, sub); out == nil {
					continue
				}
			}
			outs = append(outs, w.walkStmts(c.Body, sub))
			continue
		}
		outs = append(outs, w.walkStmts(stmts, st.clone()))
	}
	if !hasDefault && !isSelect {
		outs = append(outs, st)
	}
	allNil := true
	for _, o := range outs {
		if o != nil {
			allNil = false
		}
	}
	if allNil && len(outs) > 0 {
		return nil
	}
	return join(outs...)
}

// walkLHS checks an assignment target: the core selector being stored
// through is a write access, while inner expressions (indexes, bases)
// are reads.
func (w *walker) walkLHS(e ast.Expr, st *state) {
	switch e := e.(type) {
	case *ast.Ident:
		w.checkIdent(e, st, true)
	case *ast.SelectorExpr:
		w.checkSelector(e, st, true)
		w.walkExpr(e.X, st, false)
	case *ast.IndexExpr:
		// m[k] = v writes the container: charge the core expr as a write.
		w.walkLHS(e.X, st)
		w.walkExpr(e.Index, st, false)
	case *ast.StarExpr:
		w.walkExpr(e.X, st, false)
	case *ast.ParenExpr:
		w.walkLHS(e.X, st)
	default:
		w.walkExpr(e, st, false)
	}
}

// walkExpr visits an expression in evaluation order, applying lock
// transitions and access checks.
func (w *walker) walkExpr(e ast.Expr, st *state, write bool) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Ident:
		w.checkIdent(e, st, write)
	case *ast.SelectorExpr:
		w.checkSelector(e, st, write)
		w.walkExpr(e.X, st, false)
	case *ast.CallExpr:
		if path, kind, ok := w.lockCall(e); ok {
			w.applyLock(st, path, kind)
			return
		}
		w.walkExpr(e.Fun, st, false)
		for _, a := range e.Args {
			w.walkExpr(a, st, false)
		}
	case *ast.FuncLit:
		// Closure bodies inherit the lock state at creation.
		w.walkStmts(e.Body.List, st.clone())
	case *ast.BinaryExpr:
		w.walkExpr(e.X, st, false)
		w.walkExpr(e.Y, st, false)
	case *ast.UnaryExpr:
		w.walkExpr(e.X, st, false)
	case *ast.ParenExpr:
		w.walkExpr(e.X, st, write)
	case *ast.IndexExpr:
		w.walkExpr(e.X, st, false)
		w.walkExpr(e.Index, st, false)
	case *ast.IndexListExpr:
		w.walkExpr(e.X, st, false)
		for _, i := range e.Indices {
			w.walkExpr(i, st, false)
		}
	case *ast.SliceExpr:
		w.walkExpr(e.X, st, false)
		w.walkExpr(e.Low, st, false)
		w.walkExpr(e.High, st, false)
		w.walkExpr(e.Max, st, false)
	case *ast.StarExpr:
		w.walkExpr(e.X, st, false)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, st, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.walkExpr(el, st, false)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Key, st, false)
		w.walkExpr(e.Value, st, false)
	}
}

// lockCall recognizes `<path>.Lock()` / `RLock` / `Unlock` / `RUnlock` /
// `TryLock` / `TryRLock` on a sync mutex with a printable base path.
func (w *walker) lockCall(call *ast.CallExpr) (path, kind string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	t := w.pass.Info.Types[sel.X].Type
	if t == nil || !isMutexType(t) {
		return "", "", false
	}
	path = analysis.PrintPath(sel.X)
	if path == "" {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

func (w *walker) applyLock(st *state, path, kind string) {
	lc := st.held[path]
	switch kind {
	case "Lock", "TryLock":
		lc.w++
		lc.r++
	case "RLock", "TryRLock":
		lc.r++
	case "Unlock":
		lc.w--
		lc.r--
	case "RUnlock":
		lc.r--
	}
	if lc.r < 0 {
		lc.r = 0
	}
	if lc.w < 0 {
		lc.w = 0
	}
	if lc.r == 0 && lc.w == 0 {
		delete(st.held, path)
	} else {
		st.held[path] = lc
	}
}

// checkSelector verifies an access to base.field against the guard
// annotations.
func (w *walker) checkSelector(sel *ast.SelectorExpr, st *state, write bool) {
	obj := w.pass.Info.Uses[sel.Sel]
	if obj == nil {
		if s, ok := w.pass.Info.Selections[sel]; ok {
			obj = s.Obj()
		}
	}
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); ok {
		// A field of an instantiated generic type is a copy of the
		// declared field the annotation names.
		obj = v.Origin()
	}
	g, ok := w.guarded[obj]
	if !ok {
		return
	}
	base := analysis.PrintPath(sel.X)
	if base == "" {
		// The base is not a plain ident/selector path (call result,
		// index expression); the guarding mutex cannot be matched by
		// name, so the access is out of scope for this syntactic check.
		return
	}
	if id, isID := unwrapIdent(sel.X); isID {
		if o := w.pass.Info.Uses[id]; o != nil && w.fresh[o] && len(strings.Split(base, ".")) == 1 {
			return // freshly constructed local value
		}
	}
	w.checkHeld(sel.Pos(), obj.Name(), base+"."+g.mu, st, write)
}

// checkIdent verifies a bare-identifier access against package-level
// guard annotations.
func (w *walker) checkIdent(id *ast.Ident, st *state, write bool) {
	obj := w.pass.Info.Uses[id]
	if obj == nil {
		return
	}
	g, ok := w.guarded[obj]
	if !ok || !g.pkgLevel {
		return
	}
	w.checkHeld(id.Pos(), obj.Name(), g.mu, st, write)
}

// checkHeld reports the access unless the lock at lockPath is held in
// the needed mode on every path reaching pos.
func (w *walker) checkHeld(pos token.Pos, field, lockPath string, st *state, write bool) {
	lc := st.held[lockPath]
	var msg string
	if write {
		switch {
		case lc.w > 0:
			return
		case lc.r > 0:
			msg = "write to %q requires %s held in write mode, but only a read lock is held"
		default:
			msg = "write to %q without %s held"
		}
	} else {
		if lc.r > 0 || lc.w > 0 {
			return
		}
		msg = "read of %q without %s held"
	}
	p := w.pass.Fset.Position(pos)
	key := p.Filename + ":" + strconv.Itoa(p.Line) + ":" + field + ":" + lockPath
	if w.reported == nil {
		w.reported = map[string]bool{}
	}
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.pass.Reportf(pos, msg, field, lockPath)
}

// hasBreak reports whether the block contains a break that targets the
// enclosing loop (not one inside a nested loop, switch, or select).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.BranchStmt:
			if s.Tok == token.BREAK {
				found = true
			}
		case *ast.BlockStmt:
			for _, sub := range s.List {
				walk(sub)
			}
		case *ast.IfStmt:
			walk(s.Body)
			if s.Else != nil {
				walk(s.Else)
			}
		case *ast.LabeledStmt:
			walk(s.Stmt)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.ForStmt, *ast.RangeStmt:
			// break inside these targets them, not our loop; labeled
			// breaks through them are rare enough to ignore here.
		}
	}
	for _, s := range body.List {
		walk(s)
	}
	return found
}

func unwrapIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
