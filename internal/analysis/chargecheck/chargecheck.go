// Package chargecheck verifies the kvstore billing discipline: the
// simulated cluster's cost model only works if every operation that
// touches storage (memtable, segments, WAL) charges a sim.Metrics
// counter before reporting success.
//
// A function "touches storage" when it calls a storage primitive: any
// function whose results include kvstore's OpStats type (directly or as
// a struct field), or one of the named primitives
// (writes: applyRow, mutateRow, applyMutation; disk: writeSSTable,
// readDataBlock, readIndexBlock, registerSegments — the block readers
// take OpStats as a parameter rather than returning it, so the result
// heuristic cannot see them).
// A function "charges" when it calls a method on
// sim.Metrics (Charge, Count, Advance), or a package-local helper that
// itself always charges (computed as a fixpoint, so a charging wrapper
// counts). Pricing is not charging: sim.Profile.Price only
// computes a duration, so a function that prices its work and never
// hands the price or the counts to a sim.Metrics is flagged.
//
// Functions that are themselves primitives — their own results include
// OpStats, or they are on the write-primitive list — are exempt: their
// callers carry the charging obligation.
//
// Only "success returns" are flagged: a return whose final result is a
// nil error literal, any return of a function with no error result, and
// the implicit return at the end of a function body. Error returns may
// skip charging freely.
package chargecheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the chargecheck pass. It only inspects packages named
// "kvstore"; everything else is out of scope by construction.
var Analyzer = &analysis.Analyzer{
	Name: "chargecheck",
	Doc:  "reports kvstore functions that can return success after touching storage without charging sim.Metrics",
	Run:  run,
}

// writePrimitives are storage-touching functions identified by name
// (their signatures do not expose OpStats in their results). The disk
// primitives are included so the on-disk read/write paths carry the
// same billing obligation as the in-memory ones: readDataBlock and
// readIndexBlock accumulate into an OpStats *parameter*, which the
// result-type heuristic cannot see.
var writePrimitives = map[string]bool{
	"applyRow":         true,
	"mutateRow":        true,
	"applyMutation":    true,
	"writeSSTable":     true,
	"readDataBlock":    true,
	"readIndexBlock":   true,
	"registerSegments": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() != "kvstore" {
		return nil
	}
	c := &checker{pass: pass, alwaysCharges: map[*types.Func]bool{}}
	c.computeAlwaysCharges()
	c.reporting = true
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if c.isExempt(fd) {
				continue
			}
			c.fn = fd
			st := c.walkStmts(fd.Body.List, pathState{})
			// Implicit return at the end of the body is a success
			// return for functions that can reach it.
			if st != nil && st.touched && !st.charged {
				pass.Reportf(fd.Name.Pos(), "%s touches storage but can fall off the end without charging sim.Metrics", fd.Name.Name)
			}
		}
	}
	return nil
}

type checker struct {
	pass          *analysis.Pass
	alwaysCharges map[*types.Func]bool
	fn            *ast.FuncDecl
	// reporting is false during the always-charges fixpoint, so the
	// pre-pass never emits diagnostics.
	reporting bool
}

// pathState tracks one control-flow path: has it touched storage, and
// has it charged a metrics counter since entry.
type pathState struct {
	touched bool
	charged bool
}

// joinStates merges flowing paths: touched if any path touched, charged
// only if every path charged.
func joinStates(states []*pathState) *pathState {
	var flowing []*pathState
	for _, s := range states {
		if s != nil {
			flowing = append(flowing, s)
		}
	}
	if len(flowing) == 0 {
		return nil
	}
	out := *flowing[0]
	for _, s := range flowing[1:] {
		out.touched = out.touched || s.touched
		out.charged = out.charged && s.charged
	}
	return &out
}

// ---- fixpoint: which package-local functions always charge ----

func (c *checker) computeAlwaysCharges() {
	type fn struct {
		obj  *types.Func
		decl *ast.FuncDecl
	}
	var fns []fn
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := c.pass.Info.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, fn{obj, fd})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if c.alwaysCharges[f.obj] {
				continue
			}
			if c.fnAlwaysCharges(f.decl) {
				c.alwaysCharges[f.obj] = true
				changed = true
			}
		}
	}
}

// fnAlwaysCharges reports whether every path through fd (success or
// not) charges before returning.
func (c *checker) fnAlwaysCharges(fd *ast.FuncDecl) bool {
	all := true
	var prev *ast.FuncDecl
	prev, c.fn = c.fn, fd
	defer func() { c.fn = prev }()
	var walk func(list []ast.Stmt, st pathState) *pathState
	walk = func(list []ast.Stmt, st pathState) *pathState {
		for _, s := range list {
			out := c.walkStmtGeneric(s, &st, func(ret pathState) {
				if !ret.charged {
					all = false
				}
			}, walk)
			if out == nil {
				return nil
			}
			st = *out
		}
		return &st
	}
	end := walk(fd.Body.List, pathState{})
	if end != nil && !end.charged {
		all = false
	}
	return all
}

// ---- main walk ----

// walkStmts walks a statement list, reporting uncharged success
// returns; returns nil when control cannot reach past the list.
func (c *checker) walkStmts(list []ast.Stmt, st pathState) *pathState {
	for _, s := range list {
		out := c.walkStmtGeneric(s, &st, func(ret pathState) {
			// onReturn is invoked with the state at an explicit return;
			// the caller-specific check lives in walkStmtGeneric's
			// isSuccessReturn handling, so this callback only fires for
			// flagged success returns.
		}, c.walkStmts)
		if out == nil {
			return nil
		}
		st = *out
	}
	return &st
}

// walkStmtGeneric walks one statement. onReturn observes the state at
// every explicit return (used by the fixpoint); the main analysis also
// reports uncharged success returns directly. walkList recurses into
// nested statement lists with the matching reporting behavior.
func (c *checker) walkStmtGeneric(s ast.Stmt, st *pathState, onReturn func(pathState), walkList func([]ast.Stmt, pathState) *pathState) *pathState {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return walkList(s.List, *st)
	case *ast.ExprStmt:
		c.walkExpr(s.X, st)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return nil
			}
		}
		return st
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.walkExpr(r, st)
		}
		for _, l := range s.Lhs {
			c.walkExpr(l, st)
		}
		return st
	case *ast.IncDecStmt:
		c.walkExpr(s.X, st)
		return st
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.walkExpr(v, st)
					}
				}
			}
		}
		return st
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.walkExpr(e, st)
		}
		onReturn(*st)
		if c.reporting && c.isSuccessReturn(s) && st.touched && !st.charged {
			c.pass.Reportf(s.Pos(), "%s touches storage but returns success here without charging sim.Metrics", c.fn.Name.Name)
		}
		return nil
	case *ast.BranchStmt:
		return nil
	case *ast.IfStmt:
		if s.Init != nil {
			if st = c.walkStmtGeneric(s.Init, st, onReturn, walkList); st == nil {
				return nil
			}
		}
		c.walkExpr(s.Cond, st)
		thenOut := walkList(s.Body.List, *st)
		var elseOut *pathState
		if s.Else != nil {
			elseOut = c.walkStmtGeneric(s.Else, clone(st), onReturn, walkList)
		} else {
			elseOut = clone(st)
		}
		return joinStates([]*pathState{thenOut, elseOut})
	case *ast.ForStmt:
		if s.Init != nil {
			if st = c.walkStmtGeneric(s.Init, st, onReturn, walkList); st == nil {
				return nil
			}
		}
		if s.Cond != nil {
			c.walkExpr(s.Cond, st)
		}
		body := walkList(s.Body.List, *st)
		if body != nil && s.Post != nil {
			body = c.walkStmtGeneric(s.Post, body, onReturn, walkList)
		}
		return joinStates([]*pathState{st, body})
	case *ast.RangeStmt:
		c.walkExpr(s.X, st)
		body := walkList(s.Body.List, *st)
		return joinStates([]*pathState{st, body})
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.walkCases(s, st, onReturn, walkList)
	case *ast.LabeledStmt:
		return c.walkStmtGeneric(s.Stmt, st, onReturn, walkList)
	case *ast.GoStmt:
		// Work handed to a goroutine is billed by whoever consumes it;
		// the spawning path itself neither touches nor charges here.
		for _, a := range s.Call.Args {
			c.walkExpr(a, st)
		}
		return st
	case *ast.DeferStmt:
		// A deferred charge covers every subsequent return.
		sub := pathState{}
		c.walkExpr(s.Call, &sub)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			inner := pathState{}
			for _, bs := range lit.Body.List {
				ast.Inspect(bs, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						c.applyCall(call, &inner)
					}
					return true
				})
			}
			sub.charged = sub.charged || inner.charged
			sub.touched = sub.touched || inner.touched
		}
		st.charged = st.charged || sub.charged
		st.touched = st.touched || sub.touched
		return st
	case *ast.SendStmt:
		c.walkExpr(s.Chan, st)
		c.walkExpr(s.Value, st)
		return st
	}
	return st
}

func clone(st *pathState) *pathState {
	cp := *st
	return &cp
}

func (c *checker) walkCases(s ast.Stmt, st *pathState, onReturn func(pathState), walkList func([]ast.Stmt, pathState) *pathState) *pathState {
	var body *ast.BlockStmt
	hasDefault := false
	isSelect := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			if st = c.walkStmtGeneric(s.Init, st, onReturn, walkList); st == nil {
				return nil
			}
		}
		if s.Tag != nil {
			c.walkExpr(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			if st = c.walkStmtGeneric(s.Init, st, onReturn, walkList); st == nil {
				return nil
			}
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
		isSelect = true
	}
	var outs []*pathState
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				c.walkExpr(e, st)
			}
			outs = append(outs, walkList(cl.Body, *st))
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			sub := *st
			if cl.Comm != nil {
				if out := c.walkStmtGeneric(cl.Comm, &sub, onReturn, walkList); out == nil {
					continue
				} else {
					sub = *out
				}
			}
			outs = append(outs, walkList(cl.Body, sub))
		}
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
	return joinStates(outs)
}

// walkExpr applies touch/charge transitions for every call inside e.
// Function literals not invoked on the spot are skipped: their bodies
// run later, under someone else's billing.
func (c *checker) walkExpr(e ast.Expr, st *pathState) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.applyCall(n, st)
		}
		return true
	})
}

// applyCall updates st for one call expression.
func (c *checker) applyCall(call *ast.CallExpr, st *pathState) {
	if c.isChargingCall(call) {
		st.charged = true
		return
	}
	if c.isTouchingCall(call) {
		st.touched = true
	}
}

// isChargingCall recognizes sim.Metrics method calls and calls to
// package-local always-charging helpers.
func (c *checker) isChargingCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if ok {
		if s, found := c.pass.Info.Selections[sel]; found {
			recv := s.Recv()
			if p, isPtr := recv.(*types.Pointer); isPtr {
				recv = p.Elem()
			}
			if n, isNamed := recv.(*types.Named); isNamed {
				obj := n.Obj()
				if obj.Name() == "Metrics" && obj.Pkg() != nil && obj.Pkg().Name() == "sim" {
					return true
				}
			}
		}
	}
	if fn := c.calleeFunc(call); fn != nil && c.alwaysCharges[fn] {
		return true
	}
	return false
}

// isTouchingCall recognizes storage primitives: OpStats in the callee's
// results (directly or as a struct field), or a write-primitive name.
func (c *checker) isTouchingCall(call *ast.CallExpr) bool {
	fn := c.calleeFunc(call)
	if fn == nil {
		return false
	}
	if writePrimitives[fn.Name()] {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if typeCarriesOpStats(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// isExempt reports whether fd is itself a primitive whose callers bill.
func (c *checker) isExempt(fd *ast.FuncDecl) bool {
	if writePrimitives[fd.Name.Name] {
		return true
	}
	obj, ok := c.pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if typeCarriesOpStats(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// calleeFunc resolves the called function/method object, if static.
func (c *checker) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := c.pass.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := c.pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// typeCarriesOpStats reports whether t is kvstore's OpStats or a struct
// with an OpStats field, through one pointer.
func typeCarriesOpStats(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if isOpStatsNamed(n) {
		return true
	}
	s, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		ft := s.Field(i).Type()
		if fn, ok := ft.(*types.Named); ok && isOpStatsNamed(fn) {
			return true
		}
	}
	return false
}

func isOpStatsNamed(n *types.Named) bool {
	obj := n.Obj()
	return obj.Name() == "OpStats" && obj.Pkg() != nil && obj.Pkg().Name() == "kvstore"
}

// isSuccessReturn reports whether ret can represent a successful
// completion: the enclosing function has no final error result, or the
// final returned expression is the nil literal. Returns of named error
// results (bare `return`) and non-literal errors are treated as error
// paths and left unflagged.
func (c *checker) isSuccessReturn(ret *ast.ReturnStmt) bool {
	ft := c.fn.Type
	if ft.Results == nil || ft.Results.NumFields() == 0 {
		return true
	}
	fields := ft.Results.List
	last := fields[len(fields)-1]
	lt := c.pass.Info.Types[last.Type].Type
	if lt == nil || !isErrorType(lt) {
		return true
	}
	if len(ret.Results) == 0 {
		// Naked return with named error result: conservatively treat
		// as an error path.
		return false
	}
	lastExpr := ret.Results[len(ret.Results)-1]
	if id, ok := lastExpr.(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	return false
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}
