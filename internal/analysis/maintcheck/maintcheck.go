// Package maintcheck guards the index-maintenance invariant introduced
// by the write-through pipeline: derived indexes (IJLMR, ISL, BFHM,
// DRJN) stay consistent only when every base-table mutation flows
// through core.Maintainer, which shreds the write into index deltas and
// applies them in the same group.
//
// The analyzer flags calls to Cluster's write doors — the metered Put,
// BatchPut and GroupWrite, and the unmetered bulk door BulkWrite —
// anywhere outside (a) package kvstore itself, and (b) methods whose
// receiver is core.Maintainer, whose one Write entry point (and its
// batch form) ships every transition as a GroupWrite. Deliberate
// bypasses (bulk loaders that rebuild indexes afterwards, an index
// writing to its own table, the MapReduce runner landing a job's
// output) carry //lint:allow maintcheck suppressions with reasons.
package maintcheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the maintcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "maintcheck",
	Doc:  "reports base-table mutations that bypass the core.Maintainer write-through pipeline",
	Run:  run,
}

// mutators are the Cluster methods that change base-table cells.
var mutators = map[string]bool{
	"Put":        true,
	"BatchPut":   true,
	"GroupWrite": true,
	"BulkWrite":  true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "kvstore" {
		return nil // the storage layer's own internals are the pipeline's floor
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isMaintainerMethod(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !mutators[sel.Sel.Name] {
					return true
				}
				if !isClusterRecv(pass, sel) {
					return true
				}
				pass.Reportf(call.Pos(), "Cluster.%s mutates a base table outside the core.Maintainer pipeline; derived indexes will go stale", sel.Sel.Name)
				return true
			})
		}
	}
	return nil
}

// isMaintainerMethod reports whether fd is a method on (a pointer to)
// core's Maintainer type.
func isMaintainerMethod(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	t := pass.Info.Types[fd.Recv.List[0].Type].Type
	if t == nil {
		return false
	}
	return isNamed(t, "Maintainer", "core")
}

// isClusterRecv reports whether sel's receiver is kvstore's Cluster.
func isClusterRecv(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.Info.Selections[sel]
	if !ok {
		return false
	}
	return isNamed(s.Recv(), "Cluster", "kvstore")
}

// isNamed matches a (possibly pointer-to) named type by type name and
// defining package name. Matching by package NAME rather than import
// path lets analysistest fixtures stub the real packages.
func isNamed(t types.Type, name, pkgName string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}
