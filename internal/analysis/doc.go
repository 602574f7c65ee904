// Package analysis is the repo's static-analysis framework: a minimal
// mirror of golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic)
// plus a source-importer-based loader, an annotation grammar, and a
// //lint:allow suppression mechanism. It exists locally because the
// build container has no module proxy; see the Analyzer doc comment.
//
// # Analyzers
//
// Three repo-specific analyzers live in subpackages and are bundled
// into the cmd/rjlint multichecker:
//
//   - lockcheck — verifies `guarded by:` field annotations: every
//     access to an annotated field must hold the named mutex on a
//     dominating path, be inside a `fooLocked`/`// locked:` function,
//     or target a freshly constructed value.
//   - chargecheck — verifies internal/kvstore's billing discipline:
//     a function that touches segment/memtable/WAL data (directly or
//     through an OpStats-returning primitive) must charge a sim.Metrics
//     counter before every success return.
//   - maintcheck — verifies that base-table mutations (Cluster.Put,
//     BatchPut, GroupWrite, BulkWrite) outside package kvstore
//     happen only inside the core.Maintainer write-through pipeline,
//     so derived indexes cannot silently go stale.
//
// # Annotation grammar
//
// Field guards (struct fields or package-level vars; trailing line
// comment or doc comment):
//
//	regions []*Region // guarded by: mu
//
// Lock preconditions (function doc comment, receiver-relative paths,
// comma-separated), or equivalently the `Locked` name suffix for the
// receiver's field named mu:
//
//	// locked: r.mu, s.mu
//
// Suppressions — the reason is mandatory and reason-less suppressions
// are themselves reported, so the tree carries zero unexplained ones:
//
//	//lint:allow <analyzer> <reason>
//
// A suppression covers findings on its own line, the line below, or —
// when part of a function's doc comment — the whole function.
//
// # Running
//
//	go run ./cmd/rjlint ./...        # all three analyzers + go vet
//	go run ./cmd/rjlint -v ./...     # also list suppressed findings
//	go run ./cmd/rjlint -novet ./... # skip the go vet pre-pass
//
// rjlint exits 0 when clean, 1 with findings, 2 on load errors.
package analysis
