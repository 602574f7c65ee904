package maintcheck_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/maintcheck"
)

func TestMaintcheck(t *testing.T) {
	results := analysistest.Run(t, "testdata", maintcheck.Analyzer, "core", "client", "kvstore")

	if got := len(results["client"].Suppressed); got != 2 {
		t.Errorf("client: suppressed findings = %d, want 2 (bulkLoad's BatchPut and BulkWrite)", got)
	}
	// Package kvstore itself is the pipeline's floor: never flagged.
	if got := len(results["kvstore"].Kept) + len(results["kvstore"].Suppressed); got != 0 {
		t.Errorf("kvstore: diagnostics = %d, want 0", got)
	}
}
