package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestRun drives rjlint's run on the fixture packages under testdata,
// checking the exit status and what it prints.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		exit int
		want []string // substrings of stdout
	}{
		{"help lists the analyzers", []string{"-help"}, analysis.ExitClean,
			[]string{"lockcheck: ", "chargecheck: ", "maintcheck: "}},
		// The clean case keeps the go vet pre-pass: it must pass too.
		{"clean package", []string{"./testdata/clean"}, analysis.ExitClean, nil},
		{"unlocked read", []string{"-novet", "./testdata/unlocked"}, analysis.ExitFindings,
			[]string{`unlocked.go:13:9: read of "n" without c.mu held [lockcheck]`, "rjlint: 1 finding(s)"}},
		{"suppression without a reason", []string{"-novet", "./testdata/noreason"}, analysis.ExitFindings,
			[]string{"noreason.go:15:9: ", "(suppression has no reason", "rjlint: 1 finding(s)"}},
		{"unknown flag", []string{"-nosuchflag"}, analysis.ExitError, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.exit {
				t.Fatalf("run(%q) = %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.args, got, tc.exit, stdout.String(), stderr.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout.String(), w) {
					t.Errorf("stdout lacks %q:\n%s", w, stdout.String())
				}
			}
			if tc.exit == analysis.ExitClean && tc.want == nil && stdout.Len() > 0 {
				t.Errorf("clean run printed:\n%s", stdout.String())
			}
		})
	}
}
