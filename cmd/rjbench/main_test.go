package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenPath pins every figure rjbench prints at the CI scale factors.
// A change that moves a figure updates the file and says which rows
// moved and why; delete the file and run the test twice to regenerate
// it.
const goldenPath = "testdata/figures.golden"

// goldenArgs are the CI scale factors, small enough for a tier-1 test.
var goldenArgs = []string{"-fig", "all", "-sf", "0.005", "-lcsf", "0.005", "-distsf", "0.002", "-chainrows", "500"}

// TestFiguresGolden runs every figure once, in process, and compares
// the output byte for byte with the golden. Every figure reports
// simulated costs only, so a repeat run prints the same bytes.
func TestFiguresGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(goldenArgs, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and re-run", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(gotLines), len(wantLines)) && shown < 20; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d\n got %s\nwant %s", goldenPath, i+1, g, w)
			shown++
		}
	}
}

// TestRunUnknownFigure: a -fig name outside the figure list fails
// before any data is generated, and the error lists every valid name.
func TestRunUnknownFigure(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-fig", "7z"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown figure "7z"`) {
		t.Fatalf("err = %v, want the unknown-figure error", err)
	}
	for _, f := range figures {
		if !strings.Contains(err.Error(), f.name) {
			t.Errorf("error %q does not list figure %q", err, f.name)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q before failing", out.String())
	}
}
