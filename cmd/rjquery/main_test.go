package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// resultLine matches one ranked row of rjquery's output.
var resultLine = regexp.MustCompile(`^\s*(\d+)\. \S+ \+ \S+  \(join \S+\)  score ([0-9.]+)$`)

// TestRunEveryAlgorithm runs Q1 with every algorithm -algo lists: each
// prints three rows in descending score and the three paper metrics.
func TestRunEveryAlgorithm(t *testing.T) {
	for _, algo := range algorithms() {
		var out bytes.Buffer
		if err := run([]string{"-q", "q1", "-algo", string(algo), "-sf", "0.001", "-k", "3"}, &out); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var scores []float64
		metrics := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if m := resultLine.FindStringSubmatch(line); m != nil {
				s, _ := strconv.ParseFloat(m[2], 64)
				scores = append(scores, s)
			}
			for _, prefix := range []string{"query time : ", "network    : ", "dollar cost: "} {
				if strings.HasPrefix(line, prefix) {
					metrics++
				}
			}
		}
		if len(scores) != 3 || metrics != 3 {
			t.Fatalf("%s: %d rows and %d metric lines, want 3 and 3:\n%s", algo, len(scores), metrics, out.String())
		}
		for i := 1; i < len(scores); i++ {
			if scores[i] > scores[i-1] {
				t.Fatalf("%s: scores not descending: %v", algo, scores)
			}
		}
	}
}

// TestRunAnyKAlias: -algo anyk, a name algorithms() does not list, runs
// the isl executor and says so.
func TestRunAnyKAlias(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-q", "q2", "-algo", "anyk", "-sf", "0.001", "-k", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Q2 via isl, k=3") {
		t.Fatalf("output does not report the isl executor:\n%s", out.String())
	}
}

// TestRunUnknownAlgorithm: an algorithm -algo does not list fails
// before any data is generated.
func TestRunUnknownAlgorithm(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-algo", "quicksort"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown algorithm "quicksort"`) {
		t.Fatalf("err = %v, want the unknown-algorithm error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q before failing", out.String())
	}
}
