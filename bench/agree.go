package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkJSON is the part of BENCHMARK.json the agreement check
// reads: the bounds are fixed there, not here.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agreeCmd prints, per workload and end-to-end metric, both files'
// values, how much worse b is than a as a share of a, and the bound;
// it returns non-zero when any difference exceeds its bound. The same
// table serves the self-agreement check (two runs of one commit) and a
// parent-vs-change report.
func agreeCmd(pathA, pathB string) int {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: --agree reads the bounds from BENCHMARK.json:", err)
		return 2
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(raw, &bm); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	a, err := readReports(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readReports(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	over := 0
	fmt.Printf("%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, name := range sortedKeys(a.Workloads) {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			fmt.Printf("%-18s only in %s\n", name, pathA)
			over++
			continue
		}
		for _, m := range bm.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			worse := worseBy(va, vb, m.Better == "higher")
			flag := ""
			if math.Abs(worse) > m.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", name, m.Name, va, vb, 100*worse, 100*m.Bound, flag)
		}
	}
	for _, name := range sortedKeys(b.Workloads) {
		if a.Workloads[name] == nil {
			fmt.Printf("%-18s only in %s\n", name, pathB)
			over++
		}
	}
	if over > 0 {
		fmt.Printf("%d differences exceed their bound\n", over)
		return 1
	}
	fmt.Println("every difference is within its bound")
	return 0
}

// worseBy is how much worse b is than a, as a share of a; negative
// when b is better.
func worseBy(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherIsBetter {
		return (a - b) / a
	}
	return (b - a) / a
}
