// Command bench is the repository's benchmark: four closed-loop
// workloads against the rank-join store, measured from outside through
// its public functions. README.md in this directory describes the
// workloads, the metrics and the measurement rules.
//
// Usage (from this directory, or through run.sh from the checkout root):
//
//	go run . [--workload all|<name>] [--seed 1] [--seconds 10] [--trace 0|1] [--out report.json]
//	go run . --agree a.json b.json
//
// The last line of standard output is the contract's result object for
// the workload run (one line per workload with --workload all).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// watchdogLimit bounds one workload's run. Past it the process reports
// the hang and exits non-zero instead of sitting in a stuck call.
const watchdogLimit = 170 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the op lists (the data sets are fixed)")
	seconds := fs.Int("seconds", 10, "how long the timed rounds should take on the reference machine; sizes the op lists")
	trace := fs.Int("trace", 0, "1 adds the traced round and layer probes and reports the per-layer metrics")
	out := fs.String("out", "", "also write the full report, per-round values included, to this file")
	agree := fs.Bool("agree", false, "compare two report files: --agree a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: --agree needs two report files")
			return 2
		}
		return agreeCmd(fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: want --seconds >= 1, --trace 0 or 1, and no other arguments")
		return 2
	}
	var todo []*workload
	if *workloadName == "all" {
		todo = workloads
	} else if w := workloadByName(*workloadName); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}

	// The bench runs from its own module directory (run.sh and
	// `go run -C bench .` both arrange that): building rjserve needs
	// this module's go.mod, and all output stays beneath the checkout.
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the bench directory (or use bench/run.sh)")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	buildDir, err := filepath.Abs(filepath.Join("..", ".bench_build"))
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return fail(err)
	}
	h := &harness{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: workDir, outDir: "out", log: os.Stdout,
		hooks: map[int]func(){},
	}
	h.onExit(func() { _ = os.RemoveAll(workDir) })
	defer h.runExitHooks()
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return fail(err)
	}

	// Every exit path runs the hooks: a signal and the watchdog do so
	// from their own goroutine and then end the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	watchdog := time.NewTimer(watchdogLimit)
	go func() {
		code := 130
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "bench: interrupted, cleaning up")
		case <-watchdog.C:
			fmt.Fprintf(os.Stderr, "bench: workload still running after %v, giving up\n", watchdogLimit)
			code = 3
		}
		h.runExitHooks()
		os.Exit(code)
	}()

	h.logf("flush policy of the store: %s", flushPolicy)
	var reps []*report
	var lines []string
	status := 0
	for _, w := range todo {
		watchdog.Reset(watchdogLimit)
		rep, err := h.runWorkload(w)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		rep.Correct = rep.Failed == 0
		if !rep.Correct {
			status = 1
		}
		rep.print(h, h.trace)
		reps = append(reps, rep)
		lines = append(lines, rep.resultLine(h.trace))
	}
	if *out != "" {
		if err := writeReports(*out, reps); err != nil {
			return fail(err)
		}
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	return status
}
