// Command rjlint is the repo's multichecker: it runs `go vet` over the
// requested packages, then the three repo-specific analyzers —
// lockcheck, chargecheck, maintcheck — from internal/analysis.
//
// Usage:
//
//	go run ./cmd/rjlint [-v] [-novet] [packages...]
//
// With no packages, ./... is checked. Exit status follows go vet's
// convention: 0 clean, 1 findings, 2 load/run errors. Suppressions
// (//lint:allow <analyzer> <reason>) are honored and counted; a
// suppression without a reason is reported as a finding itself.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"

	"repro/internal/analysis"
	"repro/internal/analysis/chargecheck"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/maintcheck"
)

var analyzers = []*analysis.Analyzer{
	lockcheck.Analyzer,
	chargecheck.Analyzer,
	maintcheck.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is rjlint with its arguments and output streams passed in; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rjlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "list suppressed findings")
	noVet := fs.Bool("novet", false, "skip the `go vet` pre-pass")
	help := fs.Bool("help", false, "describe the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return analysis.ExitClean
		}
		return analysis.ExitError
	}

	if *help {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return analysis.ExitClean
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	exit := analysis.ExitClean
	if !*noVet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				if code := ee.ExitCode(); code > exit {
					exit = code
				}
			} else {
				fmt.Fprintf(stderr, "rjlint: go vet: %v\n", err)
				exit = analysis.ExitError
			}
		}
	}

	if code := analysis.Run(analyzers, patterns, stdout, *verbose); code > exit {
		exit = code
	}
	return exit
}
