// Command rjquery runs one top-k join query on generated TPC-H data with
// a chosen algorithm and prints the ranked results plus the three paper
// metrics — a one-shot exploration tool.
//
// Usage: rjquery [-q q1|q2] [-algo auto] [-k 10] [-sf 0.005] [-profile ec2|lc]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	rankjoin "repro"
	"repro/internal/benchkit"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// algorithms lists what -algo accepts: the planner mode, the naive
// reference and every other algorithm.
func algorithms() []rankjoin.Algorithm {
	return append([]rankjoin.Algorithm{rankjoin.AlgoAuto, rankjoin.AlgoNaive}, rankjoin.Algorithms()...)
}

// run parses args, runs the query and prints the ranked results and
// costs to stdout.
func run(args []string, stdout io.Writer) error {
	var names []string
	for _, a := range algorithms() {
		names = append(names, string(a))
	}
	accepted := strings.Join(names, ", ") + " (anyk is an alias of isl)"
	fs := flag.NewFlagSet("rjquery", flag.ContinueOnError)
	queryName := fs.String("q", "q1", "query: q1 (Part x Lineitem, product) or q2 (Orders x Lineitem, sum)")
	algoName := fs.String("algo", "auto", "algorithm: "+accepted)
	k := fs.Int("k", 10, "result size")
	sf := fs.Float64("sf", 0.005, "TPC-H scale factor")
	profile := fs.String("profile", "ec2", "hardware profile: ec2 or lc")
	if err := fs.Parse(args); err != nil {
		return err
	}
	algo := rankjoin.Algorithm(strings.ToLower(*algoName))
	if algo != rankjoin.AlgoAnyK && !slices.Contains(algorithms(), algo) {
		return fmt.Errorf("unknown algorithm %q (want one of %s)", *algoName, accepted)
	}

	p := sim.EC2()
	if *profile == "lc" {
		p = sim.LC()
	}
	env, err := benchkit.Setup(p, *sf, 1)
	if err != nil {
		return err
	}
	q := env.Q1
	if strings.EqualFold(*queryName, "q2") {
		q = env.Q2
	}
	res, err := env.Run(q, algo, *k)
	if err != nil {
		return err
	}
	ran := res.Algorithm
	if algo == rankjoin.AlgoAuto {
		ran = fmt.Sprintf("%s (planner-chosen)", res.Algorithm)
	}
	fmt.Fprintf(stdout, "%s via %s, k=%d on %s (SF %g):\n\n", strings.ToUpper(*queryName), ran, *k, p.Name, *sf)
	for i, r := range res.Results {
		fmt.Fprintf(stdout, "%3d. %s + %s  (join %s)  score %.6f\n",
			i+1, r.Left.RowKey, r.Right.RowKey, r.Left.JoinValue, r.Score)
	}
	fmt.Fprintf(stdout, "\nquery time : %v\n", res.Cost.SimTime)
	fmt.Fprintf(stdout, "network    : %d bytes\n", res.Cost.NetworkBytes)
	fmt.Fprintf(stdout, "dollar cost: %d KV read units ($%.2f)\n", res.Cost.KVReads, res.Cost.Dollars())
	if res.Estimate != nil {
		fmt.Fprintf(stdout, "planned    : est time %v, est net %d bytes, est %d read units\n",
			res.Estimate.SimTime, res.Estimate.NetworkBytes, res.Estimate.KVReads)
	}
	return nil
}
