// Command rjbench regenerates the paper's evaluation tables and figures
// (Section 7.2) as printed series, one block per figure:
//
//	rjbench -fig all                 # everything
//	rjbench -fig 7a                  # Q1 query time on EC2
//	rjbench -fig 8f                  # Q2 dollar cost on LC
//	rjbench -fig 9                   # indexing time
//	rjbench -fig sizes               # index disk sizes (Section 7.2 list)
//	rjbench -fig updates             # online-update overhead experiment
//	rjbench -fig mixed               # mixed read/write workload: write
//	                                 # throughput, batched-vs-per-cell
//	                                 # write RPCs, per-executor freshness
//	rjbench -fig storage             # in-memory vs on-disk SSTable
//	                                 # engine: point gets (cold/warm),
//	                                 # scans, merge drain, sustained
//	                                 # load, Q1/Q2 wall-clock
//	rjbench -fig chain               # any-k vs doubling-depth adapter
//	                                 # on 3/4/5-relation band chains at
//	                                 # k in {1,10,100}
//	rjbench -sf 0.05 -lcsf 0.1       # larger scale factors
//
// Figures 7a-7f come from one EC2 measurement set (Q1 and Q2 series);
// figures 8a-8f from one LC set; the three metrics are projections of
// the same runs, exactly as in the paper.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	rankjoin "repro"
	"repro/internal/benchkit"
	"repro/internal/sim"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 7a..7f, 8a..8f, 9, sizes, mem, updates, mixed, paging, storage, distribution, chain, all")
	sfEC2 := flag.Float64("sf", 0.02, "TPC-H scale factor for the EC2 profile runs")
	sfLC := flag.Float64("lcsf", 0.04, "TPC-H scale factor for the LC profile runs")
	distSF := flag.Float64("distsf", 0.005, "TPC-H scale factor for the distribution figure (loaded 3x: once per replica)")
	chainRows := flag.Int("chainrows", 2000, "rows per leaf relation for the chain figure")
	flag.Parse()

	want := func(names ...string) bool {
		if *fig == "all" {
			return true
		}
		for _, n := range names {
			if strings.EqualFold(n, *fig) {
				return true
			}
		}
		return false
	}

	needEC2 := want("7a", "7b", "7c", "7d", "7e", "7f", "9", "sizes", "updates", "paging", "mixed")
	needLC := want("8a", "8b", "8c", "8d", "8e", "8f", "9")

	var ec2Env, lcEnv *benchkit.Env
	var err error
	if needEC2 {
		fmt.Fprintf(os.Stderr, "setting up EC2 environment (SF %g)...\n", *sfEC2)
		ec2Env, err = benchkit.Setup(sim.EC2(), *sfEC2, 1)
		if err != nil {
			log.Fatal(err)
		}
		p, o, l := ec2Env.Counts()
		fmt.Printf("EC2 profile: 1+%d nodes, SF %g (%d parts, %d orders, %d lineitems)\n\n",
			sim.EC2().Nodes, *sfEC2, p, o, l)
	}
	if needLC {
		fmt.Fprintf(os.Stderr, "setting up LC environment (SF %g)...\n", *sfLC)
		lcEnv, err = benchkit.Setup(sim.LC(), *sfLC, 1)
		if err != nil {
			log.Fatal(err)
		}
		p, o, l := lcEnv.Counts()
		fmt.Printf("LC profile: %d nodes, SF %g (%d parts, %d orders, %d lineitems)\n\n",
			sim.LC().Nodes, *sfLC, p, o, l)
	}

	series := map[string][]benchkit.Cell{}
	get := func(e *benchkit.Env, q rankjoin.Query, key string, algos []rankjoin.Algorithm) []benchkit.Cell {
		if s, ok := series[key]; ok {
			return s
		}
		fmt.Fprintf(os.Stderr, "measuring %s...\n", key)
		s, err := e.Series(q, algos, benchkit.KValues)
		if err != nil {
			log.Fatal(err)
		}
		series[key] = s
		return s
	}

	type figSpec struct {
		id     string
		title  string
		isLC   bool
		isQ2   bool
		metric benchkit.Metric
	}
	specs := []figSpec{
		{"7a", "Figure 7(a): Q1 on EC2", false, false, benchkit.MetricTime},
		{"7b", "Figure 7(b): Q1 on EC2", false, false, benchkit.MetricBandwidth},
		{"7c", "Figure 7(c): Q1 on EC2", false, false, benchkit.MetricDollar},
		{"7d", "Figure 7(d): Q2 on EC2", false, true, benchkit.MetricTime},
		{"7e", "Figure 7(e): Q2 on EC2", false, true, benchkit.MetricBandwidth},
		{"7f", "Figure 7(f): Q2 on EC2", false, true, benchkit.MetricDollar},
		{"8a", "Figure 8(a): Q1 on LC", true, false, benchkit.MetricTime},
		{"8b", "Figure 8(b): Q1 on LC", true, false, benchkit.MetricBandwidth},
		{"8c", "Figure 8(c): Q1 on LC", true, false, benchkit.MetricDollar},
		{"8d", "Figure 8(d): Q2 on LC", true, true, benchkit.MetricTime},
		{"8e", "Figure 8(e): Q2 on LC", true, true, benchkit.MetricBandwidth},
		{"8f", "Figure 8(f): Q2 on LC", true, true, benchkit.MetricDollar},
	}
	for _, s := range specs {
		if !want(s.id) {
			continue
		}
		e := ec2Env
		algos := benchkit.Algorithms
		if s.isLC {
			e = lcEnv
			algos = benchkit.LCAlgorithms
		}
		q := e.Q1
		key := e.Profile.Name + "-q1"
		if s.isQ2 {
			q = e.Q2
			key = e.Profile.Name + "-q2"
		}
		cells := get(e, q, key, algos)
		fmt.Println(benchkit.FormatTable(s.title, cells, s.metric))
	}

	if want("9") {
		fmt.Println("Figure 9: indexing time")
		for _, e := range []*benchkit.Env{ec2Env, lcEnv} {
			if e == nil {
				continue
			}
			fmt.Println(e.IndexingReport())
		}
	}
	if want("sizes") && ec2Env != nil && *fig != "all" {
		fmt.Println(ec2Env.IndexingReport())
	}
	if want("updates") && ec2Env != nil {
		fmt.Println("Online updates (Section 7.2): BFHM query-time replay overhead")
		for set := 1; set <= 3; set++ {
			overhead, applied, err := ec2Env.UpdateExperiment(set)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("update set %d: %d mutations applied, query-time overhead %.2f%% (paper: < 10%%)\n",
				set, applied, overhead)
		}
		fmt.Println()
	}
	if want("mixed") && ec2Env != nil {
		report, err := ec2Env.MixedWorkloadReport(400, 50)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report)
	}
	if want("paging") && ec2Env != nil {
		report, err := ec2Env.PagingReport(ec2Env.Q1, []rankjoin.Algorithm{
			rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN,
		}, 10, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report)
	}
	if want("mem") {
		report, err := benchkit.MemoryReport(sim.LC(), *sfLC/4, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report)
	}
	if want("distribution") {
		fmt.Fprintln(os.Stderr, "measuring distribution (single process vs 3-node replicated cluster)...")
		report, err := benchkit.DistributionReport(sim.EC2(), *distSF, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report)
	}
	if want("chain") {
		fmt.Fprintln(os.Stderr, "measuring chain queries (any-k vs doubling-depth adapter)...")
		report, err := benchkit.ChainReport(sim.LC(), *chainRows, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report)
	}
	if want("storage") {
		fmt.Fprintln(os.Stderr, "measuring storage engine (memory vs disk)...")
		dir, err := os.MkdirTemp("", "rjbench-storage-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		report, err := benchkit.StorageReport(dir, *sfEC2, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report)
	}
}
