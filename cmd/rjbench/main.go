// Command rjbench regenerates the paper's evaluation tables and figures
// (Section 7.2) as printed series, one block per figure:
//
//	rjbench -fig all                 # every figure below, in this order
//	rjbench -fig 7a                  # 7a-7f: Q1 and Q2 on EC2 (time,
//	                                 # bandwidth, dollar cost)
//	rjbench -fig 8f                  # 8a-8f: the same on LC
//	rjbench -fig 9                   # indexing time and index disk sizes
//	rjbench -fig updates             # online-update overhead experiment
//	rjbench -fig mixed               # mixed read/write workload: simulated
//	                                 # write cost, batched-vs-per-cell
//	                                 # write RPCs, per-executor freshness
//	rjbench -fig paging              # deep pagination through page tokens
//	                                 # vs re-running per page
//	rjbench -fig mem                 # reducer memory during index builds
//	rjbench -fig distribution        # single process vs 3-node replicated
//	                                 # cluster, plus repair economy
//	rjbench -fig chain               # any-k vs doubling-depth adapter
//	                                 # on 3/4/5-relation band chains at
//	                                 # k in {1,10,100}
//	rjbench -sf 0.05 -lcsf 0.1       # larger scale factors
//
// Figures 7a-7f come from one EC2 measurement set (Q1 and Q2 series);
// figures 8a-8f from one LC set; the three metrics are projections of
// the same runs, exactly as in the paper. Every number printed is a
// simulated cost, so the output is a function of the flags alone:
// testdata/figures.golden pins it at the CI scale factors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
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

// A figure is one block of output. ec2 and lc name the measurement
// environments it reads; run sets each up once, before the first block.
type figure struct {
	name    string
	ec2, lc bool
	report  func(b *bench) (string, error)
}

// figures lists every figure -fig accepts, in the order -fig all prints
// them. The mixed figure writes to the EC2 environment, so the blocks
// after it measure the store as it left it.
var figures = []figure{
	seriesFigure("7a", "Figure 7(a): Q1 on EC2", false, false, benchkit.MetricTime),
	seriesFigure("7b", "Figure 7(b): Q1 on EC2", false, false, benchkit.MetricBandwidth),
	seriesFigure("7c", "Figure 7(c): Q1 on EC2", false, false, benchkit.MetricDollar),
	seriesFigure("7d", "Figure 7(d): Q2 on EC2", false, true, benchkit.MetricTime),
	seriesFigure("7e", "Figure 7(e): Q2 on EC2", false, true, benchkit.MetricBandwidth),
	seriesFigure("7f", "Figure 7(f): Q2 on EC2", false, true, benchkit.MetricDollar),
	seriesFigure("8a", "Figure 8(a): Q1 on LC", true, false, benchkit.MetricTime),
	seriesFigure("8b", "Figure 8(b): Q1 on LC", true, false, benchkit.MetricBandwidth),
	seriesFigure("8c", "Figure 8(c): Q1 on LC", true, false, benchkit.MetricDollar),
	seriesFigure("8d", "Figure 8(d): Q2 on LC", true, true, benchkit.MetricTime),
	seriesFigure("8e", "Figure 8(e): Q2 on LC", true, true, benchkit.MetricBandwidth),
	seriesFigure("8f", "Figure 8(f): Q2 on LC", true, true, benchkit.MetricDollar),
	{name: "9", ec2: true, lc: true, report: func(b *bench) (string, error) {
		return "Figure 9: indexing time\n" + b.ec2.IndexingReport() + "\n" + b.lc.IndexingReport(), nil
	}},
	{name: "updates", ec2: true, report: func(b *bench) (string, error) {
		out := "Online updates (Section 7.2): BFHM query-time replay overhead\n"
		for set := 1; set <= 3; set++ {
			overhead, applied, err := b.ec2.UpdateExperiment(set)
			if err != nil {
				return "", err
			}
			out += fmt.Sprintf("update set %d: %d mutations applied, query-time overhead %.2f%% (paper: < 10%%)\n",
				set, applied, overhead)
		}
		return out, nil
	}},
	{name: "mixed", ec2: true, report: func(b *bench) (string, error) {
		return b.ec2.MixedWorkloadReport(400, 50)
	}},
	{name: "paging", ec2: true, report: func(b *bench) (string, error) {
		return b.ec2.PagingReport(b.ec2.Q1, []rankjoin.Algorithm{
			rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN,
		}, 10, 10)
	}},
	{name: "mem", report: func(b *bench) (string, error) {
		return benchkit.MemoryReport(sim.LC(), b.sfLC/4, 1)
	}},
	{name: "distribution", report: func(b *bench) (string, error) {
		fmt.Fprintln(os.Stderr, "measuring distribution (single process vs 3-node replicated cluster)...")
		return benchkit.DistributionReport(sim.EC2(), b.distSF, 1)
	}},
	{name: "chain", report: func(b *bench) (string, error) {
		fmt.Fprintln(os.Stderr, "measuring chain queries (any-k vs doubling-depth adapter)...")
		return benchkit.ChainReport(sim.LC(), b.chainRows, 1)
	}},
}

// figureNames is what -fig accepts, for the help text and the error.
func figureNames() string {
	var names []string
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// bench holds the flags and the measurements the figures share.
type bench struct {
	ec2, lc   *benchkit.Env
	series    map[string][]benchkit.Cell
	sfLC      float64
	distSF    float64
	chainRows int
}

// run parses args and prints the selected figures to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rjbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: "+figureNames())
	sfEC2 := fs.Float64("sf", 0.02, "TPC-H scale factor for the EC2 profile runs")
	sfLC := fs.Float64("lcsf", 0.04, "TPC-H scale factor for the LC profile runs")
	distSF := fs.Float64("distsf", 0.005, "TPC-H scale factor for the distribution figure (loaded 3x: once per replica)")
	chainRows := fs.Int("chainrows", 2000, "rows per leaf relation for the chain figure")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var selected []figure
	needEC2, needLC := false, false
	for _, f := range figures {
		if *fig == "all" || strings.EqualFold(f.name, *fig) {
			selected = append(selected, f)
			needEC2, needLC = needEC2 || f.ec2, needLC || f.lc
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown figure %q (want one of %s)", *fig, figureNames())
	}

	b := &bench{series: map[string][]benchkit.Cell{}, sfLC: *sfLC, distSF: *distSF, chainRows: *chainRows}
	var err error
	if needEC2 {
		fmt.Fprintf(os.Stderr, "setting up EC2 environment (SF %g)...\n", *sfEC2)
		if b.ec2, err = benchkit.Setup(sim.EC2(), *sfEC2, 1); err != nil {
			return err
		}
		p, o, l := b.ec2.Counts()
		fmt.Fprintf(stdout, "EC2 profile: 1+%d nodes, SF %g (%d parts, %d orders, %d lineitems)\n\n",
			sim.EC2().Nodes, *sfEC2, p, o, l)
	}
	if needLC {
		fmt.Fprintf(os.Stderr, "setting up LC environment (SF %g)...\n", *sfLC)
		if b.lc, err = benchkit.Setup(sim.LC(), *sfLC, 1); err != nil {
			return err
		}
		p, o, l := b.lc.Counts()
		fmt.Fprintf(stdout, "LC profile: %d nodes, SF %g (%d parts, %d orders, %d lineitems)\n\n",
			sim.LC().Nodes, *sfLC, p, o, l)
	}
	for _, f := range selected {
		report, err := f.report(b)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report)
	}
	return nil
}

// seriesFigure is one of Figs. 7(a)-8(f): one metric of the Q1 or Q2
// series on the EC2 or LC environment. The three figures of a series
// share one measurement.
func seriesFigure(name, title string, lc, q2 bool, metric benchkit.Metric) figure {
	return figure{name: name, ec2: !lc, lc: lc, report: func(b *bench) (string, error) {
		e, algos := b.ec2, benchkit.Algorithms
		if lc {
			e, algos = b.lc, benchkit.LCAlgorithms
		}
		q, key := e.Q1, e.Profile.Name+"-q1"
		if q2 {
			q, key = e.Q2, e.Profile.Name+"-q2"
		}
		cells, ok := b.series[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "measuring %s...\n", key)
			var err error
			if cells, err = e.Series(q, algos, benchkit.KValues); err != nil {
				return "", err
			}
			b.series[key] = cells
		}
		return benchkit.FormatTable(title, cells, metric), nil
	}}
}
