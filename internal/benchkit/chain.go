package benchkit

import (
	"fmt"
	"math"
	"math/rand"

	rankjoin "repro"
	"repro/internal/sim"
)

// Chain evaluation: any-k enumeration against the doubling-depth
// adapter on multi-relation chain queries. A chain of n relations joins
// leaf i to leaf i+1 with a band predicate over numeric join values —
// the shape the generalized tree model admits that neither the binary
// nor the star query could express. AlgoAnyK (the isl executor under
// its any-k name, which labels the figure's rows) streams results from
// inverse-score-list prefixes per leaf; AlgoNaive reaches the same
// answers through the materializing cursor adapter, which re-runs the
// full-scan tree join at doubled depths. The gap between the two read-unit columns is the
// point of the figure: any-k's cost tracks k, the adapter's tracks
// total table size.

// chainBand is the band width of every chain edge. Join values are
// uniform integers in [0, rows), so each tuple expects about
// 3*rows/rows = 3 band partners per neighboring leaf — dense enough
// that every chain has far more than k results, sparse enough that the
// naive tree join stays tractable at five leaves.
const chainBand = 1.0

// ChainKValues are the k points of the chain figure.
var ChainKValues = []int{1, 10, 100}

// ChainLengths are the chain sizes (relation counts) of the figure.
var ChainLengths = []int{3, 4, 5}

// ChainEnv is a loaded chain-benchmark environment: one relation per
// possible leaf and one band-edge chain query per measured length.
type ChainEnv struct {
	Profile sim.Profile
	Rows    int
	DB      *rankjoin.DB
	// Queries maps chain length (relation count) to its tree query.
	Queries map[int]rankjoin.Query
	// ISLBatch mirrors Env: ~1% of the per-leaf row count, min 1.
	ISLBatch int
}

// SetupChain loads max(ChainLengths) relations of rows synthetic
// tuples each and builds the band-edge chain query for every measured
// length, plus the any-k index over each query's leaves.
func SetupChain(profile sim.Profile, rows int, seed int64) (*ChainEnv, error) {
	db, err := rankjoin.Open(rankjoin.Config{Profile: &profile})
	if err != nil {
		return nil, err
	}
	env := &ChainEnv{
		Profile:  profile,
		Rows:     rows,
		DB:       db,
		Queries:  map[int]rankjoin.Query{},
		ISLBatch: rows / 100,
	}
	if env.ISLBatch < 1 {
		env.ISLBatch = 1
	}

	nLeaves := 0
	for _, n := range ChainLengths {
		if n > nLeaves {
			nLeaves = n
		}
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, nLeaves)
	for i := 0; i < nLeaves; i++ {
		names[i] = fmt.Sprintf("c%d", i)
		rel, err := db.DefineRelation(names[i])
		if err != nil {
			return nil, err
		}
		tuples := make([]rankjoin.Tuple, rows)
		for j := range tuples {
			tuples[j] = rankjoin.Tuple{
				RowKey:    fmt.Sprintf("c%d-%06d", i, j),
				JoinValue: fmt.Sprintf("%d", rng.Intn(rows)),
				Score:     math.Round(rng.Float64()*1e6) / 1e6,
			}
		}
		if err := rel.BulkLoad(tuples); err != nil {
			return nil, fmt.Errorf("benchkit: load %s: %w", names[i], err)
		}
	}

	for _, n := range ChainLengths {
		edges := make([]rankjoin.TreeEdge, n-1)
		for i := range edges {
			edges[i] = rankjoin.TreeEdge{A: i, B: i + 1, Kind: rankjoin.PredBand, Band: chainBand}
		}
		q, err := db.NewTreeQuery(names[:n], edges, rankjoin.Sum, 10)
		if err != nil {
			return nil, err
		}
		if err := db.EnsureIndexes(q, rankjoin.AlgoAnyK); err != nil {
			return nil, err
		}
		env.Queries[n] = q
	}
	return env, nil
}

// Close releases the environment's DB.
func (e *ChainEnv) Close() error { return e.DB.Close() }

// ChainSeries measures one chain length across both executors and all
// ChainKValues, checking that the adapter and any-k agree on every
// result score before trusting either cost column.
func (e *ChainEnv) ChainSeries(n int) ([]Cell, error) {
	q, ok := e.Queries[n]
	if !ok {
		return nil, fmt.Errorf("benchkit: no chain query of length %d", n)
	}
	var out []Cell
	for _, algo := range []rankjoin.Algorithm{rankjoin.AlgoAnyK, rankjoin.AlgoNaive} {
		for _, k := range ChainKValues {
			res, err := e.DB.TopK(q.WithK(k), algo, &rankjoin.QueryOptions{ISLBatch: e.ISLBatch})
			if err != nil {
				return nil, fmt.Errorf("benchkit: chain%d %s k=%d: %w", n, algo, k, err)
			}
			out = append(out, Cell{Algo: algo, K: k, Cost: res.Cost})
		}
	}
	if err := e.checkAgreement(n, out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkAgreement re-runs both executors at the largest k and compares
// result scores — a cheap cross-check that the adapter and any-k are
// answering the same query before their costs are compared.
func (e *ChainEnv) checkAgreement(n int, cells []Cell) error {
	q := e.Queries[n]
	k := ChainKValues[len(ChainKValues)-1]
	opts := &rankjoin.QueryOptions{ISLBatch: e.ISLBatch}
	a, err := e.DB.TopK(q.WithK(k), rankjoin.AlgoAnyK, opts)
	if err != nil {
		return err
	}
	b, err := e.DB.TopK(q.WithK(k), rankjoin.AlgoNaive, opts)
	if err != nil {
		return err
	}
	if len(a.Results) != len(b.Results) {
		return fmt.Errorf("benchkit: chain%d disagreement: anyk %d results, adapter %d",
			n, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if math.Abs(a.Results[i].Score-b.Results[i].Score) > 1e-9 {
			return fmt.Errorf("benchkit: chain%d result %d: anyk score %v, adapter score %v",
				n, i, a.Results[i].Score, b.Results[i].Score)
		}
	}
	return nil
}

// ChainReport runs the full chain figure: every length in ChainLengths
// at every k in ChainKValues under both executors, as rendered tables.
func ChainReport(profile sim.Profile, rows int, seed int64) (string, error) {
	env, err := SetupChain(profile, rows, seed)
	if err != nil {
		return "", err
	}
	defer env.Close()

	report := fmt.Sprintf("Chain queries: any-k vs doubling-depth adapter (%d rows/leaf, band %.3g)\n\n",
		rows, chainBand)
	for _, n := range ChainLengths {
		cells, err := env.ChainSeries(n)
		if err != nil {
			return "", err
		}
		title := fmt.Sprintf("%d-relation band chain", n)
		report += formatChainTable(title, cells, MetricDollar)
		report += formatChainTable(title, cells, MetricTime)
		report += "\n"
	}
	return report, nil
}

// formatChainTable is FormatTable over the chain's two executors
// (AlgoAnyK, the label of the isl rows, is not in the figure-7/8
// Algorithms list FormatTable orders by, so the chain figure keeps its
// own row order).
func formatChainTable(title string, cells []Cell, metric Metric) string {
	out := fmt.Sprintf("%s — %s [%s]\n", title, metric.Name, metric.Unit)
	out += fmt.Sprintf("%-8s", "algo\\k")
	for _, k := range ChainKValues {
		out += fmt.Sprintf(" %14d", k)
	}
	out += "\n"
	for _, a := range []rankjoin.Algorithm{rankjoin.AlgoAnyK, rankjoin.AlgoNaive} {
		out += fmt.Sprintf("%-8s", a)
		for _, k := range ChainKValues {
			for _, c := range cells {
				if c.Algo == a && c.K == k {
					out += fmt.Sprintf(" %14.4g", metric.Get(c.Cost))
				}
			}
		}
		out += "\n"
	}
	return out
}
