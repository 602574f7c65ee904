package benchkit

import (
	"fmt"
	"strings"
	"testing"

	rankjoin "repro"
	"repro/internal/sim"
)

// TestChainAnyKBeatsAdapterReadUnits pins the acceptance criterion of
// the any-k executor: on a 4-relation band chain at k=10 it must spend
// strictly fewer read units than the doubling-depth adapter, because
// any-k touches only the ISL prefixes the top results need while the
// adapter's materializing re-runs scan every leaf in full.
func TestChainAnyKBeatsAdapterReadUnits(t *testing.T) {
	env, err := SetupChain(sim.LC(), 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	cells, err := env.ChainSeries(4)
	if err != nil {
		t.Fatal(err)
	}
	reads := map[rankjoin.Algorithm]uint64{}
	for _, c := range cells {
		if c.K == 10 {
			reads[c.Algo] = c.Cost.KVReads
		}
	}
	anyk, ok := reads[rankjoin.AlgoAnyK]
	if !ok {
		t.Fatal("no anyk cell at k=10")
	}
	adapter, ok := reads[rankjoin.AlgoNaive]
	if !ok {
		t.Fatal("no adapter cell at k=10")
	}
	t.Logf("4-relation chain k=10: anyk=%d read units, adapter=%d", anyk, adapter)
	if anyk >= adapter {
		t.Fatalf("anyk spent %d read units, adapter %d: want anyk strictly fewer", anyk, adapter)
	}
}

// TestChainReportShape runs the full chain figure at a small scale and
// checks every chain length carries both executors at every k with
// non-zero read units, and that the rendered report names each chain.
func TestChainReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("chain figure is slow in -short mode")
	}
	report, err := ChainReport(sim.LC(), 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, err := SetupChain(sim.LC(), 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	for _, n := range ChainLengths {
		if title := fmt.Sprintf("%d-relation band chain", n); !strings.Contains(report, title) {
			t.Errorf("report has no %q table", title)
		}
		cells, err := env.ChainSeries(n)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * len(ChainKValues); len(cells) != want {
			t.Errorf("chain%d has %d cells, want %d", n, len(cells), want)
		}
		for _, c := range cells {
			if c.Cost.KVReads == 0 {
				t.Errorf("chain%d %s k=%d: zero read units", n, c.Algo, c.K)
			}
		}
	}
}
