package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// wordTable loads a table where each row holds one word in cf:w.
func wordTable(t *testing.T, c *kvstore.Cluster, words []string) {
	t.Helper()
	if _, err := c.CreateTable("words", []string{"cf"}, []string{"m"}); err != nil {
		t.Fatal(err)
	}
	var cells []kvstore.Cell
	for i, w := range words {
		cells = append(cells, kvstore.Cell{
			Row: fmt.Sprintf("r%04d", i), Family: "cf", Qualifier: "w", Value: []byte(w),
		})
	}
	if err := c.BatchPut("words", cells); err != nil {
		t.Fatal(err)
	}
}

func wordCountJob(c *kvstore.Cluster, combiner bool) *Job {
	j := &Job{
		Name:    "wordcount",
		Cluster: c,
		Input:   kvstore.Scan{Table: "words"},
		Mapper: MapperFunc(func(row *kvstore.Row, ctx Context) error {
			ctx.Emit(string(row.Cells[0].Value), []byte("1"))
			ctx.Counter("mapped", 1)
			return nil
		}),
		Reducer: ReducerFunc(func(key string, values [][]byte, ctx Context) error {
			n := 0
			for _, v := range values {
				x, err := strconv.Atoi(string(v))
				if err != nil {
					return err
				}
				n += x
			}
			ctx.Emit(key, []byte(strconv.Itoa(n)))
			return nil
		}),
		NumReducers: 3,
	}
	if combiner {
		j.Combiner = j.Reducer
	}
	return j
}

func TestWordCount(t *testing.T) {
	c := testCluster(t)
	words := []string{"a", "b", "a", "c", "b", "a", "z", "m", "m"}
	wordTable(t, c, words)
	res, err := Run(wordCountJob(c, false))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range res.Output {
		got[kv.Key] = string(kv.Value)
	}
	want := map[string]string{"a": "3", "b": "2", "c": "1", "z": "1", "m": "2"}
	if len(got) != len(want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%s] = %s, want %s", k, got[k], v)
		}
	}
	if res.Counters["mapped"] != int64(len(words)) {
		t.Errorf("mapped counter = %d, want %d", res.Counters["mapped"], len(words))
	}
	if res.MapInputRows != uint64(len(words)) {
		t.Errorf("MapInputRows = %d, want %d", res.MapInputRows, len(words))
	}
	if res.SimTime <= 0 {
		t.Error("job must consume simulated time")
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	mk := func() *kvstore.Cluster {
		c := testCluster(t)
		var words []string
		for i := 0; i < 500; i++ {
			words = append(words, fmt.Sprintf("w%d", i%5))
		}
		wordTable(t, c, words)
		return c
	}
	c1 := mk()
	plain, err := Run(wordCountJob(c1, false))
	if err != nil {
		t.Fatal(err)
	}
	c2 := mk()
	combined, err := Run(wordCountJob(c2, true))
	if err != nil {
		t.Fatal(err)
	}
	if combined.ShuffleBytes >= plain.ShuffleBytes {
		t.Errorf("combiner did not shrink shuffle: %d vs %d",
			combined.ShuffleBytes, plain.ShuffleBytes)
	}
	// Results must agree.
	sum := func(r *Result) map[string]string {
		m := map[string]string{}
		for _, kv := range r.Output {
			m[kv.Key] = string(kv.Value)
		}
		return m
	}
	m1, m2 := sum(plain), sum(combined)
	if fmt.Sprint(m1) != fmt.Sprint(m2) {
		t.Errorf("combiner changed results: %v vs %v", m1, m2)
	}
}

func TestMapOnlyJobWritesStore(t *testing.T) {
	c := testCluster(t)
	wordTable(t, c, []string{"x", "y", "z"})
	if _, err := c.CreateTable("out", []string{"cf"}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := Run(&Job{
		Name:    "reverse",
		Cluster: c,
		Input:   kvstore.Scan{Table: "words"},
		Mapper: MapperFunc(func(row *kvstore.Row, ctx Context) error {
			ctx.WriteCell("out", kvstore.Cell{
				Row: string(row.Cells[0].Value), Family: "cf", Qualifier: "src",
				Value: []byte(row.Key),
			})
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StoreWriteBytes == 0 {
		t.Error("no store bytes recorded")
	}
	rows, err := c.ScanAll(kvstore.Scan{Table: "out", Caching: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("out rows = %d, want 3", len(rows))
	}
}

func TestMapOnlyEmissionsAreOutput(t *testing.T) {
	c := testCluster(t)
	wordTable(t, c, []string{"p", "q"})
	res, err := Run(&Job{
		Name:    "emit",
		Cluster: c,
		Input:   kvstore.Scan{Table: "words"},
		Mapper: MapperFunc(func(row *kvstore.Row, ctx Context) error {
			ctx.Emit(row.Key, row.Cells[0].Value)
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 2 {
		t.Fatalf("output = %d KVs, want 2", len(res.Output))
	}
}

func TestMapErrorPropagates(t *testing.T) {
	c := testCluster(t)
	wordTable(t, c, []string{"boom"})
	_, err := Run(&Job{
		Name:    "failing",
		Cluster: c,
		Input:   kvstore.Scan{Table: "words"},
		Mapper: MapperFunc(func(row *kvstore.Row, ctx Context) error {
			return fmt.Errorf("mapper exploded on %s", row.Key)
		}),
	})
	if err == nil {
		t.Fatal("map error swallowed")
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	c := testCluster(t)
	wordTable(t, c, []string{"boom"})
	_, err := Run(&Job{
		Name:    "failing",
		Cluster: c,
		Input:   kvstore.Scan{Table: "words"},
		Mapper: MapperFunc(func(row *kvstore.Row, ctx Context) error {
			ctx.Emit("k", []byte("v"))
			return nil
		}),
		Reducer: ReducerFunc(func(key string, values [][]byte, ctx Context) error {
			return fmt.Errorf("reducer exploded")
		}),
	})
	if err == nil {
		t.Fatal("reduce error swallowed")
	}
}

func TestJobValidation(t *testing.T) {
	if _, err := Run(&Job{Name: "nil"}); err == nil {
		t.Error("job without cluster/mapper accepted")
	}
	c := testCluster(t)
	_, err := Run(&Job{
		Name: "notable", Cluster: c,
		Input:  kvstore.Scan{Table: "missing"},
		Mapper: MapperFunc(func(*kvstore.Row, Context) error { return nil }),
	})
	if err == nil {
		t.Error("missing input table accepted")
	}
}

func TestHashPartitionerStableAndInRange(t *testing.T) {
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		p := hashPartition(k, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
		if p != hashPartition(k, 7) {
			t.Fatal("partitioner not deterministic")
		}
	}
	if hashPartition("x", 1) != 0 {
		t.Error("single partition must be 0")
	}
}

func TestShuffleAndLocalityAccounting(t *testing.T) {
	c := testCluster(t)
	var words []string
	for i := 0; i < 1000; i++ {
		words = append(words, fmt.Sprintf("w%04d", i))
	}
	wordTable(t, c, words)
	before := c.Metrics().Snapshot()
	res, err := Run(wordCountJob(c, false))
	if err != nil {
		t.Fatal(err)
	}
	delta := c.Metrics().Snapshot().Sub(before)
	// All input cells are read (dollar cost) but reading is local:
	// network carries only the shuffle.
	if delta.KVReads < 1000 {
		t.Errorf("KVReads = %d, want >= 1000 (full scan)", delta.KVReads)
	}
	if delta.NetworkBytes != res.ShuffleBytes {
		t.Errorf("network = %d, want shuffle only = %d", delta.NetworkBytes, res.ShuffleBytes)
	}
	if delta.SimTime < c.Profile().MRJobStartup {
		t.Errorf("job time %v below job startup %v", delta.SimTime, c.Profile().MRJobStartup)
	}
}

func TestDeterministicOutput(t *testing.T) {
	run := func() []KV {
		c := testCluster(t)
		var words []string
		for i := 0; i < 200; i++ {
			words = append(words, fmt.Sprintf("w%d", i%17))
		}
		wordTable(t, c, words)
		res, err := Run(wordCountJob(c, true))
		if err != nil {
			t.Fatal(err)
		}
		out := append([]KV(nil), res.Output...)
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("two identical runs produced different output")
	}
}

func TestPeakReducerMemoryTracked(t *testing.T) {
	c := testCluster(t)
	var words []string
	for i := 0; i < 100; i++ {
		words = append(words, "same") // all to one reducer group
	}
	wordTable(t, c, words)
	res, err := Run(wordCountJob(c, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakReducerMemory == 0 {
		t.Error("peak reducer memory not tracked")
	}
}

func BenchmarkWordCount1k(b *testing.B) {
	c := testCluster(b)
	c.CreateTable("words", []string{"cf"}, []string{"m"})
	var cells []kvstore.Cell
	for i := 0; i < 1000; i++ {
		cells = append(cells, kvstore.Cell{
			Row: fmt.Sprintf("r%04d", i), Family: "cf", Qualifier: "w",
			Value: []byte(fmt.Sprintf("w%d", i%50)),
		})
	}
	c.BatchPut("words", cells)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(wordCountJob(c, true)); err != nil {
			b.Fatal(err)
		}
	}
}

// testCluster builds an LC-profile cluster, failing the test on setup
// errors (disk-mode scratch dir creation).
func testCluster(t testing.TB) *kvstore.Cluster {
	t.Helper()
	c, err := kvstore.NewCluster(sim.LC())
	if err != nil {
		t.Fatal(err)
	}
	return c
}
