package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/merkle"
	"repro/internal/sim"
)

// fakeService records calls and echoes canned responses. TopK returns
// req.K rows whose keys carry req.Algo, so two queries' results differ.
type fakeService struct {
	mu      sync.Mutex
	defined []string        // guarded by: mu
	ensured []EnsureRequest // guarded by: mu
	applied []WriteOp       // guarded by: mu
	queries []QueryRequest  // guarded by: mu
	failure error           // guarded by: mu
	result  *ResultData     // guarded by: mu; TopK's reply when set
}

func (f *fakeService) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failure = err
}

func (f *fakeService) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failure
}

func (f *fakeService) Health() (*HealthInfo, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	return &HealthInfo{Node: "fake", Relations: []string{"r1"}, Tables: []string{"rel_r1"}}, nil
}

func (f *fakeService) DefineRelation(name string) error {
	if err := f.err(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.defined = append(f.defined, name)
	return nil
}

func (f *fakeService) EnsureIndexes(req EnsureRequest) error {
	if err := f.err(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ensured = append(f.ensured, req)
	return nil
}

func (f *fakeService) Apply(op WriteOp) error {
	if err := f.err(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applied = append(f.applied, op)
	return nil
}

func (f *fakeService) GetTuple(relation, rowKey string) (*GetResponse, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	if rowKey == "missing" {
		return &GetResponse{}, nil
	}
	return &GetResponse{Tuple: &core.Tuple{RowKey: rowKey, JoinValue: "j", Score: 0.5}}, nil
}

func (f *fakeService) TopK(req QueryRequest) (*ResultData, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.queries = append(f.queries, req)
	canned := f.result
	f.mu.Unlock()
	if canned != nil {
		return canned, nil
	}
	out := &ResultData{Algorithm: req.Algo}
	for i := 0; i < req.K; i++ {
		out.Results = append(out.Results, core.JoinResult{
			Left:  core.Tuple{RowKey: fmt.Sprintf("%s-l%d", req.Algo, i)},
			Right: core.Tuple{RowKey: fmt.Sprintf("%s-r%d", req.Algo, i)},
			Score: float64(req.K - i),
		})
	}
	return out, nil
}

func (f *fakeService) MerkleTree(req TreeRequest) (*merkle.Tree, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	b := merkle.NewBuilder(16)
	b.Add("row1", merkle.HashRow("row1", []byte("v")))
	return b.Build(), nil
}

func (f *fakeService) FetchRange(req RangeRequest) (*RangeData, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	return &RangeData{
		Families: []string{"d"},
		Cells:    []kvstore.Cell{{Row: "row1", Family: "d", Qualifier: "q", Value: []byte("v"), Timestamp: 7}},
	}, nil
}

func (f *fakeService) Repair(req RepairRequest) (*RepairStats, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	return &RepairStats{CellsApplied: len(req.Range.Cells)}, nil
}

func (f *fakeService) Close() error { return nil }

func startServer(t testing.TB, svc RegionService) (*Server, *Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, svc)
	t.Cleanup(func() { _ = srv.Close() })
	cl := Dial(srv.Addr())
	t.Cleanup(func() { _ = cl.Close() })
	return srv, cl
}

func TestTCPRoundTrip(t *testing.T) {
	fake := &fakeService{}
	_, cl := startServer(t, fake)

	h, err := cl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Node != "fake" || len(h.Relations) != 1 {
		t.Fatalf("health = %+v", h)
	}

	if err := cl.DefineRelation("r1"); err != nil {
		t.Fatal(err)
	}
	ensure := EnsureRequest{Tree: TreeData{Relations: []string{"r1", "r2"}, Edges: []core.TreeEdge{{A: 0, B: 1}}}, Score: "sum", Algos: []string{"isl", "bfhm"}}
	if err := cl.EnsureIndexes(ensure); err != nil {
		t.Fatal(err)
	}
	fake.mu.Lock()
	defined, ensured := fake.defined, fake.ensured
	fake.mu.Unlock()
	if !reflect.DeepEqual(defined, []string{"r1"}) || len(ensured) != 1 || !reflect.DeepEqual(ensured[0], ensure) {
		t.Fatalf("DefineRelation/EnsureIndexes crossed as %v, %+v", defined, ensured)
	}

	op := WriteOp{Relation: "r1", Kind: OpInsert, New: &core.Tuple{RowKey: "k", JoinValue: "j", Score: 0.25}, TS: 42}
	if err := cl.Apply(op); err != nil {
		t.Fatal(err)
	}
	fake.mu.Lock()
	got := fake.applied[0]
	fake.mu.Unlock()
	if got.TS != 42 || got.New.Score != 0.25 || got.Kind != OpInsert {
		t.Fatalf("applied op = %+v", got)
	}

	shape := TreeData{Relations: []string{"a", "b", "c"}, Edges: []core.TreeEdge{{A: 0, B: 1}, {A: 1, B: 2, Kind: "band", Band: 2.5}}}
	res, err := cl.TopK(QueryRequest{Tree: shape, Score: "sum", K: 3, Algo: "anyk"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 || res.Algorithm != "anyk" {
		t.Fatalf("topk = %+v", res)
	}
	fake.mu.Lock()
	shipped := fake.queries[0].Tree
	fake.mu.Unlock()
	if !reflect.DeepEqual(shipped, shape) {
		t.Fatalf("tree changed across the wire: %+v, want %+v", shipped, shape)
	}

	// A three-leaf page with an estimate and a token crosses whole.
	page := &ResultData{
		Results: []core.JoinResult{
			{
				Left:  core.Tuple{RowKey: "a1", JoinValue: "j1", Score: 0.5},
				Right: core.Tuple{RowKey: "b1", JoinValue: "j1", Score: 0.25},
				Rest:  []core.Tuple{{RowKey: "c1", JoinValue: "j1", Score: 0.125}},
				Score: 0.875,
			},
			{
				Left:  core.Tuple{RowKey: "a2", JoinValue: "ключ", Score: 0.375},
				Right: core.Tuple{RowKey: "", JoinValue: "ключ", Score: -1.5e-300},
				Rest:  []core.Tuple{{RowKey: "c2", JoinValue: "ключ", Score: 1e300}},
				Score: 1e300,
			},
		},
		Cost:          sim.Snapshot{SimTime: 12345678, NetworkBytes: 4096, KVReads: 17, KVWrites: 1, RPCCalls: 3, DiskBytesRead: 1 << 40, TuplesShipped: 6},
		Algorithm:     "anyk",
		NextPageToken: "tok-2",
		Estimate:      &sim.Snapshot{SimTime: -1, NetworkBytes: 2048, KVReads: 9, RPCCalls: 5, DiskBytesRead: 1 << 20},
	}
	fake.mu.Lock()
	fake.result = page
	fake.mu.Unlock()
	res, err = cl.TopK(QueryRequest{Tree: shape, Score: "sum", K: 2, Algo: "auto", PageToken: "tok-1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, page) {
		t.Fatalf("three-leaf page changed across the wire:\n got %+v\nwant %+v", res, page)
	}

	tree, err := cl.MerkleTree(TreeRequest{Table: "rel_r1"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fake.MerkleTree(TreeRequest{})
	if tree.Root() != want.Root() {
		t.Fatal("merkle tree changed across the wire")
	}

	rng, err := cl.FetchRange(RangeRequest{Table: "rel_r1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rng.Cells) != 1 || !bytes.Equal(rng.Cells[0].Value, []byte("v")) || rng.Cells[0].Timestamp != 7 {
		t.Fatalf("range = %+v", rng)
	}

	st, err := cl.Repair(RepairRequest{Table: "rel_r1", Range: *rng})
	if err != nil || st.CellsApplied != 1 {
		t.Fatalf("repair = %+v, %v", st, err)
	}

	g, err := cl.GetTuple("r1", "missing")
	if err != nil || g.Tuple != nil {
		t.Fatalf("GetTuple(missing) = %+v, %v", g, err)
	}
	g, err = cl.GetTuple("r1", "k")
	if err != nil || g.Tuple == nil || g.Tuple.RowKey != "k" || g.Tuple.Score != 0.5 {
		t.Fatalf("GetTuple(k) = %+v, %v", g, err)
	}

	// An unknown method code gets a bad-request reply on the same,
	// still usable, connection.
	cl.mu.Lock()
	conn := cl.conn
	cl.mu.Unlock()
	var te *Error
	if err := cl.call(0xEE, nil, nil); !errors.As(err, &te) || te.Kind != KindBadRequest {
		t.Fatalf("unknown method err = %v, want bad_request *Error", err)
	}
	if _, err := cl.Health(); err != nil {
		t.Fatalf("call after unknown method = %v", err)
	}
	cl.mu.Lock()
	same := cl.conn == conn
	cl.mu.Unlock()
	if !same {
		t.Fatal("an unknown method code cost the connection")
	}
}

// TestSplitBatchBoundsBodies: SplitBatch keeps a batch whole until its
// worst-case body would pass half the frame cap, and then cuts it in
// order; no tuple's JSON, escapes included, outgrows its price.
func TestSplitBatchBoundsBodies(t *testing.T) {
	small := []core.Tuple{{RowKey: "p1", JoinValue: "7", Score: 0.5}, {RowKey: "<&>", JoinValue: "\x01\"", Score: 0.123456789}}
	if runs := SplitBatch(small); len(runs) != 1 || len(runs[0]) != 2 {
		t.Fatalf("a small batch split into %d runs", len(runs))
	}
	if runs := SplitBatch(nil); len(runs) != 0 {
		t.Fatalf("an empty batch has %d runs", len(runs))
	}
	for _, tup := range small {
		body, err := json.Marshal(tup)
		if err != nil {
			t.Fatal(err)
		}
		if price := 6*(len(tup.RowKey)+len(tup.JoinValue)) + 64; len(body) > price {
			t.Fatalf("tuple %+v encodes to %d bytes, priced at %d", tup, len(body), price)
		}
	}
	// Three tuples priced at over a third of the cap each: no two fit
	// under half of it.
	big := strings.Repeat("k", maxFrame/18)
	batch := []core.Tuple{{RowKey: big + "1", JoinValue: "j"}, {RowKey: big + "2", JoinValue: "j"}, {RowKey: big + "3", JoinValue: "j"}}
	runs := SplitBatch(batch)
	if len(runs) != 3 {
		t.Fatalf("three third-of-cap tuples split into %d runs, want 3", len(runs))
	}
	for i, run := range runs {
		if len(run) != 1 || run[0].RowKey != batch[i].RowKey {
			t.Fatalf("run %d = %d tuples, want tuple %d alone", i, len(run), i)
		}
	}
}

// TestQueryRequestShape: a request names its tree, or the two-leaf equi
// tree over Left and Right when it carries none.
func TestQueryRequestShape(t *testing.T) {
	pair := QueryRequest{Left: "a", Right: "b"}
	want := TreeData{Relations: []string{"a", "b"}, Edges: []core.TreeEdge{{A: 0, B: 1, Kind: "equi"}}}
	if got := pair.Shape(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Left/Right shape = %+v, want %+v", got, want)
	}
	tree := TreeData{Relations: []string{"a", "b", "c"}, Edges: []core.TreeEdge{{A: 0, B: 1}, {A: 0, B: 2}}}
	withTree := QueryRequest{Tree: tree, Left: "x", Right: "y"}
	if got := withTree.Shape(); !reflect.DeepEqual(got, tree) {
		t.Fatalf("tree shape = %+v, want %+v", got, tree)
	}
}

func TestTypedErrorCrossesWire(t *testing.T) {
	fake := &fakeService{}
	fake.fail(&Error{Kind: KindCorruption, Msg: "checksum failed"})
	_, cl := startServer(t, fake)

	_, err := cl.TopK(QueryRequest{K: 1})
	var te *Error
	if !errors.As(err, &te) || te.Kind != KindCorruption {
		t.Fatalf("err = %v, want corruption-kind *Error", err)
	}
}

func TestServerDownIsUnavailable(t *testing.T) {
	fake := &fakeService{}
	srv, cl := startServer(t, fake)
	if _, err := cl.Health(); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	_, err := cl.Health()
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestClientRedialsAfterRestart(t *testing.T) {
	fake := &fakeService{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := Serve(ln, fake)
	cl := Dial(addr)
	defer cl.Close()
	if _, err := cl.Health(); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	// Restart on the same port; the client's next call should redial.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	srv2 := Serve(ln2, fake)
	defer srv2.Close()
	if _, err := cl.Health(); err != nil {
		t.Fatalf("call after server restart = %v", err)
	}
}

func TestGateStopsAndResumes(t *testing.T) {
	fake := &fakeService{}
	g := NewGate(fake)
	if _, err := g.Health(); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	if _, err := g.Health(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("stopped gate err = %v, want ErrUnavailable", err)
	}
	if err := g.Apply(WriteOp{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("stopped gate apply = %v", err)
	}
	g.Start()
	if _, err := g.Health(); err != nil {
		t.Fatalf("restarted gate err = %v", err)
	}
}
