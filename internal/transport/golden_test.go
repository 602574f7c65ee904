package transport

import (
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/merkle"
	"repro/internal/sim"
)

const framesGoldenPath = "testdata/frames.golden"

// goldenFrame is one fixed message and the header code it travels under.
type goldenFrame struct {
	name string
	code byte
	v    any
}

// goldenFrames are fixed messages of every kind that crosses the wire:
// each method's request body, each reply body (an error frame and an
// absent tuple included), every write-op kind, the three edge kinds and
// both shapes of a TopK reply.
func goldenFrames() []goldenFrame {
	tree := TreeData{
		Relations: []string{"part", "lineitem_pk", "orders", "customer"},
		Edges: []core.TreeEdge{
			{A: 0, B: 1, Kind: "equi"},
			{A: 1, B: 2, Kind: "band", Band: 2.5},
			{A: 2, B: 3},
		},
	}
	t1 := core.Tuple{RowKey: "p1", JoinValue: "17", Score: 0.25}
	t2 := core.Tuple{RowKey: "p1", JoinValue: "18", Score: 0.75}
	mb := merkle.NewBuilder(4)
	mb.Add("p1", merkle.HashRow("p1", []byte("cell")))
	tuple := func(key, join string, score float64) core.Tuple {
		return core.Tuple{RowKey: key, JoinValue: join, Score: score}
	}
	return []goldenFrame{
		{"health request", methodHealth, nil},
		{"define request", methodDefineRelation, defineRequest{Name: "part"}},
		{"ensure request", methodEnsureIndexes, EnsureRequest{Tree: tree, Score: "sum", Algos: []string{"isl", "bfhm"}}},
		{"apply insert", methodApply, WriteOp{Relation: "part", Kind: OpInsert, New: &t1, TS: 41}},
		{"apply update", methodApply, WriteOp{Relation: "part", Kind: OpUpdate, Old: &t1, New: &t2, TS: 42}},
		{"apply delete", methodApply, WriteOp{Relation: "part", Kind: OpDelete, Old: &t2, TS: 43}},
		{"apply batch", methodApply, WriteOp{Relation: "part", Kind: OpBatch, Batch: []core.Tuple{t1, tuple("p2", "", 1)}, TS: 44}},
		{"get request", methodGetTuple, getRequest{Relation: "part", RowKey: "p1"}},
		{"topk request tree", methodTopK, QueryRequest{
			Tree: tree, Score: "product", K: 10, Algo: "auto", Objective: "dollars",
			ISLBatch: 600, Parallelism: 4, PageToken: "n0:1:tok", TimeoutNanos: 1500, MaxReadUnits: 99,
		}},
		{"topk request pair", methodTopK, QueryRequest{Left: "part", Right: "lineitem_pk", Score: "sum", K: 3, Algo: "isl"}},
		{"merkle request", methodMerkleTree, TreeRequest{Table: "part", Leaves: 4}},
		{"fetch request", methodFetchRange, RangeRequest{Table: "part", Leaves: 4, Indexes: []int{0, 3}}},
		{"repair request", methodRepair, RepairRequest{Table: "part", Leaves: 4, Indexes: []int{1}, Range: RangeData{
			Families: []string{"d"}, Rows: []string{"p1"},
			Cells: []CellData{{Row: "p1", Family: "d", Qualifier: "s", Value: []byte{0, 1, 0xff}, Timestamp: 7}},
		}}},
		{"repair request full", methodRepair, RepairRequest{Table: "part", Leaves: 4, Full: true}},

		{"health reply", statusOK, &HealthInfo{
			Node: "n1", Relations: []string{"part"}, Tables: []string{"part", "isl_part"},
			Quarantined: []string{"drjn_part"}, Clock: 123,
			Cost: sim.Snapshot{SimTime: 4_200_000, NetworkBytes: 9000, KVReads: 120, KVWrites: 7, RPCCalls: 4, DiskBytesRead: 512, TuplesShipped: 33},
		}},
		{"empty reply", statusOK, nil},
		{"get reply", statusOK, &GetResponse{Tuple: &t1}},
		{"get reply absent", statusOK, &GetResponse{}},
		{"topk reply two leaves", statusOK, &ResultData{
			Results: []core.JoinResult{
				{Left: tuple("p1", "17", 0.9), Right: tuple("l1", "17", 0.8), Score: 1.7},
				{Left: tuple("p2", "", 0), Right: tuple("", "x", -0.5), Score: -0.5},
			},
			Cost:      sim.Snapshot{SimTime: -5, NetworkBytes: 1, KVReads: 2, KVWrites: 3, RPCCalls: 4, DiskBytesRead: 5, TuplesShipped: 6},
			Algorithm: "isl", NextPageToken: "n0:1:tok",
		}},
		{"topk reply three leaves", statusOK, &ResultData{
			Results: []core.JoinResult{{
				Left: tuple("p1", "1", 0.5), Right: tuple("l1", "1.5", 0.25),
				Rest: []core.Tuple{tuple("o1", "2", 0.125)}, Score: 0.875,
			}},
			Cost:      sim.Snapshot{SimTime: 1 << 40, NetworkBytes: 1 << 33, KVReads: 300},
			Algorithm: "isl",
			Estimate:  &core.CostEstimate{SimTime: 2_000_000, NetworkBytes: 4096, KVReads: 250},
		}},
		{"topk reply empty", statusOK, &ResultData{Algorithm: "naive"}},
		{"merkle reply", statusOK, mb.Build()},
		{"fetch reply", statusOK, &RangeData{
			Families: []string{"d"}, Rows: []string{"p1", "p2"},
			Cells: []CellData{{Row: "p1", Family: "d", Qualifier: "j", Value: []byte("17"), Timestamp: 9}, {Row: "p2", Family: "d", Qualifier: "s", Timestamp: 10}},
		}},
		{"repair reply", statusOK, &RepairStats{RowsDeleted: 2, CellsApplied: 5}},
		{"error reply", statusError, &Error{Kind: KindBudget, Msg: "read budget of 10 units exhausted"}},
	}
}

// TestWireGolden pins the bytes of every frame kind: the header, the
// JSON bodies and the binary TopK reply. A change that moves a byte
// speaks another wire format and must bump the frame version. To
// regenerate after an intended format change, delete the file and run
// the test twice.
func TestWireGolden(t *testing.T) {
	var sb strings.Builder
	fb := newFrameBuf()
	for i, f := range goldenFrames() {
		if err := fb.encode(uint64(i+1), f.code, f.v); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		fmt.Fprintf(&sb, "%s: %s\n", f.name, hex.EncodeToString(fb.b))
	}
	got := sb.String()
	want, err := os.ReadFile(framesGoldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(framesGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and re-run", framesGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d\n got %s\nwant %s", framesGoldenPath, i+1, g, w)
		}
	}
}
