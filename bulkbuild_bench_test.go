package rankjoin_test

import (
	"strconv"
	"testing"

	rankjoin "repro"
	"repro/internal/tpch"
)

// BenchmarkBulkBuild times a TPC-H set-up's build work in memory mode:
// BulkLoad of part, orders and lineitem (once per join column) at SF
// 0.005, then EnsureIndexes for IJLMR, ISL, BFHM and DRJN on Q1 (part x
// lineitem on the part key) and Q2 (orders x lineitem on the order key).
// Each iteration opens a fresh DB; generating the tuples is outside the
// timed loop.
func BenchmarkBulkBuild(b *testing.B) {
	data := tpch.Generate(0.005, 1)
	tuples := map[string][]rankjoin.Tuple{}
	for i := range data.Parts {
		p := &data.Parts[i]
		tuples["part"] = append(tuples["part"], rankjoin.Tuple{RowKey: tpch.RowKeyPart(p.PartKey), JoinValue: strconv.Itoa(p.PartKey), Score: p.Score})
	}
	for i := range data.Orders {
		o := &data.Orders[i]
		tuples["orders"] = append(tuples["orders"], rankjoin.Tuple{RowKey: tpch.RowKeyOrder(o.OrderKey), JoinValue: strconv.Itoa(o.OrderKey), Score: o.Score})
	}
	for i := range data.Lineitems {
		l := &data.Lineitems[i]
		key := tpch.RowKeyLineitem(l.OrderKey, l.LineNumber)
		tuples["lineitem_pk"] = append(tuples["lineitem_pk"], rankjoin.Tuple{RowKey: key, JoinValue: strconv.Itoa(l.PartKey), Score: l.Score})
		tuples["lineitem_ok"] = append(tuples["lineitem_ok"], rankjoin.Tuple{RowKey: key, JoinValue: strconv.Itoa(l.OrderKey), Score: l.Score})
	}
	queries := []struct {
		left, right string
		score       rankjoin.ScoreFunc
	}{{"part", "lineitem_pk", rankjoin.Product}, {"orders", "lineitem_ok", rankjoin.Sum}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, err := rankjoin.Open(rankjoin.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"part", "orders", "lineitem_pk", "lineitem_ok"} {
			h, err := db.DefineRelation(name)
			if err != nil {
				b.Fatal(err)
			}
			if err := h.BulkLoad(tuples[name]); err != nil {
				b.Fatal(err)
			}
		}
		for _, spec := range queries {
			q, err := db.NewQuery(spec.left, spec.right, spec.score, 10)
			if err != nil {
				b.Fatal(err)
			}
			if err := db.EnsureIndexes(q, rankjoin.AlgoIJLMR, rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
