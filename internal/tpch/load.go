package tpch

import (
	"fmt"
	"strconv"

	"repro/internal/kvstore"
)

// Table and column layout used when loading TPC-H data into the store.
// Every base-data row carries its join value and normalized score in the
// "d" family, the shape all the paper's algorithms consume.
const (
	DataFamily   = "d"
	JoinQual     = "join"
	ScoreQual    = "score"
	PartTable    = "part"
	OrdersTable  = "orders"
	LineitemT    = "lineitem"
	loadBatchLen = 2000
)

// RowKeyPart builds the row key of a part tuple.
func RowKeyPart(pk int) string { return "p" + kvstore.EncodeUint(uint64(pk), 10) }

// RowKeyOrder builds the row key of an order tuple.
func RowKeyOrder(ok int) string { return "o" + kvstore.EncodeUint(uint64(ok), 10) }

// RowKeyLineitem builds the row key of a lineitem tuple.
func RowKeyLineitem(ok, ln int) string {
	return "l" + kvstore.EncodeUint(uint64(ok), 10) + "-" + kvstore.EncodeUint(uint64(ln), 2)
}

// PartCells renders a part as store cells.
func PartCells(p *Part) []kvstore.Cell {
	row := RowKeyPart(p.PartKey)
	return []kvstore.Cell{
		{Row: row, Family: DataFamily, Qualifier: JoinQual, Value: []byte(strconv.Itoa(p.PartKey))},
		{Row: row, Family: DataFamily, Qualifier: ScoreQual, Value: kvstore.FloatValue(p.Score)},
		{Row: row, Family: DataFamily, Qualifier: "name", Value: []byte(p.Name)},
		{Row: row, Family: DataFamily, Qualifier: "retailprice", Value: kvstore.FloatValue(p.RetailPrice)},
	}
}

// OrderCells renders an order as store cells.
func OrderCells(o *Order) []kvstore.Cell {
	row := RowKeyOrder(o.OrderKey)
	return []kvstore.Cell{
		{Row: row, Family: DataFamily, Qualifier: JoinQual, Value: []byte(strconv.Itoa(o.OrderKey))},
		{Row: row, Family: DataFamily, Qualifier: ScoreQual, Value: kvstore.FloatValue(o.Score)},
		{Row: row, Family: DataFamily, Qualifier: "totalprice", Value: kvstore.FloatValue(o.TotalPrice)},
	}
}

// LineitemCells renders a lineitem as store cells. joinOn selects the
// join attribute exposed in the JoinQual column: "partkey" for Q1 joins,
// "orderkey" for Q2 joins.
func LineitemCells(l *Lineitem, joinOn string) ([]kvstore.Cell, error) {
	var join string
	switch joinOn {
	case "partkey":
		join = strconv.Itoa(l.PartKey)
	case "orderkey":
		join = strconv.Itoa(l.OrderKey)
	default:
		return nil, fmt.Errorf("tpch: unknown join attribute %q", joinOn)
	}
	row := RowKeyLineitem(l.OrderKey, l.LineNumber)
	return []kvstore.Cell{
		{Row: row, Family: DataFamily, Qualifier: JoinQual, Value: []byte(join)},
		{Row: row, Family: DataFamily, Qualifier: ScoreQual, Value: kvstore.FloatValue(l.Score)},
		{Row: row, Family: DataFamily, Qualifier: "quantity", Value: []byte(strconv.Itoa(l.Quantity))},
		{Row: row, Family: DataFamily, Qualifier: "extendedprice", Value: kvstore.FloatValue(l.ExtendedPrice)},
	}, nil
}

// Load creates and fills the part, orders, and lineitem tables on the
// cluster, pre-split so each table spans all nodes. The lineitem table's
// join column is set per lineitemJoin ("partkey" or "orderkey"). Each
// table's cells land in one call of the store's bulk door
// (kvstore.Cluster.BulkWrite) and are billed as batched writes of about
// loadBatchLen cells.
func Load(c *kvstore.Cluster, d *Data, lineitemJoin string) error {
	families := []string{DataFamily}
	mkSplits := func(prefix string, n, max int) []string {
		// n split points spread uniformly over the key space.
		var out []string
		for i := 1; i <= n; i++ {
			out = append(out, prefix+kvstore.EncodeUint(uint64(max*i/(n+1)), 10))
		}
		return out
	}
	nodes := c.Nodes()
	if _, err := c.CreateTable(PartTable, families, mkSplits("p", nodes-1, len(d.Parts))); err != nil {
		return err
	}
	if _, err := c.CreateTable(OrdersTable, families, mkSplits("o", nodes-1, len(d.Orders))); err != nil {
		return err
	}
	if _, err := c.CreateTable(LineitemT, families, mkSplits("l", nodes-1, len(d.Orders))); err != nil {
		return err
	}

	// load lands one table's cells through the bulk door in one call
	// and bills them as the batches the loader sends: a batch closes at
	// the first record that brings it to loadBatchLen cells.
	load := func(table string, records int, cellsOf func(i int) ([]kvstore.Cell, error)) error {
		var cells []kvstore.Cell
		cuts := []int{0}
		for i := 0; i < records; i++ {
			rec, err := cellsOf(i)
			if err != nil {
				return err
			}
			cells = append(cells, rec...)
			if len(cells)-cuts[len(cuts)-1] >= loadBatchLen {
				cuts = append(cuts, len(cells))
			}
		}
		if cuts[len(cuts)-1] < len(cells) {
			cuts = append(cuts, len(cells))
		}
		//lint:allow maintcheck TPC-H loader bulk-loads fresh tables; indexes are built after loading
		if _, err := c.BulkWrite(table, cells); err != nil {
			return err
		}
		for k := 1; k < len(cuts); k++ {
			c.ChargeBatchWrite(cells[cuts[k-1]:cuts[k]])
		}
		return nil
	}
	if err := load(PartTable, len(d.Parts), func(i int) ([]kvstore.Cell, error) { return PartCells(&d.Parts[i]), nil }); err != nil {
		return err
	}
	if err := load(OrdersTable, len(d.Orders), func(i int) ([]kvstore.Cell, error) { return OrderCells(&d.Orders[i]), nil }); err != nil {
		return err
	}
	return load(LineitemT, len(d.Lineitems), func(i int) ([]kvstore.Cell, error) { return LineitemCells(&d.Lineitems[i], lineitemJoin) })
}
