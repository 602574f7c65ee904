// Package tpch generates the evaluation datasets of Section 7: the TPC-H
// Part, Orders, and Lineitem tables at arbitrary scale factors, with the
// pricing formulas of the TPC-H specification, plus the update sets
// (insert/delete batches) used in the online-updates experiment.
//
// At scale factor s, TPC-H defines |Part| = 200,000*s, |Orders| =
// 1,500,000*s, and |Lineitem| ~ 6,000,000*s (each order has 1-7 line
// items). The paper ran s in [10, 500]; this reproduction runs small
// fractional scale factors (the generator is exact at any s) because the
// algorithms' relative behaviour is scale-free once tables span multiple
// regions.
//
// Score normalization: the paper's framework assumes score attributes in
// [0,1] (Section 1.1). Every generated tuple carries both its raw price
// and a normalized score: RetailPrice/maxRetail for parts,
// ExtendedPrice/maxExtended for line items, TotalPrice/maxTotal for
// orders. The bounds are analytic, so normalization is deterministic.
package tpch

import (
	"fmt"
	"math/rand"
)

// Part mirrors the TPC-H PART table columns the queries touch.
type Part struct {
	PartKey     int
	Name        string
	RetailPrice float64 // dollars
	Score       float64 // normalized to [0,1]
}

// Order mirrors the TPC-H ORDERS table columns the queries touch.
type Order struct {
	OrderKey   int
	TotalPrice float64
	Score      float64
}

// Lineitem mirrors the TPC-H LINEITEM table columns the queries touch.
type Lineitem struct {
	OrderKey      int
	PartKey       int
	LineNumber    int
	Quantity      int
	ExtendedPrice float64
	Score         float64
}

// Spec constants from the TPC-H specification.
const (
	partsPerSF     = 200000
	ordersPerSF    = 1500000
	maxLinesPerOrd = 7
	maxQuantity    = 50
)

// retailPriceCents implements the TPC-H price formula:
// p_retailprice = (90000 + ((pk/10) mod 20001) + 100*(pk mod 1000)) / 100.
func retailPriceCents(partKey int) int {
	return 90000 + (partKey/10)%20001 + 100*(partKey%1000)
}

// maxRetailPrice is the analytic upper bound of the formula above.
const maxRetailPrice = (90000 + 20000 + 100*999) / 100.0 // 2099.00

// maxExtendedPrice bounds quantity * retail price.
const maxExtendedPrice = maxQuantity * maxRetailPrice

// maxTotalPrice bounds an order's total (7 max-priced max-quantity lines).
const maxTotalPrice = maxLinesPerOrd * maxExtendedPrice

// Data is one generated TPC-H instance.
type Data struct {
	ScaleFactor float64
	Parts       []Part
	Orders      []Order
	Lineitems   []Lineitem
}

// Generate produces a deterministic TPC-H instance for the scale factor.
// Fractional scale factors shrink all tables proportionally.
func Generate(sf float64, seed int64) *Data {
	if sf <= 0 {
		sf = 0.001
	}
	rng := rand.New(rand.NewSource(seed))
	nParts := int(float64(partsPerSF) * sf)
	if nParts < 10 {
		nParts = 10
	}
	nOrders := int(float64(ordersPerSF) * sf)
	if nOrders < 10 {
		nOrders = 10
	}

	d := &Data{ScaleFactor: sf}
	d.Parts = make([]Part, 0, nParts)
	for pk := 1; pk <= nParts; pk++ {
		price := float64(retailPriceCents(pk)) / 100
		d.Parts = append(d.Parts, Part{
			PartKey:     pk,
			Name:        fmt.Sprintf("part-%d", pk),
			RetailPrice: price,
			Score:       price / maxRetailPrice,
		})
	}

	d.Orders = make([]Order, 0, nOrders)
	d.Lineitems = make([]Lineitem, 0, nOrders*4)
	for ok := 1; ok <= nOrders; ok++ {
		nLines := 1 + rng.Intn(maxLinesPerOrd)
		var total float64
		for ln := 1; ln <= nLines; ln++ {
			pk := 1 + rng.Intn(nParts)
			qty := 1 + rng.Intn(maxQuantity)
			ext := float64(qty) * float64(retailPriceCents(pk)) / 100
			total += ext
			d.Lineitems = append(d.Lineitems, Lineitem{
				OrderKey:      ok,
				PartKey:       pk,
				LineNumber:    ln,
				Quantity:      qty,
				ExtendedPrice: ext,
				Score:         ext / maxExtendedPrice,
			})
		}
		d.Orders = append(d.Orders, Order{
			OrderKey:   ok,
			TotalPrice: total,
			Score:      total / maxTotalPrice,
		})
	}
	return d
}

// Mutation is one entry of an update set.
type Mutation struct {
	// Insert is true for an insertion, false for a deletion.
	Insert bool
	// Table is "orders" or "lineitem".
	Table string
	// The new or deleted tuple (only the matching field is set).
	Order    *Order
	Lineitem *Lineitem
}

// UpdateSet mirrors the paper's refresh workload: "each consisting of
// ~s*600 insertions and ~s*150 deletions for scale-factor s" (Section
// 7.2, Online Updates). Insertions add fresh orders with line items;
// deletions remove existing line items and orders. The nextOrderKey
// should start beyond the base data's largest key.
func (d *Data) UpdateSet(setNo int, seed int64) []Mutation {
	rng := rand.New(rand.NewSource(seed + int64(setNo)*7919))
	nIns := int(600 * d.ScaleFactor)
	if nIns < 6 {
		nIns = 6
	}
	nDel := int(150 * d.ScaleFactor)
	if nDel < 2 {
		nDel = 2
	}
	nParts := len(d.Parts)
	nextOrderKey := len(d.Orders) + setNo*nIns*2 + 1

	var out []Mutation
	// Insertions: whole new orders with their line items. An "insertion
	// unit" in TPC-H RF1 is one order row plus its lineitem rows; we
	// count each row as one mutation like the paper's ~750 total.
	inserted := 0
	for inserted < nIns {
		ok := nextOrderKey
		nextOrderKey++
		nLines := 1 + rng.Intn(maxLinesPerOrd)
		var total float64
		var lines []Lineitem
		for ln := 1; ln <= nLines && inserted+1+len(lines) < nIns+nLines; ln++ {
			pk := 1 + rng.Intn(nParts)
			qty := 1 + rng.Intn(maxQuantity)
			ext := float64(qty) * float64(retailPriceCents(pk)) / 100
			total += ext
			lines = append(lines, Lineitem{
				OrderKey: ok, PartKey: pk, LineNumber: ln, Quantity: qty,
				ExtendedPrice: ext, Score: ext / maxExtendedPrice,
			})
		}
		o := Order{OrderKey: ok, TotalPrice: total, Score: total / maxTotalPrice}
		out = append(out, Mutation{Insert: true, Table: "orders", Order: &o})
		inserted++
		for i := range lines {
			out = append(out, Mutation{Insert: true, Table: "lineitem", Lineitem: &lines[i]})
			inserted++
		}
	}
	// Deletions: existing line items (and their orders occasionally).
	for i := 0; i < nDel && len(d.Lineitems) > 0; i++ {
		li := d.Lineitems[rng.Intn(len(d.Lineitems))]
		out = append(out, Mutation{Insert: false, Table: "lineitem", Lineitem: &li})
		if rng.Intn(4) == 0 {
			o := d.Orders[li.OrderKey-1]
			out = append(out, Mutation{Insert: false, Table: "orders", Order: &o})
		}
	}
	return out
}
