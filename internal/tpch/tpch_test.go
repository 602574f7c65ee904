package tpch

import (
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.001, 42)
	b := Generate(0.001, 42)
	if len(a.Parts) != len(b.Parts) || len(a.Orders) != len(b.Orders) || len(a.Lineitems) != len(b.Lineitems) {
		t.Fatal("same seed produced different sizes")
	}
	for i := range a.Lineitems {
		if a.Lineitems[i] != b.Lineitems[i] {
			t.Fatal("same seed produced different lineitems")
		}
	}
	c := Generate(0.001, 43)
	if len(c.Lineitems) == len(a.Lineitems) {
		same := true
		for i := range c.Lineitems {
			if c.Lineitems[i] != a.Lineitems[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical data")
		}
	}
}

func TestGenerateProportions(t *testing.T) {
	d := Generate(0.002, 1)
	if got, want := len(d.Parts), 400; got != want {
		t.Errorf("parts = %d, want %d", got, want)
	}
	if got, want := len(d.Orders), 3000; got != want {
		t.Errorf("orders = %d, want %d", got, want)
	}
	// 1..7 lines per order, expectation 4.
	avg := float64(len(d.Lineitems)) / float64(len(d.Orders))
	if avg < 3.5 || avg > 4.5 {
		t.Errorf("avg lineitems/order = %.2f, want ~4", avg)
	}
}

func TestScoresNormalized(t *testing.T) {
	d := Generate(0.002, 7)
	for _, p := range d.Parts {
		if p.Score <= 0 || p.Score > 1 {
			t.Fatalf("part score %g out of (0,1]", p.Score)
		}
	}
	for _, o := range d.Orders {
		if o.Score <= 0 || o.Score > 1 {
			t.Fatalf("order score %g out of (0,1]", o.Score)
		}
	}
	for _, l := range d.Lineitems {
		if l.Score <= 0 || l.Score > 1 {
			t.Fatalf("lineitem score %g out of (0,1]", l.Score)
		}
		if l.Quantity < 1 || l.Quantity > 50 {
			t.Fatalf("quantity %d out of TPC-H range", l.Quantity)
		}
	}
}

func TestRetailPriceFormula(t *testing.T) {
	// Spot-check against the TPC-H formula.
	if got := retailPriceCents(1); got != 90000+0+100*1 {
		t.Errorf("retailPriceCents(1) = %d", got)
	}
	if got := retailPriceCents(1000); got != 90000+100+0 {
		t.Errorf("retailPriceCents(1000) = %d", got)
	}
	if maxRetailPrice != 2099.0 {
		t.Errorf("maxRetail = %g, want 2099", maxRetailPrice)
	}
	if maxExtendedPrice != 50*2099.0 || maxTotalPrice != 7*50*2099.0 {
		t.Errorf("bounds = %g, %g", maxExtendedPrice, maxTotalPrice)
	}
}

func TestOrderTotalsMatchLineitems(t *testing.T) {
	d := Generate(0.001, 3)
	totals := map[int]float64{}
	for _, l := range d.Lineitems {
		totals[l.OrderKey] += l.ExtendedPrice
	}
	for _, o := range d.Orders {
		if diff := totals[o.OrderKey] - o.TotalPrice; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("order %d total %g != sum of lineitems %g", o.OrderKey, o.TotalPrice, totals[o.OrderKey])
		}
	}
}

func TestUpdateSetShape(t *testing.T) {
	d := Generate(0.01, 5)
	set := d.UpdateSet(1, 99)
	if len(set) == 0 {
		t.Fatal("empty update set")
	}
	var ins, del int
	maxBase := len(d.Orders)
	for _, m := range set {
		if m.Insert {
			ins++
			if m.Table == "orders" && m.Order.OrderKey <= maxBase {
				t.Fatal("inserted order collides with base data")
			}
		} else {
			del++
			if m.Table == "lineitem" && m.Lineitem == nil {
				t.Fatal("deletion without tuple")
			}
		}
	}
	if ins == 0 || del == 0 {
		t.Fatalf("ins=%d del=%d; want both nonzero", ins, del)
	}
	// Paper ratio: ~600 insertions to ~150 deletions (4:1).
	ratio := float64(ins) / float64(del)
	if ratio < 2 || ratio > 8 {
		t.Errorf("insert/delete ratio = %.1f, want ~4", ratio)
	}
	// Distinct sets differ.
	set2 := d.UpdateSet(2, 99)
	if len(set2) > 0 && len(set) > 0 && set2[0].Order != nil && set[0].Order != nil &&
		set2[0].Order.OrderKey == set[0].Order.OrderKey {
		t.Error("set 2 reuses set 1's order keys")
	}
}

func TestRowKeysSortable(t *testing.T) {
	if RowKeyPart(2) >= RowKeyPart(10) {
		t.Error("part keys must sort numerically")
	}
	if RowKeyOrder(2) >= RowKeyOrder(10) {
		t.Error("order keys must sort numerically")
	}
	if RowKeyLineitem(1, 2) >= RowKeyLineitem(1, 3) {
		t.Error("lineitem keys must sort by line number")
	}
	if RowKeyLineitem(1, 7) >= RowKeyLineitem(2, 1) {
		t.Error("lineitem keys must sort by order first")
	}
}
