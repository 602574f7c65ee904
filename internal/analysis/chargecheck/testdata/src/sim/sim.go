// Package sim stubs the metrics sink for chargecheck fixtures; the
// analyzer matches it by package name.
package sim

type Metrics struct{}

func (m *Metrics) AddReadRPC(n int)      {}
func (m *Metrics) AddWriteRPC(n int)     {}
func (m *Metrics) AddDiskRead(bytes int) {}

// Op and Profile stub the shared price function: pricing computes a
// duration and charges nothing.
type Op struct{ RPCs, Cells int }

type Profile struct{}

func (p *Profile) Price(op *Op) int64 { return 0 }
