package transport

import (
	"sync/atomic"

	"repro/internal/merkle"
)

// Gate wraps a RegionService with a kill switch: while stopped, every
// call fails with a typed unavailable error, exactly as a crashed or
// partitioned node looks to the router. Node-failure tests flip it
// mid-query; it also backs the loopback topology's StopNode/StartNode.
type Gate struct {
	svc     RegionService
	stopped atomic.Bool
}

// NewGate wraps svc, initially open.
func NewGate(svc RegionService) *Gate { return &Gate{svc: svc} }

// Stop makes every subsequent call fail unavailable.
func (g *Gate) Stop() { g.stopped.Store(true) }

// Start re-opens the gate.
func (g *Gate) Start() { g.stopped.Store(false) }

func (g *Gate) check() error {
	if g.stopped.Load() {
		return Unavailable("node stopped")
	}
	return nil
}

// Health implements RegionService.
func (g *Gate) Health() (*HealthInfo, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.svc.Health()
}

// DefineRelation implements RegionService.
func (g *Gate) DefineRelation(name string) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.svc.DefineRelation(name)
}

// EnsureIndexes implements RegionService.
func (g *Gate) EnsureIndexes(req EnsureRequest) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.svc.EnsureIndexes(req)
}

// Apply implements RegionService.
func (g *Gate) Apply(op WriteOp) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.svc.Apply(op)
}

// GetTuple implements RegionService.
func (g *Gate) GetTuple(relation, rowKey string) (*GetResponse, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.svc.GetTuple(relation, rowKey)
}

// TopK implements RegionService.
func (g *Gate) TopK(req QueryRequest) (*ResultData, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.svc.TopK(req)
}

// MerkleTree implements RegionService.
func (g *Gate) MerkleTree(req TreeRequest) (*merkle.Tree, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.svc.MerkleTree(req)
}

// FetchRange implements RegionService.
func (g *Gate) FetchRange(req RangeRequest) (*RangeData, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.svc.FetchRange(req)
}

// Repair implements RegionService.
func (g *Gate) Repair(req RepairRequest) (*RepairStats, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	return g.svc.Repair(req)
}

// Close implements RegionService.
func (g *Gate) Close() error { return g.svc.Close() }

var _ RegionService = (*Gate)(nil)
