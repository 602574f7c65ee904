// Package core stubs the maintainer pipeline: its methods are the one
// sanctioned funnel for base-table mutations.
package core

import "kvstore"

type Maintainer struct {
	C *kvstore.Cluster
}

// Apply is the write-through funnel: mutations inside Maintainer
// methods are sanctioned.
func (m *Maintainer) Apply(muts []kvstore.Mutation) error {
	return m.C.GroupWrite(muts)
}

// repairIndex is also a Maintainer method, so direct mutation is fine.
func (m *Maintainer) repairIndex(table, row string) error {
	return m.C.Put(table, row, "v")
}

// RebuildAll is a plain function in core, not a Maintainer method: it
// bypasses the pipeline.
func RebuildAll(c *kvstore.Cluster, table string) error {
	return c.BatchPut(table, 0) // want `outside the core\.Maintainer pipeline`
}
