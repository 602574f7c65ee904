// Package client exercises maintcheck from outside the storage and
// maintenance layers, where every direct mutation is a bypass.
package client

import (
	"core"
	"kvstore"
)

func insertBad(c *kvstore.Cluster) error {
	return c.Put("users", "u1", "v") // want `Cluster\.Put mutates a base table outside the core\.Maintainer pipeline`
}

func batchBad(c *kvstore.Cluster) error {
	return c.BatchPut("users", 2) // want `Cluster\.BatchPut mutates a base table outside the core\.Maintainer pipeline`
}

func groupBad(c *kvstore.Cluster) error {
	return c.GroupWrite(nil) // want `Cluster\.GroupWrite mutates a base table outside the core\.Maintainer pipeline`
}

// readsAreFine: non-mutating calls are out of scope.
func readsAreFine(c *kvstore.Cluster) error {
	if _, err := c.Get("users", "u1"); err != nil {
		return err
	}
	_, err := c.Scan("users")
	return err
}

// viaMaintainer routes through the pipeline: clean.
func viaMaintainer(m *core.Maintainer) error {
	return m.Apply(nil)
}

// bulkLoad is a sanctioned bypass: it rebuilds every index after
// loading, and the suppression documents that.
func bulkLoad(c *kvstore.Cluster) error {
	//lint:allow maintcheck bulk load rebuilds all indexes afterwards
	return c.BatchPut("users", 1000)
}

// otherPut: same method name on an unrelated type is out of scope.
type sink struct{}

func (s *sink) Put(a, b, c string) error { return nil }

func otherPut(s *sink) error {
	return s.Put("a", "b", "c")
}
