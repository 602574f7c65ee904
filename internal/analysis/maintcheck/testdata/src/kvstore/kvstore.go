// Package kvstore stubs the cluster API for maintcheck fixtures; the
// analyzer matches Cluster by type and package name.
package kvstore

type Mutation struct{}

type Cluster struct{}

func (c *Cluster) Put(table, row, val string) error      { return nil }
func (c *Cluster) BatchPut(table string, n int) error    { return nil }
func (c *Cluster) GroupWrite(muts []Mutation) error      { return nil }
func (c *Cluster) BulkWrite(table string, n int) error   { return nil }
func (c *Cluster) Get(table, row string) (string, error) { return "", nil }
func (c *Cluster) Scan(table string) ([]string, error)   { return nil, nil }
