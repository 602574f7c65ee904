// Package clean is an rjlint fixture with nothing to report: every
// guarded access holds its mutex.
package clean

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by: mu
}

func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}
