// Package unlocked is an rjlint fixture with one lockcheck finding: a
// guarded field read without its mutex.
package unlocked

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by: mu
}

func (c *counter) get() int {
	return c.n
}
