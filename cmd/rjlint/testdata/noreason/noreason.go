// Package noreason is an rjlint fixture whose only lockcheck finding is
// silenced by a //lint:allow that gives no reason, which rjlint reports
// in its place.
package noreason

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by: mu
}

func (c *counter) get() int {
	//lint:allow lockcheck
	return c.n
}
