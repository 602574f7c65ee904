//go:build race

package kvstore

// raceEnabled reports a race-detector build, under which sync.Pool
// drops a share of what is put back: allocation counts of pooled paths
// are not steady there.
const raceEnabled = true
