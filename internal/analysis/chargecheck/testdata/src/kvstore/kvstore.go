// Package kvstore mirrors the real storage package's billing shapes:
// OpStats-returning read primitives, named write primitives, charge
// helpers, and functions that must bill before reporting success.
package kvstore

import "sim"

// OpStats is the per-operation cost record; returning it marks a
// function as a storage primitive.
type OpStats struct{ Reads, Bytes int }

// fetchResult carries OpStats as a field: a function returning a struct
// with an OpStats field is a primitive too.
type fetchResult struct {
	stats OpStats
	err   error
}

type Region struct {
	metrics *sim.Metrics
	profile sim.Profile
}

// scanSegments is a read primitive: callers bill from the stats.
func (r *Region) scanSegments() (OpStats, error) { return OpStats{}, nil }

// fetchOnce is a primitive via the struct-field OpStats.
func (r *Region) fetchOnce() fetchResult { return fetchResult{} }

// mutateRow is a write primitive by name.
func (r *Region) mutateRow(key string) error { return nil }

// chargeRead always charges, so the fixpoint marks it as a charging
// helper.
func (r *Region) chargeRead(st OpStats) {
	r.metrics.AddReadRPC(st.Reads)
	r.metrics.AddDiskRead(st.Bytes)
}

// getViaHelper bills through the local helper: clean.
func (r *Region) getViaHelper(key string) error {
	st, err := r.scanSegments()
	if err != nil {
		return err
	}
	r.chargeRead(st)
	return nil
}

// getDirect bills through sim.Metrics directly: clean.
func (r *Region) getDirect(key string) error {
	st, err := r.scanSegments()
	if err != nil {
		return err
	}
	r.metrics.AddReadRPC(st.Reads)
	return nil
}

// getUnbilled drops the stats on the floor.
func (r *Region) getUnbilled(key string) error {
	_, err := r.scanSegments()
	if err != nil {
		return err
	}
	return nil // want `returns success here without charging sim\.Metrics`
}

// getPricedUnbilled prices its read with the shared price function but
// never charges: a computed price is not a bill.
func (r *Region) getPricedUnbilled(key string) (int64, error) {
	st, err := r.scanSegments()
	if err != nil {
		return 0, err
	}
	return r.profile.Price(&sim.Op{RPCs: 1, Cells: st.Reads}), nil // want `returns success here without charging sim\.Metrics`
}

// putUnbilled touches via the named write primitive.
func (r *Region) putUnbilled(key string) error {
	if err := r.mutateRow(key); err != nil {
		return err
	}
	return nil // want `returns success here without charging sim\.Metrics`
}

// putBilled charges after the write: clean.
func (r *Region) putBilled(key string) error {
	if err := r.mutateRow(key); err != nil {
		return err
	}
	r.metrics.AddWriteRPC(1)
	return nil
}

// prefetchUnbilled touches via the struct-field primitive.
func (r *Region) prefetchUnbilled() error {
	res := r.fetchOnce()
	if res.err != nil {
		return res.err
	}
	return nil // want `returns success here without charging sim\.Metrics`
}

// warmFallsOff has no results, so its implicit return is a success
// path.
func (r *Region) warmUnbilled() { // want `can fall off the end without charging sim\.Metrics`
	r.scanSegments()
}

// deferredCharge bills via defer, covering every return.
func (r *Region) deferredCharge() error {
	defer r.metrics.AddReadRPC(1)
	if _, err := r.scanSegments(); err != nil {
		return err
	}
	return nil
}

// errorOnlySkips only returns non-nil errors after touching; error
// paths may skip billing.
func (r *Region) errorOnlySkips(key string, fail error) error {
	if err := r.mutateRow(key); err != nil {
		return err
	}
	return fail
}

// branchBilledBothWays charges on every flowing path: clean.
func (r *Region) branchBilledBothWays(key string, wide bool) error {
	if err := r.mutateRow(key); err != nil {
		return err
	}
	if wide {
		r.metrics.AddWriteRPC(2)
	} else {
		r.metrics.AddWriteRPC(1)
	}
	return nil
}

// branchBilledOneWay misses the narrow path.
func (r *Region) branchBilledOneWay(key string, wide bool) error {
	if err := r.mutateRow(key); err != nil {
		return err
	}
	if wide {
		r.metrics.AddWriteRPC(2)
	}
	return nil // want `returns success here without charging sim\.Metrics`
}

// adminRebalance deliberately skips billing; admin operations are free
// in the cost model, and the suppression records that.
func (r *Region) adminRebalance() error {
	if err := r.mutateRow("meta"); err != nil {
		return err
	}
	//lint:allow chargecheck admin rebalance is free in the cost model
	return nil
}

// readDataBlock mirrors the disk read primitive: it accumulates into an
// OpStats parameter instead of returning one, so only the name list
// marks it as storage-touching.
func (r *Region) readDataBlock(io *OpStats, off, length uint64) error { return nil }

// writeSSTable mirrors the disk flush primitive.
func (r *Region) writeSSTable(name string) error { return nil }

// blockReadUnbilled touches disk through the parameter-style primitive
// and drops the measured stats.
func (r *Region) blockReadUnbilled() error {
	var st OpStats
	if err := r.readDataBlock(&st, 0, 0); err != nil {
		return err
	}
	return nil // want `returns success here without charging sim\.Metrics`
}

// blockReadBilled charges the measured block reads: clean.
func (r *Region) blockReadBilled() error {
	var st OpStats
	if err := r.readDataBlock(&st, 0, 0); err != nil {
		return err
	}
	r.metrics.AddDiskRead(st.Bytes)
	return nil
}

// flushUnbilled writes an SSTable without billing.
func (r *Region) flushUnbilled() error {
	if err := r.writeSSTable("000001.sst"); err != nil {
		return err
	}
	return nil // want `returns success here without charging sim\.Metrics`
}

// untouched never touches storage: nothing to bill.
func (r *Region) untouched(key string) error {
	if key == "" {
		return nil
	}
	return nil
}
