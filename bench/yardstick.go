package main

import (
	"sort"
	"strconv"
	"time"
)

// The sandbox the benchmark runs on shares its memory system with
// other tenants, and their load changes over minutes: the same binary
// on the same seed ran chain_stream_mem at 72 ops/s and, twenty minutes
// later, at 51, every one of eight rounds slow, while a register-only
// spin loop held steady to 3%. No statistic over one run's rounds can
// remove a slow-down that outlasts the run. The yardstick can: a fixed
// piece of work that belongs to the bench, not to the program under
// test — small allocations, a string-keyed map, a sort, a block copy,
// the kinds of work the store itself is made of — run between ops
// throughout every round. A round's wall-clock and CPU figures are
// scaled by how much slower than nominal the yardstick ran in that
// same round, which expresses them as time on the nominal machine.
// A change to the program cannot move the yardstick, so it cannot hide
// in the scaling. In the probe that sized this (ten runs, eighty
// rounds) raw ops/s per round ranged 42–75 and scaled ops/s 41–54.

// yardEvery is how many ops pass between two yardstick calls; at a
// fifth of a millisecond per call that costs a round 1–3% extra time
// and gives it 30–70 samples of the machine's speed.
const yardEvery = 4

// yardNominal is the yardstick's duration on the quiet 2-core sandbox.
// It only fixes the scale: on another machine every time metric moves
// by one factor.
const yardNominal = 170 * time.Microsecond

var (
	yardSrc  = make([]byte, 1<<20)
	yardDst  = make([]byte, 1<<20)
	yardSink float64
)

// yardstick does the fixed work once and returns how long it took, in
// nanoseconds.
func yardstick() float64 {
	t0 := time.Now()
	const n = 512
	type cell struct {
		key  string
		v    float64
		next *cell
	}
	m := make(map[string]int, n)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = strconv.Itoa(i * 7919)
		m[keys[i]] = i
	}
	var head *cell
	for i := 0; i < n; i++ {
		head = &cell{key: keys[i], v: float64(m[keys[(i*31)%n]]), next: head}
	}
	s := make([]float64, 0, n)
	for c := head; c != nil; c = c.next {
		s = append(s, c.v)
	}
	sort.Float64s(s)
	copy(yardDst, yardSrc)
	yardSink += s[n/2] + float64(yardDst[len(yardDst)-1])
	return float64(time.Since(t0))
}

// speedOf turns yardstick samples into the machine's speed relative to
// nominal: below 1 when the yardstick ran slow. The median sample is
// used, so a few calls that caught a GC assist or a scheduler hiccup
// do not count. No samples means no scaling. Only samples taken between
// ops are comparable: called back to back the yardstick finds its own
// data still in cache and runs twice as fast.
func speedOf(yard []float64) float64 {
	if len(yard) == 0 {
		return 1
	}
	return float64(yardNominal) / median(yard)
}
