// Package merkle builds and diffs Merkle trees over row digests for
// replica anti-entropy.
//
// A tree summarizes one table replica's live contents. Rows are mapped
// onto a fixed number of leaves by HASH-TOKEN RANGE — leaf i covers the
// i-th equal slice of the 64-bit hash space of row keys (the Cassandra
// token-range idiom) — so two replicas of the same table always bucket
// a given row into the same leaf regardless of which rows the other
// replica holds, and a leaf identifies a well-defined repairable key
// population. Within a leaf, per-row digests combine order-independently
// (XOR plus a row count), so building needs no sort and streaming order
// does not matter. Above the leaves sits an ordinary binary hash tree;
// comparing two replicas' trees descends from the root and touches only
// the subtrees that differ, returning the divergent leaf indexes — the
// exact repair work list.
//
// Digests cover row keys, column coordinates, timestamps, and values,
// so a replica that missed a write, applied a torn one, or holds a
// bit-rotted value diverges; tombstoned (dead) data is invisible, so a
// repair that re-deletes an extra row converges even though the
// repairing tombstone's timestamp is local.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Digest is a 32-byte SHA-256 digest.
type Digest [32]byte

// IsZero reports whether the digest is the zero value (an empty leaf).
func (d Digest) IsZero() bool { return d == Digest{} }

// xor combines two digests order-independently.
func (d Digest) xor(o Digest) Digest {
	var out Digest
	for i := range d {
		out[i] = d[i] ^ o[i]
	}
	return out
}

// Leaf is one hash-token range's accumulated digest.
type Leaf struct {
	// Hash is the XOR of the digests of every row in the range.
	Hash Digest `json:"hash"`
	// Count is the number of rows in the range. XOR alone cannot tell
	// "both rows missing" from "both rows present"; the count breaks
	// the tie for pairs of divergences that cancel byte-wise.
	Count uint64 `json:"count"`
}

// Tree is a sealed Merkle tree: the wire form carries only the leaf
// layer (internal levels are recomputed after decoding with Seal).
type Tree struct {
	Leaves []Leaf `json:"leaves"`
	// levels[0] is the leaf-layer hash row; levels[len-1] is [root].
	levels [][]Digest
}

// Token maps a row key into the 64-bit hash space leaves partition.
func Token(rowKey string) uint64 {
	h := sha256.Sum256([]byte(rowKey))
	return binary.BigEndian.Uint64(h[:8])
}

// LeafIndex returns the leaf (of leafCount) whose token range covers
// the row key.
func LeafIndex(leafCount int, rowKey string) int {
	// token / (2^64 / leafCount): top-of-hash-space range partition.
	return int(Token(rowKey) / (^uint64(0)/uint64(leafCount) + 1))
}

// HashRow digests one row: the key plus each part (cell coordinates,
// timestamps, values) in the order given, length-prefixed so
// concatenations cannot collide.
func HashRow(rowKey string, parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(rowKey)))
	h.Write(lenBuf[:])
	h.Write([]byte(rowKey))
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// Builder accumulates row digests into a tree.
type Builder struct {
	leaves []Leaf
}

// normalizeLeaves returns the leaf count NewBuilder(n) actually uses:
// n rounded up to a power of two, minimum 2.
func normalizeLeaves(n int) int {
	m := 2
	for m < n {
		m *= 2
	}
	return m
}

// NewBuilder returns a builder with leafCount token ranges (rounded up
// to a power of two, minimum 2, so the binary tree above is complete).
func NewBuilder(leafCount int) *Builder {
	return &Builder{leaves: make([]Leaf, normalizeLeaves(leafCount))}
}

// Add folds one row digest into its token range's leaf.
func (b *Builder) Add(rowKey string, d Digest) {
	i := LeafIndex(len(b.leaves), rowKey)
	b.leaves[i].Hash = b.leaves[i].Hash.xor(d)
	b.leaves[i].Count++
}

// Build seals the accumulated leaves into a tree.
func (b *Builder) Build() *Tree {
	t := &Tree{Leaves: b.leaves}
	t.Seal()
	return t
}

// Seal (re)computes the internal node levels from the leaf layer —
// called by Build and again after decoding a tree off the wire.
func (t *Tree) Seal() {
	level := make([]Digest, len(t.Leaves))
	var buf [48]byte
	for i, l := range t.Leaves {
		copy(buf[:32], l.Hash[:])
		binary.BigEndian.PutUint64(buf[32:40], l.Count)
		binary.BigEndian.PutUint64(buf[40:48], uint64(i))
		level[i] = sha256.Sum256(buf[:])
	}
	t.levels = [][]Digest{level}
	for len(level) > 1 {
		next := make([]Digest, (len(level)+1)/2)
		for i := range next {
			var pair [64]byte
			copy(pair[:32], level[2*i][:])
			if 2*i+1 < len(level) {
				copy(pair[32:], level[2*i+1][:])
			}
			next[i] = sha256.Sum256(pair[:])
		}
		t.levels = append(t.levels, next)
		level = next
	}
}

// Root returns the tree's root digest.
func (t *Tree) Root() Digest {
	if t.levels == nil {
		t.Seal()
	}
	return t.levels[len(t.levels)-1][0]
}

// Count returns the total number of rows summarized.
func (t *Tree) Count() uint64 {
	var n uint64
	for _, l := range t.Leaves {
		n += l.Count
	}
	return n
}

// Diff compares two trees of the same shape and returns the indexes of
// the divergent leaves, in order. Equal trees compare in O(1) at the
// root; localized divergence descends only the differing subtrees.
func Diff(a, b *Tree) ([]int, error) {
	if len(a.Leaves) != len(b.Leaves) {
		return nil, fmt.Errorf("merkle: tree shapes differ (%d vs %d leaves)", len(a.Leaves), len(b.Leaves))
	}
	if a.levels == nil {
		a.Seal()
	}
	if b.levels == nil {
		b.Seal()
	}
	var out []int
	top := len(a.levels) - 1
	var walk func(level, idx int)
	walk = func(level, idx int) {
		if a.levels[level][idx] == b.levels[level][idx] {
			return
		}
		if level == 0 {
			out = append(out, idx)
			return
		}
		left := 2 * idx
		walk(level-1, left)
		if left+1 < len(a.levels[level-1]) {
			walk(level-1, left+1)
		}
	}
	walk(top, 0)
	return out, nil
}
