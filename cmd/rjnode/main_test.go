package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	rankjoin "repro"
	"repro/internal/transport"
)

// freeAddr returns a loopback address no one is listening on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// node is one run of rjnode in the background.
type node struct {
	stop chan os.Signal
	done chan error
}

// startNode runs rjnode on addr over dir and waits until it answers a
// health call.
func startNode(t *testing.T, addr, dir string) *node {
	t.Helper()
	n := &node{stop: make(chan os.Signal), done: make(chan error, 1)}
	go func() { n.done <- run([]string{"-addr", addr, "-name", "n1", "-data", dir}, n.stop) }()
	cl := transport.Dial(addr)
	defer cl.Close()
	for deadline := time.Now().Add(10 * time.Second); ; {
		select {
		case err := <-n.done:
			t.Fatalf("rjnode exited before serving: %v", err)
		default:
		}
		if _, err := cl.Health(); err == nil {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatal("rjnode did not start serving")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// shutdown stops the node as a signal would and waits for run to return.
func (n *node) shutdown(t *testing.T) {
	t.Helper()
	close(n.stop)
	if err := <-n.done; err != nil {
		t.Fatalf("rjnode: %v", err)
	}
}

// TestNodeRestartRecovers serves a durable node, loads two relations and
// an index through a router, restarts the node on the same directory,
// and requires the relations back and the router's query to return the
// same rows as before the restart.
func TestNodeRestartRecovers(t *testing.T) {
	dir, addr := t.TempDir(), freeAddr(t)
	n := startNode(t, addr, dir)
	d, err := rankjoin.OpenDistributed(rankjoin.Config{Topology: &rankjoin.Topology{
		Nodes: []rankjoin.NodeSpec{{Name: "n1", Addr: addr}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, rel := range []string{"left", "right"} {
		h, err := d.DefineRelation(rel)
		if err != nil {
			t.Fatal(err)
		}
		var tuples []rankjoin.Tuple
		for i := 0; i < 40; i++ {
			tuples = append(tuples, rankjoin.Tuple{
				RowKey:    fmt.Sprintf("%s%03d", rel, i),
				JoinValue: fmt.Sprintf("j%d", i%7),
				Score:     float64((i*37+len(rel))%100) / 100,
			})
		}
		if err := h.BatchInsert(tuples); err != nil {
			t.Fatal(err)
		}
	}
	q, err := d.NewQuery("left", "right", rankjoin.Sum, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnsureIndexes(q, rankjoin.AlgoISL); err != nil {
		t.Fatal(err)
	}
	want, err := d.TopK(q, rankjoin.AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) != 5 {
		t.Fatalf("top-5 before the restart has %d results", len(want.Results))
	}
	n.shutdown(t)

	n = startNode(t, addr, dir)
	defer n.shutdown(t)
	cl := transport.Dial(addr)
	defer cl.Close()
	health, err := cl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(health.Relations, []string{"left", "right"}) {
		t.Fatalf("restarted node holds relations %v, want [left right]", health.Relations)
	}
	got, err := d.TopK(q, rankjoin.AlgoISL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("top-5 after the restart = %+v, want %+v", got.Results, want.Results)
	}
}

// TestRunRefusesUnversionedManifest: a data directory whose MANIFEST
// carries no format version makes run return the FormatVersionError
// before it listens.
func TestRunRefusesUnversionedManifest(t *testing.T) {
	dir, addr := t.TempDir(), freeAddr(t)
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(`{"NextID":0,"Clock":0,"Seed":1,"NextFile":0,"Tables":null,"Regions":null}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-addr", addr, "-data", dir}, make(chan os.Signal))
	var fve *rankjoin.FormatVersionError
	if !errors.As(err, &fve) || fve.Path != "MANIFEST" || fve.Version != 0 {
		t.Fatalf("run = %v, want a FormatVersionError for the MANIFEST at version 0", err)
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatal("something listens on the refused node's address")
	}
}
