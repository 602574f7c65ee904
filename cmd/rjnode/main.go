// Command rjnode runs one region server: a full single-process engine
// (LSM storage, executors, index maintenance) exposed over the TCP
// transport for a router (rjserve -nodes, or any OpenDistributed
// topology) to replicate relations onto and ship whole rank-join
// queries to — the paper's compute-to-data design at node granularity.
//
// The transport frames each message with a binary header; a TopK
// reply's body is binary too, every other body JSON (internal/transport).
// rjnode and the rjserve routing to it must
// come from the same build: a router of another frame version is
// refused on its first frame, and it reports a typed error naming both
// versions.
//
// Usage:
//
//	rjnode -addr :7070 [-name node0] [-data DIR] [-profile ec2|lc]
//
// With -data the node stores its replicas durably and recovers them on
// restart (it rejoins its topology dirty and is re-admitted once
// anti-entropy verifies it). Without -data the node is memory-backed:
// a restart loses its replicas and anti-entropy re-ships them.
//
// The process serves until SIGINT/SIGTERM.
package main

import (
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	rankjoin "repro"
	"repro/internal/sim"
	"repro/internal/transport"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args, opens the node's DB and serves it until stop
// delivers (or is closed). It returns the error that kept the node from
// serving — a bad flag, a store it cannot open, an address it cannot
// listen on — before it listens.
func run(args []string, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("rjnode", flag.ContinueOnError)
	addr := fs.String("addr", ":7070", "TCP listen address for the region transport")
	name := fs.String("name", "", "node name reported in health and repair output (default: the listen address)")
	dataDir := fs.String("data", "", "durable data directory (empty = in-memory)")
	profileName := fs.String("profile", "lc", "hardware profile: ec2 or lc")
	if err := fs.Parse(args); err != nil {
		return err
	}

	profile := sim.LC()
	if strings.EqualFold(*profileName, "ec2") {
		profile = sim.EC2()
	}

	cfg := rankjoin.Config{Profile: &profile, Dir: *dataDir}
	var db *rankjoin.DB
	var err error
	if *dataDir != "" {
		db, err = rankjoin.OpenAt(cfg)
	} else {
		db, err = rankjoin.Open(cfg)
	}
	if err != nil {
		return err
	}
	defer db.Close()

	nodeName := *name
	if nodeName == "" {
		nodeName = *addr
	}
	srv, err := transport.ListenAndServe(*addr, rankjoin.NewNodeService(nodeName, db))
	if err != nil {
		return err
	}
	if rels := db.RelationNames(); len(rels) > 0 {
		log.Printf("node %s recovered relations %v from %s", nodeName, rels, *dataDir)
	}
	log.Printf("region server %s serving on %s (%s profile, durable=%v)",
		nodeName, srv.Addr(), profile.Name, *dataDir != "")

	<-stop
	log.Printf("shutting down %s", nodeName)
	_ = srv.Close()
	return nil
}
