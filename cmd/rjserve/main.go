// Command rjserve exposes top-k rank-join queries over HTTP as a JSON
// API. In its default mode it serves concurrent clients from one shared
// single-process DB; with -nodes it becomes the router frontend of a
// replicated multi-node topology — every relation replicated across
// region servers, writes resolved and quorum-acknowledged through the
// replication protocol, queries shipped whole to a covering replica
// with automatic failover, and Merkle anti-entropy available on demand.
// Both modes run the same handlers (handlers.go) over the library's one
// store surface, relation handles included, and answer a request with
// the same status; only /explain, /repair and the per-node rows of
// /metrics and /healthz depend on what the store behind them can do.
// main's only mode-specific work is choosing which store to open.
// Data is generated TPC-H at a configurable scale factor with all index
// families prebuilt. SIGINT or SIGTERM drains in-flight requests and
// closes the store.
//
// Usage:
//
//	rjserve [-addr :8080] [-profile ec2|lc] [-sf 0.02] [-parallelism 4] [-data DIR] [-timeout 0]
//	rjserve -nodes node0,node1,node2 [-replication 0]        # loopback cluster
//	rjserve -nodes n0=:7070,n1=:7071,n2=:7072                # TCP region servers (rjnode)
//
// With -data, the single-process server runs on durable storage: the
// first start generates, loads, and indexes into DIR; later starts
// recover the tables and index catalog from disk and are serving in
// milliseconds. Writes accepted via /insert, /update, and /delete
// survive restarts.
//
// With -nodes, each comma-separated entry is either a bare name (an
// in-process loopback region server) or name=addr (an rjnode process
// serving the region transport at addr). -replication sets the
// replicas-per-relation factor (0 = full replication). The router
// loads the TPC-H workload with the same loader as a single-process
// server: each relation ships as one router-stamped bulk op that every
// replica lands through its own bulk door, then every replica builds
// the indexes, so every replica holds byte-identical base and index
// tables.
//
// Endpoints:
//
//	GET /topk?query=q1&algo=auto&k=10[&parallelism=4][&objective=time][&page_token=...][&timeout=500ms][&max_read_units=N]
//	GET /topk?tree=<url-encoded JSON tree spec>&...
//	POST /topk      body (JSON): the same fields plus "tree"
//	    Run one query; returns ranked results plus the per-query cost
//	    metrics (simulated time, network bytes, KV read units, RPC
//	    calls, dollars).
//	    Instead of a named preset, a request may carry an inline tree
//	    spec describing a general acyclic join-tree query —
//	    {"relations":["a","b","c"],
//	     "edges":[{"a":0,"b":1},{"a":1,"b":2,"kind":"band","band":2}],
//	     "score":"sum","k":10} — covering two-way, star, chain, and
//	    mixed shapes; results carry the third
//	    and later leaves' rows in rest_rows. A cyclic or disconnected
//	    tree is rejected with a 400 whose body carries the shape
//	    diagnostic. algo=isl (or its alias anyk, or auto) streams tree
//	    results in score order.
//	    algo defaults to "auto": the cost-based planner picks the
//	    executor, and the response carries the chosen algorithm plus
//	    the planner's estimate next to the measured cost, in the same
//	    JSON form. A full page
//	    carries next_page_token; passing it back as page_token resumes
//	    the query server-side (bounded cursor state, marginal cost)
//	    instead of re-running it. In router mode page tokens are sticky
//	    to the node holding the cursor and fail over transparently if
//	    that node dies. timeout (a Go duration, overriding the -timeout
//	    flag) and max_read_units bound the query; queries degrade
//	    gracefully with typed statuses — 408 for a tripped deadline or
//	    canceled request, 507 for an exhausted read budget (both
//	    carrying partial_results/read_units in the error body), 503 for
//	    a storage fault or (router mode) no live replica.
//	GET/POST /stream?query=q1&algo=auto[&limit=100][&k=10]
//	    Accepts the same tree parameter/field as /topk.
//	    Stream results as NDJSON, one result object per line in
//	    descending score order, closing with a summary line carrying
//	    the totals ({"done":true,...}). limit caps the stream (default
//	    100); k is the page-size hint batch-shaped executors
//	    materialize with. POST accepts the same fields as a JSON body.
//	    timeout/max_read_units bound the stream like /topk; a bound
//	    tripped mid-stream ends it with a trailer line carrying the
//	    error, mapped status, and count of rows already delivered. In
//	    router mode the stream pulls pages with failover: a replica
//	    killed mid-stream is survived without a gap or duplicate.
//	POST /explain     Plan a query without running it (single-process
//	    mode only); body (JSON): {"query":"q1","k":10,
//	    "objective":"time","stream":true} — returns every registered
//	    executor ranked by predicted cost, each with its bounded,
//	    next-page and stream estimates in /topk's cost form.
//	POST /insert      Upsert one tuple with synchronous maintenance of
//	    every index built over the relation (one batched group write);
//	    body: {"relation":"orders","row_key":"o1","join_value":"42",
//	    "score":0.93}. A query issued right after sees the write on
//	    every executor. In router mode the write is resolved at the
//	    leader, stamped once, and applied identically on every replica
//	    (503 with a typed body if the quorum cannot be reached).
//	POST /update      Replace an existing tuple's join value/score,
//	    retiring old index entries under one timestamp; same body. The
//	    row must exist: an absent row_key is a 400 (/insert upserts).
//	POST /delete      Remove a tuple; body needs relation and row_key.
//	    The live tuple is always read first; join_value and score are
//	    optional preconditions against it, each checked on its own — a
//	    mismatch is a 409 and nothing is deleted. An absent row is a
//	    200 no-op.
//	Failed writes: 500 when an index write diverged from its base
//	    write (re-apply), 503 with acked/quorum on lost quorum, 503 for
//	    a storage fault, else 400. Bodies past 1 MiB are a 413.
//	POST /repair      (router mode) Run one Merkle anti-entropy pass:
//	    trees diffed per replica group, divergent leaves re-shipped,
//	    corrupt tables fully resynced; returns the repair report.
//	GET /relations    List defined relations.
//	GET /algorithms   List available algorithms.
//	GET /metrics      Cumulative metrics; in router mode the aggregate
//	    across nodes plus per-node replica status (alive, dirty,
//	    relations, quarantined regions).
//	GET /healthz      Liveness probe; in router mode carries per-node
//	    health and reports "degraded" when replicas are down or dirty.
//
// Examples:
//
//	curl 'localhost:8080/topk?query=q2&k=5'
//	curl 'localhost:8080/stream?query=q1&algo=isl&limit=25'
//	curl -X POST localhost:8080/explain -d '{"query":"q2","k":100,"objective":"dollars"}'
//	curl -X POST localhost:8080/insert -d '{"relation":"orders","row_key":"oNEW","join_value":"999","score":0.99}'
//	curl -X POST localhost:8080/delete -d '{"relation":"orders","row_key":"oNEW"}'
//	curl -X POST localhost:8080/repair
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	rankjoin "repro"
	"repro/internal/benchkit"
	"repro/internal/sim"
)

// Server lifecycle limits. No WriteTimeout: a /stream response may
// outlive any fixed bound, and queries carry their own.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	// shutdownGrace is how long in-flight requests get to finish after
	// SIGINT/SIGTERM before their connections are cut.
	shutdownGrace = 30 * time.Second
)

// parseNodes turns the -nodes flag into a topology: "name=addr" is a
// TCP region server (rjnode), a bare name is an in-process loopback
// node, and a bare "host:port" is TCP named after its address.
func parseNodes(spec string) ([]rankjoin.NodeSpec, error) {
	var out []rankjoin.NodeSpec
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		switch {
		case strings.Contains(ent, "="):
			parts := strings.SplitN(ent, "=", 2)
			if parts[0] == "" || parts[1] == "" {
				return nil, fmt.Errorf("bad node entry %q (want name=addr)", ent)
			}
			out = append(out, rankjoin.NodeSpec{Name: parts[0], Addr: parts[1]})
		case strings.Contains(ent, ":"):
			out = append(out, rankjoin.NodeSpec{Name: ent, Addr: ent})
		default:
			out = append(out, rankjoin.NodeSpec{Name: ent})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-nodes %q names no nodes", spec)
	}
	return out, nil
}

// serve answers requests on ln until ctx is done, then stops accepting,
// lets in-flight requests (an open /stream included) finish within
// shutdownGrace, and only then closes the store.
func serve(ctx context.Context, ln net.Listener, h http.Handler, closeStore func() error) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	failed := make(chan error, 1)
	go func() { failed <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-failed:
	case <-ctx.Done():
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		err = srv.Shutdown(grace)
		cancel()
		<-failed // Serve returns ErrServerClosed once Shutdown begins
	}
	if cerr := closeStore(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	profileName := flag.String("profile", "lc", "hardware profile: ec2 or lc")
	sf := flag.Float64("sf", 0.02, "TPC-H scale factor")
	seed := flag.Int64("seed", 1, "data generator seed")
	parallelism := flag.Int("parallelism", 4, "default client read-path parallelism")
	timeout := flag.Duration("timeout", 0, "default per-query timeout (0 = unbounded; the timeout request parameter overrides)")
	dataDir := flag.String("data", "", "durable data directory (empty = in-memory, single-process mode only)")
	nodes := flag.String("nodes", "", "router mode: comma-separated region servers (name for loopback, name=addr for rjnode TCP)")
	replication := flag.Int("replication", 0, "router mode: replicas per relation (0 = full replication)")
	flag.Parse()

	profile := sim.LC()
	if strings.EqualFold(*profileName, "ec2") {
		profile = sim.EC2()
	}

	// Setup: the one place that knows which backend this process fronts.
	var st store
	var w *benchkit.Workload
	var closeStore func() error
	if *nodes != "" {
		specs, err := parseNodes(*nodes)
		if err != nil {
			log.Fatal(err)
		}
		if *dataDir != "" {
			log.Fatal("-data applies to single-process mode; give rjnode processes their own -data directories")
		}
		log.Printf("router mode: loading TPC-H SF %g onto %d nodes (replication %d, %s profile)...",
			*sf, len(specs), *replication, profile.Name)
		denv, err := benchkit.SetupDistributed(profile, *sf, *seed, &rankjoin.Topology{
			Nodes:       specs,
			Replication: *replication,
		})
		if err != nil {
			log.Fatal(err)
		}
		st, w, closeStore = denv.D, &denv.Workload, denv.D.Close
		p, o, l := w.Counts()
		log.Printf("cluster ready: %d parts, %d orders, %d lineitems replicated across %v",
			p, o, l, denv.D.Nodes())
	} else {
		var env *benchkit.Env
		var recovered bool
		var err error
		if *dataDir != "" {
			log.Printf("opening durable store at %s (TPC-H SF %g, %s profile)...", *dataDir, *sf, profile.Name)
			env, recovered, err = benchkit.SetupAt(profile, *sf, *seed, *dataDir)
		} else {
			log.Printf("loading TPC-H SF %g on the %s profile and building indexes...", *sf, profile.Name)
			env, err = benchkit.Setup(profile, *sf, *seed)
		}
		if err != nil {
			log.Fatal(err)
		}
		st, w, closeStore = env.DB, &env.Workload, env.DB.Close
		parts, orders, lineitems := w.Counts()
		if recovered {
			log.Printf("recovered tables and index catalog from disk: %d parts, %d orders, %d lineitems",
				parts, orders, lineitems)
		} else {
			log.Printf("ready: %d parts, %d orders, %d lineitems", parts, orders, lineitems)
		}
	}
	s := &server{store: st, q1: w.Q1, q2: w.Q2, islBatch: w.ISLBatch, defaultParallelism: *parallelism, defaultTimeout: *timeout}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = closeStore()
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	log.Printf("serving top-k rank joins on %s (default parallelism %d)", *addr, *parallelism)
	err = serve(ctx, ln, s.routes(), closeStore)
	stop()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shut down: in-flight requests drained, store closed")
}
