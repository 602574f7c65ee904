// Command rjserve exposes top-k rank-join queries over HTTP as a JSON
// API. In its default mode it serves concurrent clients from one shared
// single-process DB; with -nodes it becomes the router frontend of a
// replicated multi-node topology — every relation replicated across
// region servers, writes resolved and quorum-acknowledged through the
// replication protocol, queries shipped whole to a covering replica
// with automatic failover, and Merkle anti-entropy available on demand.
// Data is generated TPC-H at a configurable scale factor with all index
// families prebuilt.
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
// loads the TPC-H workload through the replication protocol at
// startup, so every replica holds byte-identical base and index
// tables.
//
// Endpoints:
//
//	GET /topk?query=q1&algo=auto&k=10[&parallelism=4][&objective=time][&page_token=...][&timeout=500ms][&max_read_units=N]
//	GET /topk?tree=<url-encoded JSON tree spec>&...
//	POST /topk      body (JSON): the same fields plus "tree"
//	    Run one query; returns ranked results plus the per-query cost
//	    metrics (simulated time, network bytes, KV read units, dollars).
//	    Instead of a named preset, a request may carry an inline tree
//	    spec describing a general acyclic join-tree query —
//	    {"relations":["a","b","c"],
//	     "edges":[{"a":0,"b":1},{"a":1,"b":2,"kind":"band","band":2}],
//	     "score":"sum","k":10} — covering two-way, star (the
//	    NewMultiQuery shape), chain, and mixed shapes; results carry the third
//	    and later leaves' rows in rest_rows. A cyclic or disconnected
//	    tree is rejected with a 400 whose body carries the shape
//	    diagnostic. algo=anyk (or auto) streams tree results in score
//	    order.
//	    algo defaults to "auto": the cost-based planner picks the
//	    executor, and the response carries the chosen algorithm plus
//	    the planner's estimate next to the measured cost. A full page
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
//	    executor ranked by predicted cost.
//	POST /insert      Upsert one tuple with synchronous maintenance of
//	    every index built over the relation (one batched group write);
//	    body: {"relation":"orders","row_key":"o1","join_value":"42",
//	    "score":0.93}. A query issued right after sees the write on
//	    every executor. In router mode the write is resolved at the
//	    leader, stamped once, and applied identically on every replica
//	    (503 with a typed body if the quorum cannot be reached).
//	POST /update      Replace an existing tuple's join value/score,
//	    retiring old index entries under one timestamp; same body.
//	POST /delete      Remove a tuple; body needs relation and row_key
//	    (join_value/score optional — omitted means "read them first").
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	rankjoin "repro"
	"repro/internal/benchkit"
	"repro/internal/sim"
)

// server holds the shared query environment: a single-process DB or a
// distributed router, never both.
type server struct {
	db   *rankjoin.DB          // single-process mode
	dist *rankjoin.Distributed // router mode (-nodes)

	q1, q2             rankjoin.Query
	islBatch           int
	defaultParallelism int
	// defaultTimeout bounds every query that doesn't carry its own
	// timeout parameter; zero leaves unparameterized queries unbounded.
	defaultTimeout time.Duration
}

// query resolves a query name.
func (s *server) query(name string) (rankjoin.Query, string, error) {
	switch strings.ToLower(name) {
	case "", "q1":
		return s.q1, "q1", nil
	case "q2":
		return s.q2, "q2", nil
	}
	return rankjoin.Query{}, "", fmt.Errorf("unknown query %q (want q1 or q2)", name)
}

// resolveQuery resolves a request's query: an inline tree spec when one
// was supplied (general acyclic join-tree queries, including the
// multiway star shape NewMultiQuery builds in-process), a named preset
// otherwise. Tree specs are validated structurally; a cyclic or
// disconnected shape surfaces as a *rankjoin.ShapeError that
// writeResolveError maps to a 400 carrying the diagnostic.
func (s *server) resolveQuery(name string, tree *rankjoin.TreeSpec) (rankjoin.Query, string, error) {
	if tree == nil {
		return s.query(name)
	}
	var q rankjoin.Query
	var err error
	if s.dist != nil {
		q, err = s.dist.NewTreeQueryFromSpec(tree)
	} else {
		q, err = s.db.NewTreeQueryFromSpec(tree)
	}
	if err != nil {
		return rankjoin.Query{}, "", err
	}
	return q, "tree", nil
}

// ensureTreeIndexes builds a hand-picked executor's index for an
// ad-hoc tree query on first use. Named presets are indexed at
// startup, but a tree arrives with whatever shape the client sent, so
// the server ensures lazily; once built the call is an idempotent
// no-op. Errors are deliberately dropped: execution surfaces a clearer
// one (unsupported shape, missing index) when the build failed.
func (s *server) ensureTreeIndexes(q rankjoin.Query, algo rankjoin.Algorithm) {
	if algo == rankjoin.AlgoAuto {
		return
	}
	if s.dist != nil {
		_ = s.dist.EnsureIndexes(q, algo)
		return
	}
	_ = s.db.EnsureIndexes(q, algo)
}

// writeResolveError reports a query-resolution failure. Bad tree shapes
// get a machine-readable diagnostic next to the error text so clients
// can tell "fix your tree" from "no such preset".
func writeResolveError(w http.ResponseWriter, err error) {
	var se *rankjoin.ShapeError
	if errors.As(err, &se) {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": err.Error(),
			"shape": se.Msg,
		})
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// parseTreeParam decodes an optional tree query parameter (URL-encoded
// JSON tree spec on GET requests).
func parseTreeParam(raw string) (*rankjoin.TreeSpec, error) {
	if raw == "" {
		return nil, nil
	}
	return rankjoin.ParseTreeSpec([]byte(raw))
}

// topK dispatches to whichever engine this server fronts.
func (s *server) topK(q rankjoin.Query, algo rankjoin.Algorithm, opts *rankjoin.QueryOptions) (*rankjoin.Result, error) {
	if s.dist != nil {
		return s.dist.TopK(q, algo, opts)
	}
	return s.db.TopK(q, algo, opts)
}

// rowStream is the iterator surface shared by the single-process Rows
// and the distributed DistRows.
type rowStream interface {
	Next() bool
	Result() rankjoin.JoinResult
	Algorithm() string
	Err() error
	Cost() sim.Snapshot
	Close() error
}

func (s *server) stream(q rankjoin.Query, algo rankjoin.Algorithm, opts *rankjoin.QueryOptions) (rowStream, error) {
	if s.dist != nil {
		return s.dist.Stream(q, algo, opts)
	}
	return s.db.Stream(q, algo, opts)
}

func (s *server) relationNames() []string {
	if s.dist != nil {
		return s.dist.RelationNames()
	}
	return s.db.RelationNames()
}

// costJSON is the wire form of a sim.Snapshot.
type costJSON struct {
	SimTime      string  `json:"sim_time"`
	SimTimeSecs  float64 `json:"sim_time_seconds"`
	NetworkBytes uint64  `json:"network_bytes"`
	KVReads      uint64  `json:"kv_read_units"`
	RPCCalls     uint64  `json:"rpc_calls"`
	Dollars      float64 `json:"dollars"`
}

func toCostJSON(s sim.Snapshot) costJSON {
	return costJSON{
		SimTime:      s.SimTime.String(),
		SimTimeSecs:  s.SimTime.Seconds(),
		NetworkBytes: s.NetworkBytes,
		KVReads:      s.KVReads,
		RPCCalls:     s.RPCCalls,
		Dollars:      s.Dollars(),
	}
}

type resultJSON struct {
	LeftRow   string `json:"left_row"`
	RightRow  string `json:"right_row"`
	JoinValue string `json:"join_value"`
	// RestRows carries the third and later leaves' row keys, in leaf
	// order, for tree queries over more than two relations.
	RestRows []string `json:"rest_rows,omitempty"`
	Score    float64  `json:"score"`
}

func toResultJSON(jr rankjoin.JoinResult) resultJSON {
	out := resultJSON{
		LeftRow:   jr.Left.RowKey,
		RightRow:  jr.Right.RowKey,
		JoinValue: jr.Left.JoinValue,
		Score:     jr.Score,
	}
	for _, t := range jr.Rest {
		out.RestRows = append(out.RestRows, t.RowKey)
	}
	return out
}

type topkResponse struct {
	Query       string       `json:"query"`
	Algorithm   string       `json:"algorithm"`
	K           int          `json:"k"`
	Parallelism int          `json:"parallelism"`
	Results     []resultJSON `json:"results"`
	Cost        costJSON     `json:"cost"`
	// Estimate is the planner's predicted cost (algo=auto only);
	// comparing it with cost gives the per-query estimation error.
	Estimate *estimateJSON `json:"estimate,omitempty"`
	// NextPageToken resumes this query where it stopped: pass it back
	// as page_token to fetch the next k results at marginal cost.
	NextPageToken string `json:"next_page_token,omitempty"`
	WallTime      string `json:"wall_time"`
}

// estimateJSON is the wire form of a planner cost estimate.
type estimateJSON struct {
	SimTime      string  `json:"sim_time"`
	SimTimeSecs  float64 `json:"sim_time_seconds"`
	NetworkBytes uint64  `json:"network_bytes"`
	KVReads      uint64  `json:"kv_read_units"`
	Dollars      float64 `json:"dollars"`
}

func toEstimateJSON(e rankjoin.CostEstimate) *estimateJSON {
	return &estimateJSON{
		SimTime:      e.SimTime.String(),
		SimTimeSecs:  e.SimTime.Seconds(),
		NetworkBytes: e.NetworkBytes,
		KVReads:      e.KVReads,
		Dollars:      e.Dollars(),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// queryStatus maps a failed query's typed error to an HTTP status: a
// tripped deadline or canceled context is 408, an exhausted read
// budget is 507, a storage fault (corruption, I/O) or distribution
// failure (no live replica, lost write quorum) is 503 — the query was
// well-formed in all these cases, so 400 would wrongly tell the client
// to drop it. Anything untyped stays a 400.
func queryStatus(err error) int {
	var be *rankjoin.BudgetExceededError
	switch {
	case errors.Is(err, rankjoin.ErrCanceled):
		return http.StatusRequestTimeout
	case errors.As(err, &be):
		return http.StatusInsufficientStorage
	case errors.Is(err, rankjoin.ErrCorruption):
		return http.StatusServiceUnavailable
	}
	var ioe *rankjoin.IOError
	if errors.As(err, &ioe) {
		return http.StatusServiceUnavailable
	}
	var nre *rankjoin.NoReplicaError
	var rpe *rankjoin.ReplicationError
	if errors.As(err, &nre) || errors.As(err, &rpe) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeQueryError reports a failed query, surfacing the degradation
// detail typed errors carry (partial-result count, read-unit spend,
// replica acks) so clients can tell a useful partial answer from a
// dead store.
func writeQueryError(w http.ResponseWriter, err error) {
	body := map[string]any{"error": err.Error()}
	var ce *rankjoin.CanceledError
	var be *rankjoin.BudgetExceededError
	var rpe *rankjoin.ReplicationError
	switch {
	case errors.As(err, &ce):
		body["partial_results"] = len(ce.Partial)
		body["read_units"] = ce.ReadUnits
	case errors.As(err, &be):
		body["partial_results"] = len(be.Partial)
		body["read_unit_limit"] = be.Limit
		body["read_units"] = be.Spent
	case errors.As(err, &rpe):
		body["acked"] = rpe.Acked
		body["quorum"] = rpe.Quorum
	}
	writeJSON(w, queryStatus(err), body)
}

// queryBounds parses the per-request degradation knobs shared by /topk
// and /stream — timeout (Go duration, overriding the -timeout flag)
// and max_read_units — and threads them plus the request's own context
// into opts. A client that disconnects cancels its query's spend.
func (s *server) queryBounds(r *http.Request, timeoutParam, maxReadParam string, opts *rankjoin.QueryOptions) error {
	opts.Context = r.Context()
	timeout := s.defaultTimeout
	if timeoutParam != "" {
		d, err := time.ParseDuration(timeoutParam)
		if err != nil || d <= 0 {
			return fmt.Errorf("bad timeout %q (want a positive Go duration like 500ms)", timeoutParam)
		}
		timeout = d
	}
	if timeout > 0 {
		opts.Deadline = time.Now().Add(timeout)
	}
	if maxReadParam != "" {
		n, err := strconv.ParseUint(maxReadParam, 10, 64)
		if err != nil || n == 0 {
			return fmt.Errorf("bad max_read_units %q (want a positive integer)", maxReadParam)
		}
		opts.MaxReadUnits = n
	}
	return nil
}

// topkRequest carries /topk parameters (query string on GET, JSON body
// on POST). Tree, when set, replaces the named preset with an inline
// acyclic join-tree query.
type topkRequest struct {
	Query        string             `json:"query"`
	Tree         *rankjoin.TreeSpec `json:"tree"`
	Algo         string             `json:"algo"`
	K            int                `json:"k"`
	Parallelism  *int               `json:"parallelism"`
	Objective    string             `json:"objective"`
	PageToken    string             `json:"page_token"`
	Timeout      string             `json:"timeout"`
	MaxReadUnits uint64             `json:"max_read_units"`
}

func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req topkRequest
	if r.Method == http.MethodPost {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad topk body: %v", err)
			return
		}
		if req.K < 0 {
			writeError(w, http.StatusBadRequest, "bad k %d", req.K)
			return
		}
		if req.Parallelism != nil && *req.Parallelism < 0 {
			writeError(w, http.StatusBadRequest, "bad parallelism %d", *req.Parallelism)
			return
		}
	} else {
		qv := r.URL.Query()
		req.Query = qv.Get("query")
		req.Algo = qv.Get("algo")
		req.Objective = qv.Get("objective")
		req.PageToken = qv.Get("page_token")
		req.Timeout = qv.Get("timeout")
		if ks := qv.Get("k"); ks != "" {
			n, err := strconv.Atoi(ks)
			if err != nil || n < 1 {
				writeError(w, http.StatusBadRequest, "bad k %q", ks)
				return
			}
			req.K = n
		}
		if ps := qv.Get("parallelism"); ps != "" {
			n, err := strconv.Atoi(ps)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "bad parallelism %q", ps)
				return
			}
			req.Parallelism = &n
		}
		if v := qv.Get("max_read_units"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				writeError(w, http.StatusBadRequest, "bad max_read_units %q", v)
				return
			}
			req.MaxReadUnits = n
		}
		tree, err := parseTreeParam(qv.Get("tree"))
		if err != nil {
			writeResolveError(w, err)
			return
		}
		req.Tree = tree
	}

	q, queryName, err := s.resolveQuery(req.Query, req.Tree)
	if err != nil {
		writeResolveError(w, err)
		return
	}

	// The planner is the default: with no algo parameter, auto picks
	// the cheapest executor whose indexes are built.
	algoName := strings.ToLower(req.Algo)
	if algoName == "" {
		algoName = string(rankjoin.AlgoAuto)
	}
	algo := rankjoin.Algorithm(algoName)

	objective := rankjoin.Objective(strings.ToLower(req.Objective))

	// k precedence: an explicit request k, then the tree spec's own k,
	// then 10 for the named presets.
	k := req.K
	if k == 0 {
		if req.Tree != nil {
			k = q.K()
		} else {
			k = 10
		}
	}

	parallelism := s.defaultParallelism
	if req.Parallelism != nil {
		parallelism = *req.Parallelism
	}

	opts := rankjoin.QueryOptions{
		ISLBatch:     s.islBatch,
		Parallelism:  parallelism,
		Objective:    objective,
		PageToken:    req.PageToken,
		MaxReadUnits: req.MaxReadUnits,
	}
	if err := s.queryBounds(r, req.Timeout, "", &opts); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Tree != nil {
		s.ensureTreeIndexes(q, algo)
	}

	start := time.Now()
	res, err := s.topK(q.WithK(k), algo, &opts)
	if err != nil {
		writeQueryError(w, err)
		return
	}

	resp := topkResponse{
		Query:         queryName,
		Algorithm:     res.Algorithm,
		K:             k,
		Parallelism:   parallelism,
		Results:       make([]resultJSON, 0, len(res.Results)),
		Cost:          toCostJSON(res.Cost),
		NextPageToken: res.NextPageToken,
		WallTime:      time.Since(start).String(),
	}
	if res.Estimate != nil {
		resp.Estimate = toEstimateJSON(*res.Estimate)
	}
	for _, jr := range res.Results {
		resp.Results = append(resp.Results, toResultJSON(jr))
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamRequest carries /stream parameters (query string on GET, JSON
// body on POST).
type streamRequest struct {
	Query string `json:"query"`
	// Tree, when set, replaces the named preset with an inline acyclic
	// join-tree query (same shape as /topk's tree field).
	Tree        *rankjoin.TreeSpec `json:"tree"`
	Algo        string             `json:"algo"`
	K           int                `json:"k"`     // page-size hint (default 10)
	Limit       int                `json:"limit"` // max results to stream (default 100)
	Parallelism *int               `json:"parallelism"`
	// Timeout (a Go duration string) and MaxReadUnits bound the stream;
	// hitting either ends it with a typed error line instead of more
	// results.
	Timeout      string `json:"timeout"`
	MaxReadUnits uint64 `json:"max_read_units"`
}

// streamSummary is the trailing NDJSON line of one /stream response.
type streamSummary struct {
	Done      bool     `json:"done"`
	Query     string   `json:"query"`
	Algorithm string   `json:"algorithm"`
	Count     int      `json:"count"`
	Exhausted bool     `json:"exhausted"`
	Cost      costJSON `json:"cost"`
	WallTime  string   `json:"wall_time"`
}

// handleStream streams one query's results as NDJSON in score order:
// one result object per line, then a summary line. The underlying
// cursor only does the marginal work each emitted result needs, so a
// client that disconnects early stops the spend.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	req := streamRequest{}
	if r.Method == http.MethodPost {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad stream body: %v", err)
			return
		}
		// Shared contract with GET: zero (or omitted) k/limit means
		// "default"; negatives are rejected rather than silently
		// producing an empty 200 stream.
		if req.K < 0 || req.Limit < 0 {
			writeError(w, http.StatusBadRequest, "bad k/limit: must not be negative")
			return
		}
		if req.Parallelism != nil && *req.Parallelism < 0 {
			writeError(w, http.StatusBadRequest, "bad parallelism %d", *req.Parallelism)
			return
		}
	} else {
		qv := r.URL.Query()
		req.Query = qv.Get("query")
		req.Algo = qv.Get("algo")
		for _, p := range []struct {
			name string
			dst  *int
		}{{"k", &req.K}, {"limit", &req.Limit}} {
			if v := qv.Get(p.name); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					writeError(w, http.StatusBadRequest, "bad %s %q", p.name, v)
					return
				}
				*p.dst = n
			}
		}
		if v := qv.Get("parallelism"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "bad parallelism %q", v)
				return
			}
			req.Parallelism = &n
		}
		req.Timeout = qv.Get("timeout")
		if v := qv.Get("max_read_units"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				writeError(w, http.StatusBadRequest, "bad max_read_units %q", v)
				return
			}
			req.MaxReadUnits = n
		}
		tree, err := parseTreeParam(qv.Get("tree"))
		if err != nil {
			writeResolveError(w, err)
			return
		}
		req.Tree = tree
	}

	q, queryName, err := s.resolveQuery(req.Query, req.Tree)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	algoName := strings.ToLower(req.Algo)
	if algoName == "" {
		algoName = string(rankjoin.AlgoAuto)
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	limit := req.Limit
	if limit == 0 {
		limit = 100
	}
	parallelism := s.defaultParallelism
	if req.Parallelism != nil {
		parallelism = *req.Parallelism
	}

	opts := rankjoin.QueryOptions{
		ISLBatch:     s.islBatch,
		Parallelism:  parallelism,
		MaxReadUnits: req.MaxReadUnits,
	}
	if err := s.queryBounds(r, req.Timeout, "", &opts); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Tree != nil {
		s.ensureTreeIndexes(q, rankjoin.Algorithm(algoName))
	}

	start := time.Now()
	rows, err := s.stream(q.WithK(k), rankjoin.Algorithm(algoName), &opts)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	defer rows.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	count := 0
	exhausted := false
	for count < limit {
		if !rows.Next() {
			exhausted = rows.Err() == nil
			break
		}
		jr := rows.Result()
		if err := enc.Encode(toResultJSON(jr)); err != nil {
			return // client went away; Close stops the cursor's spend
		}
		count++
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := rows.Err(); err != nil {
		// Headers are long gone, so the status travels in the trailer
		// line; the rows already streamed are the partial results.
		_ = enc.Encode(map[string]any{
			"error":  err.Error(),
			"status": queryStatus(err),
			"count":  count,
		})
		return
	}
	_ = enc.Encode(streamSummary{
		Done:      true,
		Query:     queryName,
		Algorithm: rows.Algorithm(),
		Count:     count,
		Exhausted: exhausted,
		Cost:      toCostJSON(rows.Cost()),
		WallTime:  time.Since(start).String(),
	})
}

// explainRequest is the POST /explain body. Parallelism is optional
// and defaults to the server's -parallelism flag — pass the same value
// a later /topk will use so the plan matches the execution. Stream
// prices deep enumeration instead of the bounded top-k.
type explainRequest struct {
	Query string `json:"query"`
	// Tree, when set, plans an inline acyclic join-tree query instead
	// of a named preset (same shape as /topk's tree field).
	Tree        *rankjoin.TreeSpec `json:"tree"`
	K           int                `json:"k"`
	Objective   string             `json:"objective"`
	Parallelism *int               `json:"parallelism"`
	Stream      bool               `json:"stream"`
}

// candidateJSON is one ranked plan candidate.
type candidateJSON struct {
	Executor    string       `json:"executor"`
	IndexReady  bool         `json:"index_ready"`
	IndexBytes  uint64       `json:"index_bytes"`
	Incremental bool         `json:"incremental"`
	Estimate    estimateJSON `json:"estimate"`
	// Marginal is the predicted cost of the NEXT page of k results
	// (full re-run for materializing executors).
	Marginal estimateJSON `json:"marginal"`
	// StreamEstimate prices a deep enumeration (stream-mode ranking).
	StreamEstimate estimateJSON `json:"stream_estimate"`
}

type explainResponse struct {
	Query      string          `json:"query"`
	K          int             `json:"k"`
	Objective  string          `json:"objective"`
	Chosen     string          `json:"chosen"`
	Best       string          `json:"best"`
	StatSource string          `json:"stat_source"`
	Candidates []candidateJSON `json:"candidates"`
	Planner    costJSON        `json:"planner_cost"`
}

func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if s.db == nil {
		// Plans are priced against node-local statistics; the router
		// doesn't hold any. Ship the query with algo=auto instead — each
		// node plans it on arrival.
		writeError(w, http.StatusNotImplemented,
			"explain is not served in router mode; run /topk with algo=auto (nodes plan on arrival)")
		return
	}
	var req explainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad explain body: %v", err)
		return
	}
	q, queryName, err := s.resolveQuery(req.Query, req.Tree)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	k := req.K
	if k == 0 {
		if req.Tree != nil {
			k = q.K()
		} else {
			k = 10
		}
	}
	if k < 1 {
		writeError(w, http.StatusBadRequest, "bad k %d", req.K)
		return
	}

	parallelism := s.defaultParallelism
	if req.Parallelism != nil {
		if *req.Parallelism < 0 {
			writeError(w, http.StatusBadRequest, "bad parallelism %d", *req.Parallelism)
			return
		}
		parallelism = *req.Parallelism
	}

	p, err := s.db.Explain(q.WithK(k), &rankjoin.ExplainOptions{
		Objective: rankjoin.Objective(strings.ToLower(req.Objective)),
		Stream:    req.Stream,
		Query: rankjoin.QueryOptions{
			ISLBatch:    s.islBatch,
			Parallelism: parallelism,
		},
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	resp := explainResponse{
		Query:      queryName,
		K:          k,
		Objective:  string(p.Objective),
		Chosen:     p.Chosen,
		Best:       p.Best,
		StatSource: p.Stats.Source,
		Planner:    toCostJSON(p.PlannerCost),
	}
	for _, cand := range p.Candidates {
		resp.Candidates = append(resp.Candidates, candidateJSON{
			Executor:       cand.Executor,
			IndexReady:     cand.IndexReady,
			IndexBytes:     cand.IndexBytes,
			Incremental:    cand.Incremental,
			Estimate:       *toEstimateJSON(cand.Estimate),
			Marginal:       *toEstimateJSON(cand.Marginal),
			StreamEstimate: *toEstimateJSON(cand.StreamEstimate),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeRequest is the POST /insert, /update, and /delete body.
type writeRequest struct {
	Relation  string   `json:"relation"`
	RowKey    string   `json:"row_key"`
	JoinValue string   `json:"join_value"`
	Score     *float64 `json:"score"`
}

// writeResponse acknowledges one applied write.
type writeResponse struct {
	OK       bool   `json:"ok"`
	Op       string `json:"op"`
	Relation string `json:"relation"`
	RowKey   string `json:"row_key"`
	WallTime string `json:"wall_time"`
}

// distWrite applies one write through the replication protocol:
// resolved at the leader, stamped once, applied with full index
// maintenance on every replica, acknowledged at quorum.
func (s *server) distWrite(op string, req writeRequest, score float64) error {
	rel := s.dist.Relation(req.Relation)
	if rel == nil {
		return fmt.Errorf("unknown relation %q", req.Relation)
	}
	switch op {
	case "insert", "update":
		return rel.Insert(req.RowKey, req.JoinValue, score)
	default:
		return rel.DeleteKey(req.RowKey)
	}
}

// handleWrite serves the write endpoints: each mutation flows through
// the Section 6 maintenance pipeline, so every index built over the
// relation (and the planner's statistics) reflect it before the
// response returns — a query issued next sees the write on every
// executor. In router mode the same pipeline runs on every replica
// with one shared timestamp.
func (s *server) handleWrite(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req writeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad %s body: %v", op, err)
			return
		}
		if req.RowKey == "" {
			writeError(w, http.StatusBadRequest, "%s needs row_key", op)
			return
		}
		score := 0.0
		if req.Score != nil {
			score = *req.Score
			if score < 0 || score > 1 {
				writeError(w, http.StatusBadRequest, "score %v outside the normalized [0,1] domain", score)
				return
			}
		}
		if (op == "insert" || op == "update") && (req.JoinValue == "" || req.Score == nil) {
			writeError(w, http.StatusBadRequest, "%s needs join_value and score", op)
			return
		}
		start := time.Now()
		var err error
		if s.dist != nil {
			if s.dist.Relation(req.Relation) == nil {
				writeError(w, http.StatusBadRequest, "unknown relation %q (want one of %v)",
					req.Relation, s.relationNames())
				return
			}
			err = s.distWrite(op, req, score)
			if err != nil {
				writeQueryError(w, err)
				return
			}
		} else {
			h := s.db.Relation(req.Relation)
			if h == nil {
				writeError(w, http.StatusBadRequest, "unknown relation %q (want one of %v)",
					req.Relation, s.relationNames())
				return
			}
			switch op {
			case "insert", "update":
				if op == "insert" {
					err = h.Insert(req.RowKey, req.JoinValue, score)
				} else {
					err = h.Update(req.RowKey, req.JoinValue, score)
				}
			case "delete":
				// Never trust the client's idea of the tuple's current join
				// value and score: index entries live at those coordinates,
				// and deleting at stale ones strands the real entries as
				// phantoms. Read the live tuple; any supplied value acts only
				// as a precondition against it (each independently — a lone
				// join_value or score is still checked).
				if req.JoinValue != "" || req.Score != nil {
					cur, ok, gerr := h.Get(req.RowKey)
					if gerr != nil {
						writeError(w, http.StatusInternalServerError, "%v", gerr)
						return
					}
					if ok {
						if req.JoinValue != "" && cur.JoinValue != req.JoinValue {
							writeError(w, http.StatusConflict,
								"delete of %q expected join %q but the live tuple has join %q; retry without join_value/score to delete regardless",
								req.RowKey, req.JoinValue, cur.JoinValue)
							return
						}
						if req.Score != nil && cur.Score != score {
							writeError(w, http.StatusConflict,
								"delete of %q expected score %v but the live tuple has score %v; retry without join_value/score to delete regardless",
								req.RowKey, score, cur.Score)
							return
						}
					}
				}
				err = h.DeleteKey(req.RowKey)
			}
			if err != nil {
				// Divergence is a server-side, retryable condition: the base
				// write landed but an index write did not. 400 would tell the
				// client its request was malformed and make it drop the write;
				// 500 signals "re-apply" (the error carries the timestamp).
				var me *rankjoin.MaintenanceError
				if errors.As(err, &me) {
					writeError(w, http.StatusInternalServerError, "%v", err)
					return
				}
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		writeJSON(w, http.StatusOK, writeResponse{
			OK: true, Op: op, Relation: req.Relation, RowKey: req.RowKey,
			WallTime: time.Since(start).String(),
		})
	}
}

// handleRepair (router mode) runs one anti-entropy pass on demand.
func (s *server) handleRepair(w http.ResponseWriter, _ *http.Request) {
	if s.dist == nil {
		writeError(w, http.StatusNotImplemented, "repair needs router mode (-nodes)")
		return
	}
	start := time.Now()
	rep, err := s.dist.Repair()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"report":    rep,
		"wall_time": time.Since(start).String(),
	})
}

func (s *server) handleRelations(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"relations": s.relationNames()})
}

func (s *server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	algos := []string{string(rankjoin.AlgoAuto), string(rankjoin.AlgoNaive)}
	for _, a := range rankjoin.Algorithms() {
		algos = append(algos, string(a))
	}
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": algos})
}

// nodeStatusJSON is one node's replica-status row in /metrics and
// /healthz.
type nodeStatusJSON struct {
	Node        string   `json:"node"`
	Alive       bool     `json:"alive"`
	Dirty       bool     `json:"dirty"`
	DirtyCause  string   `json:"dirty_cause,omitempty"`
	Relations   []string `json:"relations,omitempty"`
	Tables      int      `json:"tables"`
	Quarantined int      `json:"quarantined_regions"`
}

func (s *server) nodeStatuses() []nodeStatusJSON {
	sts := s.dist.Status()
	out := make([]nodeStatusJSON, 0, len(sts))
	for _, st := range sts {
		out = append(out, nodeStatusJSON{
			Node:        st.Name,
			Alive:       st.Alive,
			Dirty:       st.Dirty,
			DirtyCause:  st.DirtyCause,
			Relations:   st.Relations,
			Tables:      st.Tables,
			Quarantined: len(st.Quarantined),
		})
	}
	return out
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.dist != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"cumulative": toCostJSON(s.dist.AggregateCost()),
			"nodes":      s.nodeStatuses(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cumulative": toCostJSON(s.db.Metrics().Snapshot()),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.dist == nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	nodes := s.nodeStatuses()
	status := "ok"
	for _, n := range nodes {
		if !n.Alive || n.Dirty {
			status = "degraded"
			break
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "nodes": nodes})
}

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

	s := &server{defaultParallelism: *parallelism, defaultTimeout: *timeout}
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
		defer denv.D.Close()
		s.dist, s.q1, s.q2, s.islBatch = denv.D, denv.Q1, denv.Q2, denv.ISLBatch
		p, o, l := denv.Counts()
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
		defer env.DB.Close()
		parts, orders, lineitems := env.Counts()
		if recovered {
			log.Printf("recovered tables and index catalog from disk: %d parts, %d orders, %d lineitems",
				parts, orders, lineitems)
		} else {
			log.Printf("ready: %d parts, %d orders, %d lineitems", parts, orders, lineitems)
		}
		s.db, s.q1, s.q2, s.islBatch = env.DB, env.Q1, env.Q2, env.ISLBatch
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /topk", s.handleTopK)
	mux.HandleFunc("POST /topk", s.handleTopK)
	mux.HandleFunc("GET /stream", s.handleStream)
	mux.HandleFunc("POST /stream", s.handleStream)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("POST /insert", s.handleWrite("insert"))
	mux.HandleFunc("POST /update", s.handleWrite("update"))
	mux.HandleFunc("POST /delete", s.handleWrite("delete"))
	mux.HandleFunc("POST /repair", s.handleRepair)
	mux.HandleFunc("GET /relations", s.handleRelations)
	mux.HandleFunc("GET /algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)

	log.Printf("serving top-k rank joins on %s (default parallelism %d)", *addr, *parallelism)
	log.Fatal(http.ListenAndServe(*addr, mux))
}
