package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	rankjoin "repro"
	"repro/internal/sim"
)

// Every HTTP handler, written against the store surface below: nothing
// here knows whether a DB or a router over region servers is answering.

// store is what the handlers need of a backend. *rankjoin.DB and
// *rankjoin.Distributed both have it, relation handles included: each
// hands out *rankjoin.RelationHandle, whose writes it maintains or
// replicates itself.
type store interface {
	NewTreeQueryFromSpec(spec *rankjoin.TreeSpec) (rankjoin.Query, error)
	EnsureIndexes(q rankjoin.Query, algos ...rankjoin.Algorithm) error
	TopK(q rankjoin.Query, algo rankjoin.Algorithm, opts *rankjoin.QueryOptions) (*rankjoin.Result, error)
	Stream(q rankjoin.Query, algo rankjoin.Algorithm, opts *rankjoin.QueryOptions) (*rankjoin.Rows, error)
	Relation(name string) *rankjoin.RelationHandle
	RelationNames() []string
	AggregateCost() sim.Snapshot
}

// Capabilities only some backends have; a handler asks for one and
// answers 501 (or omits the field) when the store lacks it.
type (
	explainer interface {
		Explain(q rankjoin.Query, opts *rankjoin.ExplainOptions) (*rankjoin.Plan, error)
	}
	repairer interface {
		Repair() (*rankjoin.RepairReport, error)
	}
	nodeReporter interface {
		Status() []rankjoin.NodeStatus
	}
)

// Limits on what one request may ask for.
const (
	// maxBodyBytes caps every request body.
	maxBodyBytes = 1 << 20
	// maxK caps k and limit: the query layer sizes buffers by k, and the
	// planner's stream horizon multiplies it.
	maxK = 1 << 16
)

// server holds the shared query environment.
type server struct {
	store store

	q1, q2             rankjoin.Query
	islBatch           int
	defaultParallelism int
	// defaultTimeout bounds every query that doesn't carry its own
	// timeout parameter; zero leaves unparameterized queries unbounded.
	defaultTimeout time.Duration
}

// routes is the server's whole HTTP surface, every body capped.
func (s *server) routes() http.Handler {
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
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		mux.ServeHTTP(w, r)
	})
}

// resolveQuery resolves a request's query: an inline tree spec when one
// was supplied (general acyclic join-tree queries, including the
// multiway star shape), a named preset
// otherwise. Tree specs are validated structurally; a cyclic or
// disconnected shape surfaces as a *rankjoin.ShapeError that
// writeResolveError maps to a 400 carrying the diagnostic.
func (s *server) resolveQuery(name string, tree *rankjoin.TreeSpec) (rankjoin.Query, string, error) {
	if tree != nil {
		q, err := s.store.NewTreeQueryFromSpec(tree)
		return q, "tree", err
	}
	switch strings.ToLower(name) {
	case "", "q1":
		return s.q1, "q1", nil
	case "q2":
		return s.q2, "q2", nil
	}
	return rankjoin.Query{}, "", fmt.Errorf("unknown query %q (want q1 or q2)", name)
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

// costJSON is the wire form of a sim.Snapshot: a measured cost or a
// planner's estimate.
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
	// Estimate is the planner's predicted cost (algo=auto only), in
	// cost's form; comparing the two gives the per-query estimation
	// error.
	Estimate *costJSON `json:"estimate,omitempty"`
	// NextPageToken resumes this query where it stopped: pass it back
	// as page_token to fetch the next k results at marginal cost.
	NextPageToken string `json:"next_page_token,omitempty"`
	WallTime      string `json:"wall_time"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody reads a POST body into v, answering the failure itself:
// 413 when the body ran past maxBodyBytes (the rest is never read),
// 400 when it is not the JSON v wants.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "bad %s body: %v", what, err)
	return false
}

// queryStatus maps a failed query's or write's typed error to an HTTP
// status: a tripped deadline or canceled context is 408, an exhausted
// read budget is 507, a storage fault (corruption, I/O) or distribution
// failure (no live replica, lost write quorum) is 503, and a maintained
// write whose index write diverged from its base write is 500 (re-apply
// at the timestamp the error carries). The request was well-formed in
// all these cases, so 400 would wrongly tell the client to drop it.
// Anything untyped stays a 400.
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
	var me *rankjoin.MaintenanceError
	if errors.As(err, &me) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// writeQueryError reports a failed query or write, surfacing the
// degradation detail typed errors carry (partial-result count,
// read-unit spend, replica acks) so clients can tell a useful partial
// answer from a dead store.
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

// queryBounds threads the per-request degradation knobs — the timeout
// parameter (a Go duration, overriding the -timeout flag) and the
// request's own context — into opts. A client that disconnects cancels
// its query's spend.
func (s *server) queryBounds(r *http.Request, timeoutParam string, opts *rankjoin.QueryOptions) error {
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
	return nil
}

// queryRequest carries /topk and /stream parameters (query string on
// GET, JSON body on POST). Tree, when set, replaces the named preset
// with an inline acyclic join-tree query. Timeout (a Go duration
// string) and MaxReadUnits bound the query.
type queryRequest struct {
	Query        string             `json:"query"`
	Tree         *rankjoin.TreeSpec `json:"tree"`
	Algo         string             `json:"algo"`
	K            int                `json:"k"`     // page size (/stream: page-size hint)
	Limit        int                `json:"limit"` // /stream only: max results to stream (default 100)
	Parallelism  *int               `json:"parallelism"`
	Objective    string             `json:"objective"`  // /topk only
	PageToken    string             `json:"page_token"` // /topk only
	Timeout      string             `json:"timeout"`
	MaxReadUnits uint64             `json:"max_read_units"`
}

// queryCall is one decoded and resolved /topk or /stream request.
type queryCall struct {
	req  queryRequest
	q    rankjoin.Query
	name string // "q1", "q2" or "tree"
	algo rankjoin.Algorithm
	opts rankjoin.QueryOptions
}

// decodeQuery is the one request decoder behind /topk and /stream: it
// reads the parameters, resolves the query and fills the defaults and
// bounds both endpoints share. It answers a bad request itself and
// reports false. Zero or omitted k/limit mean "default"; negatives
// and values past maxK are rejected, and a GET that spells k out must
// give at least minK.
func (s *server) decodeQuery(w http.ResponseWriter, r *http.Request, endpoint string, minK int) (*queryCall, bool) {
	c := &queryCall{}
	req := &c.req
	if r.Method == http.MethodPost {
		if !decodeBody(w, r, endpoint, req) {
			return nil, false
		}
	} else {
		qv := r.URL.Query()
		req.Query = qv.Get("query")
		req.Algo = qv.Get("algo")
		req.Objective = qv.Get("objective")
		req.PageToken = qv.Get("page_token")
		req.Timeout = qv.Get("timeout")
		for _, p := range []struct {
			name string
			dst  *int
			min  int
		}{{"k", &req.K, minK}, {"limit", &req.Limit, 0}} {
			if v := qv.Get(p.name); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < p.min {
					writeError(w, http.StatusBadRequest, "bad %s %q", p.name, v)
					return nil, false
				}
				*p.dst = n
			}
		}
		if v := qv.Get("parallelism"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad parallelism %q", v)
				return nil, false
			}
			req.Parallelism = &n
		}
		if v := qv.Get("max_read_units"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				writeError(w, http.StatusBadRequest, "bad max_read_units %q", v)
				return nil, false
			}
			req.MaxReadUnits = n
		}
		if raw := qv.Get("tree"); raw != "" {
			tree, err := rankjoin.ParseTreeSpec([]byte(raw))
			if err != nil {
				writeResolveError(w, err)
				return nil, false
			}
			req.Tree = tree
		}
	}
	if req.K < 0 || req.Limit < 0 || req.K > maxK || req.Limit > maxK {
		writeError(w, http.StatusBadRequest, "bad k/limit: want 0 (default) to %d", maxK)
		return nil, false
	}
	parallelism, err := s.parallelism(req.Parallelism)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	c.q, c.name, err = s.resolveQuery(req.Query, req.Tree)
	if err != nil {
		writeResolveError(w, err)
		return nil, false
	}
	// The planner is the default: with no algo parameter, auto picks
	// the cheapest executor whose indexes are built.
	c.algo = rankjoin.Algorithm(strings.ToLower(req.Algo))
	if c.algo == "" {
		c.algo = rankjoin.AlgoAuto
	}
	c.opts = rankjoin.QueryOptions{
		ISLBatch:     s.islBatch,
		Parallelism:  parallelism,
		MaxReadUnits: req.MaxReadUnits,
	}
	if err := s.queryBounds(r, req.Timeout, &c.opts); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	if req.Tree != nil && c.algo != rankjoin.AlgoAuto {
		// Presets are indexed at startup; a tree arrives with whatever
		// shape the client sent, so a hand-picked executor's index is
		// built on first use (an idempotent no-op afterwards). The error
		// is dropped: execution surfaces a clearer one (unsupported
		// shape, missing index) when the build failed.
		_ = s.store.EnsureIndexes(c.q, c.algo)
	}
	return c, true
}

// parallelism is a request's read-path fan-out: its own when it names
// one, else the -parallelism flag.
func (s *server) parallelism(requested *int) (int, error) {
	switch {
	case requested == nil:
		return s.defaultParallelism, nil
	case *requested < 0:
		return 0, fmt.Errorf("bad parallelism %d", *requested)
	}
	return *requested, nil
}

// pageSize is /topk's and /explain's k precedence: an explicit request
// k, then the tree spec's own k, then 10 for the named presets.
func pageSize(requested int, tree *rankjoin.TreeSpec, q rankjoin.Query) int {
	switch {
	case requested != 0:
		return requested
	case tree != nil:
		return q.K()
	}
	return 10
}

func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	c, ok := s.decodeQuery(w, r, "topk", 1)
	if !ok {
		return
	}
	c.opts.Objective = rankjoin.Objective(strings.ToLower(c.req.Objective))
	c.opts.PageToken = c.req.PageToken
	k := pageSize(c.req.K, c.req.Tree, c.q)

	start := time.Now()
	res, err := s.store.TopK(c.q.WithK(k), c.algo, &c.opts)
	if err != nil {
		writeQueryError(w, err)
		return
	}

	resp := topkResponse{
		Query:         c.name,
		Algorithm:     res.Algorithm,
		K:             k,
		Parallelism:   c.opts.Parallelism,
		Results:       make([]resultJSON, 0, len(res.Results)),
		Cost:          toCostJSON(res.Cost),
		NextPageToken: res.NextPageToken,
		WallTime:      time.Since(start).String(),
	}
	if res.Estimate != nil {
		est := toCostJSON(*res.Estimate)
		resp.Estimate = &est
	}
	for _, jr := range res.Results {
		resp.Results = append(resp.Results, toResultJSON(jr))
	}
	writeJSON(w, http.StatusOK, resp)
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
// stream only does the marginal work each emitted result needs, so a
// client that disconnects early stops the spend; a router's stream
// pulls pages with failover, so a replica killed mid-stream is
// survived without a gap or duplicate.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	c, ok := s.decodeQuery(w, r, "stream", 0)
	if !ok {
		return
	}
	k := c.req.K
	if k == 0 {
		k = 10
	}
	limit := c.req.Limit
	if limit == 0 {
		limit = 100
	}

	start := time.Now()
	rows, err := s.store.Stream(c.q.WithK(k), c.algo, &c.opts)
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
		if err := enc.Encode(toResultJSON(rows.Result())); err != nil {
			return // client went away; Close stops the stream's spend
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
		Query:     c.name,
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
	Executor    string   `json:"executor"`
	IndexReady  bool     `json:"index_ready"`
	IndexBytes  uint64   `json:"index_bytes"`
	Incremental bool     `json:"incremental"`
	Estimate    costJSON `json:"estimate"`
	// Marginal is the predicted cost of the NEXT page of k results
	// (full re-run for materializing executors).
	Marginal costJSON `json:"marginal"`
	// StreamEstimate prices a deep enumeration (stream-mode ranking).
	StreamEstimate costJSON `json:"stream_estimate"`
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
	planner, ok := s.store.(explainer)
	if !ok {
		// Plans are priced against node-local statistics; a router
		// doesn't hold any. Ship the query with algo=auto instead — each
		// node plans it on arrival.
		writeError(w, http.StatusNotImplemented,
			"explain is not served in router mode; run /topk with algo=auto (nodes plan on arrival)")
		return
	}
	var req explainRequest
	if !decodeBody(w, r, "explain", &req) {
		return
	}
	q, queryName, err := s.resolveQuery(req.Query, req.Tree)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	k := pageSize(req.K, req.Tree, q)
	if k < 1 || k > maxK {
		writeError(w, http.StatusBadRequest, "bad k %d (want 1 to %d)", req.K, maxK)
		return
	}
	parallelism, err := s.parallelism(req.Parallelism)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := planner.Explain(q.WithK(k), &rankjoin.ExplainOptions{
		Stream: req.Stream,
		Query: rankjoin.QueryOptions{
			ISLBatch:    s.islBatch,
			Parallelism: parallelism,
			Objective:   rankjoin.Objective(strings.ToLower(req.Objective)),
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
			Estimate:       toCostJSON(cand.Estimate),
			Marginal:       toCostJSON(cand.Marginal),
			StreamEstimate: toCostJSON(cand.StreamEstimate),
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

// handleWrite serves the write endpoints: each mutation flows through
// the Section 6 maintenance pipeline, so every index built over the
// relation (and the planner's statistics) reflect it before the
// response returns — a query issued next sees the write on every
// executor. Behind a router the same pipeline runs on every replica
// with one shared timestamp: resolved at the leader, stamped once,
// acknowledged at quorum.
func (s *server) handleWrite(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req writeRequest
		if !decodeBody(w, r, op, &req) {
			return
		}
		if req.RowKey == "" {
			writeError(w, http.StatusBadRequest, "%s needs row_key", op)
			return
		}
		// Both become components of composite index keys, which NUL
		// separates, so no row holds such a key: refused here, a
		// delete included, as the store refuses such a tuple.
		if strings.ContainsRune(req.RowKey+req.JoinValue, 0) {
			writeError(w, http.StatusBadRequest, "row_key and join_value must not contain NUL")
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
		if op != "delete" && (req.JoinValue == "" || req.Score == nil) {
			writeError(w, http.StatusBadRequest, "%s needs join_value and score", op)
			return
		}
		rel := s.store.Relation(req.Relation)
		if rel == nil {
			writeError(w, http.StatusBadRequest, "unknown relation %q (want one of %v)",
				req.Relation, s.store.RelationNames())
			return
		}
		start := time.Now()
		var err error
		switch op {
		case "insert":
			err = rel.Insert(req.RowKey, req.JoinValue, score)
		case "update":
			err = rel.Update(req.RowKey, req.JoinValue, score)
		case "delete":
			// Never trust the client's idea of the tuple's current join
			// value and score: index entries live at those coordinates,
			// and deleting at stale ones strands the real entries as
			// phantoms. DeleteKey reads the live tuple; any supplied
			// value acts only as a precondition against it (each
			// independently — a lone join_value or score is still
			// checked).
			if req.JoinValue != "" || req.Score != nil {
				cur, ok, gerr := rel.Get(req.RowKey)
				if gerr != nil {
					writeQueryError(w, gerr)
					return
				}
				if ok && req.JoinValue != "" && cur.JoinValue != req.JoinValue {
					writeError(w, http.StatusConflict,
						"delete of %q expected join %q but the live tuple has join %q; retry without join_value/score to delete regardless",
						req.RowKey, req.JoinValue, cur.JoinValue)
					return
				}
				if ok && req.Score != nil && cur.Score != score {
					writeError(w, http.StatusConflict,
						"delete of %q expected score %v but the live tuple has score %v; retry without join_value/score to delete regardless",
						req.RowKey, score, cur.Score)
					return
				}
			}
			err = rel.DeleteKey(req.RowKey)
		}
		if err != nil {
			writeQueryError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, writeResponse{
			OK: true, Op: op, Relation: req.Relation, RowKey: req.RowKey,
			WallTime: time.Since(start).String(),
		})
	}
}

// handleRepair runs one anti-entropy pass on demand.
func (s *server) handleRepair(w http.ResponseWriter, _ *http.Request) {
	rp, ok := s.store.(repairer)
	if !ok {
		writeError(w, http.StatusNotImplemented, "repair needs router mode (-nodes)")
		return
	}
	start := time.Now()
	rep, err := rp.Repair()
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
	writeJSON(w, http.StatusOK, map[string]any{"relations": s.store.RelationNames()})
}

func (s *server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	algos := append([]rankjoin.Algorithm{rankjoin.AlgoAuto, rankjoin.AlgoNaive}, rankjoin.Algorithms()...)
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

// nodeStatuses reports per-node status when the store has nodes to
// report on.
func (s *server) nodeStatuses() ([]nodeStatusJSON, bool) {
	nr, ok := s.store.(nodeReporter)
	if !ok {
		return nil, false
	}
	sts := nr.Status()
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
	return out, true
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{"cumulative": toCostJSON(s.store.AggregateCost())}
	if nodes, ok := s.nodeStatuses(); ok {
		body["nodes"] = nodes
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{"status": "ok"}
	if nodes, ok := s.nodeStatuses(); ok {
		for _, n := range nodes {
			if !n.Alive || n.Dirty {
				body["status"] = "degraded"
				break
			}
		}
		body["nodes"] = nodes
	}
	writeJSON(w, http.StatusOK, body)
}
