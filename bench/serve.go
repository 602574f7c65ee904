package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	rankjoin "repro"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Child-process limits: how long rjserve may take to load the cluster
// and answer /healthz, and how long one HTTP op may take before it is
// a failed op instead of a stuck run.
const (
	serveStartTimeout = 90 * time.Second
	httpOpTimeout     = 20 * time.Second
)

// serveFixture is the cluster deployment: three memory-backed node DBs
// hosted by the bench process behind the TCP transport, and a child
// rjserve routing to them. Hosting the nodes in-process keeps the
// workload to two processes on two cores and lets the traced run call
// into every hop.
type serveFixture struct {
	nodes   []*rankjoin.DB
	svcs    []*rankjoin.NodeService
	servers []*transport.Server
	addrs   []string
	child   *exec.Cmd
	exited  chan struct{} // closed once the child has been reaped
	http    *httpTarget
	// islBatch mirrors rjserve's own setting (1% of the lineitems), so
	// a query reissued below HTTP runs with the same options.
	islBatch int
	undo     func() // removes this fixture's exit hook
}

// buildRJServe compiles cmd/rjserve once per process into the work
// directory. The bench module requires the repo module, so the go tool
// resolves the package from the checkout the benchmark runs in.
func (h *harness) buildRJServe() (string, error) {
	if h.rjserve != "" {
		return h.rjserve, nil
	}
	bin := filepath.Join(h.workDir, "rjserve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/rjserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/rjserve: %v\n%s", err, out)
	}
	h.rjserve = bin
	return bin, nil
}

// freeAddr picks a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func buildServe(h *harness) (*fixture, error) {
	bin, err := h.buildRJServe()
	if err != nil {
		return nil, err
	}
	tuples := tpchTuples(serveSF)
	s := &serveFixture{islBatch: len(tuples["lineitem_pk"]) / 100}
	s.undo = h.onExit(s.stop)
	fail := func(err error) (*fixture, error) {
		s.stop()
		return nil, err
	}
	var nodeFlag []string
	for i := 0; i < 3; i++ {
		db, err := rankjoin.Open(rankjoin.Config{})
		if err != nil {
			return fail(err)
		}
		s.nodes = append(s.nodes, db)
		name := fmt.Sprintf("n%d", i)
		svc := rankjoin.NewNodeService(name, db)
		srv, err := transport.ListenAndServe("127.0.0.1:0", svc)
		if err != nil {
			return fail(err)
		}
		s.svcs = append(s.svcs, svc)
		s.servers = append(s.servers, srv)
		s.addrs = append(s.addrs, srv.Addr())
		nodeFlag = append(nodeFlag, name+"="+srv.Addr())
	}
	addr, err := freeAddr()
	if err != nil {
		return fail(err)
	}
	logFile, err := os.Create(filepath.Join(h.workDir, "rjserve.log"))
	if err != nil {
		return fail(err)
	}
	defer logFile.Close() // the child holds its own descriptor
	s.child = exec.Command(bin,
		"-addr", addr, "-nodes", strings.Join(nodeFlag, ","),
		"-sf", strconv.FormatFloat(serveSF, 'g', -1, 64), "-seed", strconv.Itoa(dataSeed),
		"-parallelism", strconv.Itoa(parallelism), "-profile", "lc")
	s.child.Stdout, s.child.Stderr = logFile, logFile
	// If the bench dies without running its exit hooks (SIGKILL), the
	// kernel takes the child down with it.
	s.child.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.child.Start(); err != nil {
		s.child = nil
		return fail(err)
	}
	s.exited = make(chan struct{})
	go func(c *exec.Cmd, done chan<- struct{}) {
		_ = c.Wait() // the exit status of a killed server says nothing
		close(done)
	}(s.child, s.exited)
	s.http = newHTTPTarget("http://" + addr)
	deadline := time.Now().Add(serveStartTimeout)
	for {
		if err := s.http.healthy(); err == nil {
			break
		}
		select {
		case <-s.exited:
			logs, _ := os.ReadFile(logFile.Name())
			return fail(fmt.Errorf("rjserve exited before serving:\n%s", logs))
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("rjserve not healthy after %v", serveStartTimeout))
		}
	}
	qs, err := tpchQueries(s.nodes[0])
	if err != nil {
		return fail(err)
	}
	probe := newDBTarget(s.nodes[0], qs)
	probe.opts.ISLBatch = s.islBatch
	return &fixture{
		tgt:    s.http,
		relsOf: tpchRelsOf,
		// The oracle is a single-process store loaded from the same
		// data; it needs no indexes, because it only runs the naive
		// executor.
		newOracle: func() (*dbTarget, error) {
			db, err := rankjoin.Open(rankjoin.Config{})
			if err != nil {
				return nil, err
			}
			return loadTPCH(db, tuples, false)
		},
		dbs:        s.nodes,
		probe:      probe,
		probeAlgos: []rankjoin.Algorithm{rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN},
		kvTable:    "rel_part",
		kvKeys:     rowKeys(tuples["part"]),
		serve:      s,
		close:      func() error { s.stop(); return nil },
	}, nil
}

// stop tears the deployment down: child killed and reaped, listeners
// and node stores closed. Safe to call twice (exit hook and close).
func (s *serveFixture) stop() {
	if s.child != nil {
		_ = s.child.Process.Kill()
		<-s.exited
		s.child = nil
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	s.servers = nil
	for _, db := range s.nodes {
		_ = db.Close()
	}
	s.nodes = nil
	if s.undo != nil {
		s.undo()
		s.undo = nil
	}
}

// childUsage reads the child's CPU time and peak memory from /proc.
func (s *serveFixture) childUsage() (cpu time.Duration, peakRSSBytes uint64) {
	if s.child == nil {
		return 0, 0
	}
	return procUsage(s.child.Process.Pid)
}

// httpTarget drives rjserve over one keep-alive connection.
type httpTarget struct {
	base   string
	client *http.Client
	// respBytes and non2xx count over the target's lifetime; the
	// harness takes deltas around the timed rounds.
	respBytes uint64
	non2xx    uint64
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{
		base: base,
		client: &http.Client{
			Timeout:   httpOpTimeout,
			Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
	}
}

func (t *httpTarget) healthy() error {
	resp, err := t.client.Get(t.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// Wire shapes of rjserve's responses, reduced to what the bench reads.
type httpCost struct {
	SimSeconds float64 `json:"sim_time_seconds"`
	Network    uint64  `json:"network_bytes"`
	Reads      uint64  `json:"kv_read_units"`
	RPCs       uint64  `json:"rpc_calls"`
}

func (c httpCost) snapshot() sim.Snapshot {
	return sim.Snapshot{
		SimTime:      time.Duration(math.Round(c.SimSeconds * 1e9)),
		NetworkBytes: c.Network,
		KVReads:      c.Reads,
		RPCCalls:     c.RPCs,
	}
}

type httpRow struct {
	Left  string   `json:"left_row"`
	Right string   `json:"right_row"`
	Rest  []string `json:"rest_rows"`
	Score float64  `json:"score"`
	// Set on a stream's trailer lines instead of the row fields.
	Done  bool      `json:"done"`
	Error string    `json:"error"`
	Cost  *httpCost `json:"cost"`
}

func (r *httpRow) row() row {
	return row{Keys: append([]string{r.Left, r.Right}, r.Rest...), Score: r.Score}
}

type httpTopK struct {
	Results   []httpRow `json:"results"`
	Cost      httpCost  `json:"cost"`
	Next      string    `json:"next_page_token"`
	Algorithm string    `json:"algorithm"`
}

var queryNames = []string{"q1", "q2"}

// do sends one request and returns the open response; a non-2xx status
// is an error (and counted), with the body's message attached.
func (t *httpTarget) do(method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		t.non2xx++
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// call is do for a JSON response read to the end.
func (t *httpTarget) call(method, path string, body []byte, out any) error {
	resp, err := t.do(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	t.respBytes += uint64(len(raw))
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (t *httpTarget) run(o *op) (res opResult) {
	if !o.isRead() {
		body := map[string]any{"relation": o.Rel, "row_key": o.Key}
		if o.Kind != opDelete {
			body["join_value"], body["score"] = o.Join, o.Score
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return opResult{err: err}
		}
		return opResult{err: t.call(http.MethodPost, "/"+string(o.Kind), raw, nil)}
	}
	params := url.Values{
		"query":       {queryNames[o.Query]},
		"algo":        {o.Algo},
		"k":           {strconv.Itoa(o.K)},
		"parallelism": {strconv.Itoa(parallelism)},
	}
	if o.Kind == opStream {
		return t.stream(o, params)
	}
	for page := 0; page <= o.Pages; page++ {
		var r httpTopK
		if res.err = t.call(http.MethodGet, "/topk?"+params.Encode(), nil, &r); res.err != nil {
			return res
		}
		for i := range r.Results {
			res.rows = append(res.rows, r.Results[i].row())
		}
		res.cost = res.cost.Add(r.Cost.snapshot())
		res.algo = r.Algorithm
		if r.Next == "" {
			break
		}
		params.Set("page_token", r.Next)
	}
	return res
}

// stream reads /stream's NDJSON: result lines, then a summary line
// carrying the cost (or an error trailer, which fails the op).
func (t *httpTarget) stream(o *op, params url.Values) (res opResult) {
	params.Set("limit", strconv.Itoa(o.K))
	start := time.Now()
	resp, err := t.do(http.MethodGet, "/stream?"+params.Encode(), nil)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		t.respBytes += uint64(len(line))
		if len(bytes.TrimSpace(line)) > 0 {
			var r httpRow
			if jerr := json.Unmarshal(line, &r); jerr != nil {
				res.err = jerr
				return res
			}
			switch {
			case r.Error != "":
				res.err = fmt.Errorf("stream trailer: %s", r.Error)
				return res
			case r.Done:
				if r.Cost != nil {
					res.cost = r.Cost.snapshot()
				}
				return res
			default:
				if len(res.rows) == 0 {
					res.first = time.Since(start)
				}
				res.rows = append(res.rows, r.row())
			}
		}
		if err != nil {
			res.err = fmt.Errorf("stream ended without a summary line: %w", err)
			return res
		}
	}
}
