package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rankjoin "repro"
)

// The handlers are written against one store surface; these tests hold
// them to it by running ONE table of requests, unchanged, against a
// single-process DB and a three-node loopback Distributed loaded with
// the same data, and requiring the same status, the same JSON keys and
// the same rows from both.

// fixtureTuples builds three small relations. Join values are small
// integers so band edges work; scores are spread so the top of every
// query is unambiguous.
func fixtureTuples() map[string][]rankjoin.Tuple {
	out := map[string][]rankjoin.Tuple{}
	for ri, name := range []string{"left", "right", "third"} {
		for i := 0; i < 60; i++ {
			out[name] = append(out[name], rankjoin.Tuple{
				RowKey:    fmt.Sprintf("%s%03d", name[:1], i),
				JoinValue: fmt.Sprint((i*7 + ri) % 12),
				Score:     float64((i*37+ri*11)%97) / 100,
			})
		}
	}
	return out
}

var (
	relationOrder = []string{"left", "right", "third"}
	indexed       = []rankjoin.Algorithm{rankjoin.AlgoIJLMR, rankjoin.AlgoISL, rankjoin.AlgoBFHM, rankjoin.AlgoDRJN}
)

// presets builds the server's q1/q2 over any store.
func presets(t testing.TB, st interface {
	NewQuery(left, right string, f rankjoin.ScoreFunc, k int) (rankjoin.Query, error)
	EnsureIndexes(q rankjoin.Query, algos ...rankjoin.Algorithm) error
}) (q1, q2 rankjoin.Query) {
	t.Helper()
	var err error
	if q1, err = st.NewQuery("left", "right", rankjoin.Product, 10); err != nil {
		t.Fatal(err)
	}
	if q2, err = st.NewQuery("left", "right", rankjoin.Sum, 10); err != nil {
		t.Fatal(err)
	}
	for _, q := range []rankjoin.Query{q1, q2} {
		if err := st.EnsureIndexes(q, indexed...); err != nil {
			t.Fatal(err)
		}
	}
	return q1, q2
}

func newDBServer(t testing.TB) (*server, *rankjoin.DB) {
	t.Helper()
	db, err := rankjoin.Open(rankjoin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	data := fixtureTuples()
	for _, name := range relationOrder {
		h, err := db.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.BulkLoad(data[name]); err != nil {
			t.Fatal(err)
		}
	}
	q1, q2 := presets(t, db)
	return &server{store: db, q1: q1, q2: q2, islBatch: 10, defaultParallelism: 2}, db
}

func newDistServer(t testing.TB) (*server, *rankjoin.Distributed) {
	t.Helper()
	topo := &rankjoin.Topology{}
	for i := 0; i < 3; i++ {
		topo.Nodes = append(topo.Nodes, rankjoin.NodeSpec{Name: fmt.Sprintf("node%d", i)})
	}
	d, err := rankjoin.OpenDistributed(rankjoin.Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	data := fixtureTuples()
	for _, name := range relationOrder {
		h, err := d.DefineRelation(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.BatchInsert(data[name]); err != nil {
			t.Fatal(err)
		}
	}
	q1, q2 := presets(t, d)
	return &server{store: d, q1: q1, q2: q2, islBatch: 10, defaultParallelism: 2}, d
}

// reply is one recorded response: status, the decoded JSON lines (one
// for a JSON body, several for NDJSON) and the raw bytes.
type reply struct {
	status int
	lines  []map[string]any
	raw    string
}

func do(t testing.TB, h http.Handler, method, target, body string) reply {
	t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := reply{status: rec.Code, raw: rec.Body.String()}
	dec := json.NewDecoder(strings.NewReader(out.raw))
	for {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			// The mux's own 404/405 bodies are plain text: no lines.
			return out
		}
		out.lines = append(out.lines, m)
	}
}

func keysOf(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// rowsOf extracts what a response says the query's results are: the
// "results" array of a /topk body, or the row lines of a /stream.
func rowsOf(r reply) []any {
	if len(r.lines) == 1 {
		rows, _ := r.lines[0]["results"].([]any)
		return rows
	}
	var rows []any
	for _, l := range r.lines {
		if _, isRow := l["left_row"]; isRow {
			rows = append(rows, l)
		}
	}
	return rows
}

func tokenOf(r reply) string {
	if len(r.lines) == 0 {
		return ""
	}
	tok, _ := r.lines[0]["next_page_token"].(string)
	return tok
}

// A case's target and body may use {token} for the next_page_token of
// the same backend's previous reply.
type serveCase struct {
	name   string
	method string
	target string
	body   string
	// want is the status both backends must answer; wantDist, when set,
	// overrides it for the Distributed (capability endpoints only).
	want, wantDist int
	// keys, when set, must all be present in the (last line of the)
	// response on both backends.
	keys []string
	// fields, when set, are values the (last line of the) response must
	// carry on both backends, compared as decoded JSON.
	fields map[string]any
	// positive, when set, are dotted paths ("cost.rpc_calls") to
	// numbers the (last line of the) response must carry above zero on
	// both backends.
	positive []string
	// onlyOne lists keys one backend may carry and the other omit.
	onlyOne []string
	// wantRows, when positive, is the row count both must return.
	wantRows int
	// first, when set, is the left_row both must rank first.
	first string
}

const threeLeafTree = `{"relations":["left","right","third"],"edges":[{"a":0,"b":1},{"a":1,"b":2,"kind":"band","band":1}],"score":"sum","k":4}`

func serveTable() []serveCase {
	get, post := http.MethodGet, http.MethodPost
	treeParam := url.QueryEscape(threeLeafTree)
	return []serveCase{
		// ---- /topk ----
		{name: "topk defaults", method: get, target: "/topk", want: 200, wantRows: 10,
			keys:     []string{"query", "algorithm", "k", "parallelism", "results", "cost", "estimate", "wall_time", "next_page_token"},
			positive: []string{"cost.rpc_calls", "estimate.rpc_calls", "estimate.kv_read_units"}},
		{name: "topk isl", method: get, target: "/topk?query=q2&algo=isl&k=5", want: 200, wantRows: 5},
		{name: "topk next page", method: get, target: "/topk?query=q2&algo=isl&k=5&page_token={token}", want: 200, wantRows: 5},
		{name: "topk fresh page for replay", method: get, target: "/topk?query=q2&algo=isl&k=5", want: 200, wantRows: 5},
		{name: "topk token replayed with another algorithm", method: get, target: "/topk?query=q2&algo=bfhm&k=5&page_token={token}", want: 400},
		{name: "topk fresh page for replay 2", method: get, target: "/topk?query=q2&algo=isl&k=5", want: 200, wantRows: 5},
		{name: "topk token replayed with another query", method: get, target: "/topk?query=q1&algo=isl&k=5&page_token={token}", want: 400},
		{name: "topk every executor bfhm", method: get, target: "/topk?query=q1&algo=bfhm&k=7&parallelism=0", want: 200, wantRows: 7},
		{name: "topk every executor drjn", method: get, target: "/topk?query=q2&algo=drjn&k=7", want: 200, wantRows: 7},
		{name: "topk post", method: post, target: "/topk", body: `{"query":"q2","algo":"naive","k":3}`, want: 200, wantRows: 3},
		{name: "topk post tree", method: post, target: "/topk", body: `{"tree":` + threeLeafTree + `,"algo":"anyk"}`, want: 200, wantRows: 4,
			fields: map[string]any{"algorithm": "isl"}},
		{name: "topk get tree", method: get, target: "/topk?algo=naive&tree=" + treeParam, want: 200, wantRows: 4},
		{name: "topk cyclic tree", method: post, target: "/topk",
			body: `{"tree":{"relations":["left","right","third"],"edges":[{"a":0,"b":1},{"a":1,"b":2},{"a":2,"b":0}]}}`,
			want: 400, keys: []string{"error", "shape"}},
		{name: "topk tree over an undefined relation", method: post, target: "/topk",
			body: `{"tree":{"relations":["left","nowhere"]}}`, want: 400},
		{name: "topk unknown preset", method: get, target: "/topk?query=q9", want: 400},
		{name: "topk unknown algorithm", method: get, target: "/topk?algo=quantum", want: 400},
		{name: "topk k=0 spelled out", method: get, target: "/topk?k=0", want: 400},
		{name: "topk k not a number", method: get, target: "/topk?k=ten", want: 400},
		{name: "topk negative k in body", method: post, target: "/topk", body: `{"k":-1}`, want: 400},
		{name: "topk negative parallelism", method: get, target: "/topk?parallelism=-1", want: 400},
		{name: "topk bad timeout", method: get, target: "/topk?timeout=xyz", want: 400},
		{name: "topk bad max_read_units", method: get, target: "/topk?max_read_units=0", want: 400},
		{name: "topk body not json", method: post, target: "/topk", body: `{"query":`, want: 400},
		{name: "topk deadline", method: get, target: "/topk?query=q2&algo=naive&timeout=1ns", want: 408,
			keys: []string{"error", "partial_results", "read_units"}},
		{name: "topk read budget", method: get, target: "/topk?query=q2&algo=naive&max_read_units=10", want: 507,
			keys: []string{"error", "partial_results", "read_unit_limit", "read_units"}},

		// ---- /stream ----
		{name: "stream isl", method: get, target: "/stream?query=q2&algo=isl&limit=12&k=5", want: 200, wantRows: 12,
			keys: []string{"done", "query", "algorithm", "count", "exhausted", "cost", "wall_time"}},
		{name: "stream defaults", method: get, target: "/stream?k=0", want: 200, wantRows: 100},
		{name: "stream post tree", method: post, target: "/stream", body: `{"tree":` + threeLeafTree + `,"algo":"anyk","limit":9}`, want: 200, wantRows: 9,
			fields: map[string]any{"algorithm": "isl"}},
		{name: "stream negative limit", method: get, target: "/stream?limit=-1", want: 400},
		{name: "stream negative k in body", method: post, target: "/stream", body: `{"k":-2}`, want: 400},
		{name: "stream unknown preset", method: get, target: "/stream?query=nope", want: 400},

		// ---- writes ----
		{name: "insert top pair left", method: post, target: "/insert",
			body: `{"relation":"left","row_key":"lTOP","join_value":"777","score":1.0}`, want: 200,
			keys: []string{"ok", "op", "relation", "row_key", "wall_time"}},
		{name: "insert top pair right", method: post, target: "/insert",
			body: `{"relation":"right","row_key":"rTOP","join_value":"777","score":1.0}`, want: 200},
		{name: "insert visible at once", method: get, target: "/topk?query=q2&algo=drjn&k=1", want: 200, wantRows: 1, first: "lTOP"},
		{name: "insert visible to isl", method: get, target: "/topk?query=q2&algo=isl&k=1", want: 200, wantRows: 1, first: "lTOP"},
		{name: "update demotes it", method: post, target: "/update",
			body: `{"relation":"left","row_key":"lTOP","join_value":"777","score":0.0}`, want: 200},
		{name: "update of an absent row", method: post, target: "/update",
			body: `{"relation":"left","row_key":"lGHOST","join_value":"1","score":0.5}`, want: 400},
		{name: "refused update inserted nothing", method: post, target: "/delete",
			body: `{"relation":"left","row_key":"lGHOST","join_value":"1"}`, want: 200},
		{name: "delete with a stale join_value", method: post, target: "/delete",
			body: `{"relation":"left","row_key":"lTOP","join_value":"778"}`, want: 409},
		{name: "delete with a stale score", method: post, target: "/delete",
			body: `{"relation":"left","row_key":"lTOP","score":1.0}`, want: 409},
		{name: "refused delete deleted nothing", method: post, target: "/delete",
			body: `{"relation":"left","row_key":"lTOP","join_value":"777","score":0.0}`, want: 200},
		{name: "delete by key alone", method: post, target: "/delete",
			body: `{"relation":"right","row_key":"rTOP"}`, want: 200},
		{name: "delete of an absent row", method: post, target: "/delete",
			body: `{"relation":"right","row_key":"rTOP"}`, want: 200},
		{name: "top pair gone everywhere", method: get, target: "/topk?query=q2&algo=bfhm&k=3", want: 200, wantRows: 3},
		{name: "insert unknown relation", method: post, target: "/insert",
			body: `{"relation":"nowhere","row_key":"x","join_value":"1","score":0.5}`, want: 400},
		{name: "insert without row_key", method: post, target: "/insert",
			body: `{"relation":"left","join_value":"1","score":0.5}`, want: 400},
		{name: "insert without score", method: post, target: "/insert",
			body: `{"relation":"left","row_key":"x","join_value":"1"}`, want: 400},
		{name: "insert score out of range", method: post, target: "/insert",
			body: `{"relation":"left","row_key":"x","join_value":"1","score":1.5}`, want: 400},
		{name: "update body not json", method: post, target: "/update", body: `[]`, want: 400},

		// ---- capabilities and the rest ----
		{name: "explain", method: post, target: "/explain", body: `{"query":"q2","k":10,"objective":"dollars"}`,
			want: 200, wantDist: 501},
		{name: "explain bad k", method: post, target: "/explain", body: `{"k":-4}`, want: 400, wantDist: 501},
		{name: "explain unknown objective", method: post, target: "/explain",
			body: `{"query":"q2","k":10,"objective":"dollar"}`, want: 400, wantDist: 501},
		{name: "repair", method: post, target: "/repair", want: 501, wantDist: 200},
		{name: "relations", method: get, target: "/relations", want: 200, keys: []string{"relations"}},
		{name: "algorithms", method: get, target: "/algorithms", want: 200,
			fields: map[string]any{"algorithms": []any{"auto", "naive", "hive", "pig", "ijlmr", "isl", "bfhm", "drjn"}}},
		{name: "metrics", method: get, target: "/metrics", want: 200, keys: []string{"cumulative"}, onlyOne: []string{"nodes"}},
		{name: "healthz", method: get, target: "/healthz", want: 200, keys: []string{"status"}, onlyOne: []string{"nodes"}},
		{name: "no such route", method: get, target: "/nope", want: 404},
		{name: "wrong method", method: get, target: "/insert", want: 405},
	}
}

// TestHandlersSameOnBothBackends runs the table, in order, against both
// backends.
func TestHandlersSameOnBothBackends(t *testing.T) {
	dbSrv, _ := newDBServer(t)
	distSrv, _ := newDistServer(t)
	backends := []struct {
		name string
		h    http.Handler
		tok  string
	}{{"db", dbSrv.routes(), ""}, {"distributed", distSrv.routes(), ""}}

	for _, c := range serveTable() {
		var got [2]reply
		for i := range backends {
			b := &backends[i]
			target := strings.ReplaceAll(c.target, "{token}", url.QueryEscape(b.tok))
			got[i] = do(t, b.h, c.method, target, c.body)
			b.tok = tokenOf(got[i])
			want := c.want
			if i == 1 && c.wantDist != 0 {
				want = c.wantDist
			}
			if got[i].status != want {
				t.Errorf("%s on %s: status %d, want %d\n%s", c.name, b.name, got[i].status, want, got[i].raw)
			}
		}
		if c.wantDist != 0 || len(got[0].lines) == 0 || len(got[1].lines) == 0 {
			continue // only one backend serves it, or no JSON body (404/405)
		}
		last := func(r reply) map[string]any { return r.lines[len(r.lines)-1] }
		for _, k := range c.keys {
			for i := range got {
				if _, ok := last(got[i])[k]; !ok {
					t.Errorf("%s on %s: response lacks %q: %s", c.name, backends[i].name, k, got[i].raw)
				}
			}
		}
		for k, v := range c.fields {
			for i := range got {
				if g := last(got[i])[k]; !reflect.DeepEqual(g, v) {
					t.Errorf("%s on %s: %s = %v, want %v", c.name, backends[i].name, k, g, v)
				}
			}
		}
		for _, path := range c.positive {
			for i := range got {
				var v any = last(got[i])
				for _, k := range strings.Split(path, ".") {
					m, _ := v.(map[string]any)
					v = m[k]
				}
				if n, ok := v.(float64); !ok || n <= 0 {
					t.Errorf("%s on %s: %s = %v, want a positive number", c.name, backends[i].name, path, v)
				}
			}
		}
		optional := map[string]bool{}
		for _, k := range c.onlyOne {
			optional[k] = true
		}
		var sets [2][]string
		for i := range got {
			for _, k := range keysOf(last(got[i])) {
				if !optional[k] {
					sets[i] = append(sets[i], k)
				}
			}
		}
		if !reflect.DeepEqual(sets[0], sets[1]) {
			t.Errorf("%s: JSON keys differ: db %v, distributed %v", c.name, sets[0], sets[1])
		}
		if len(got[0].lines) != len(got[1].lines) {
			t.Errorf("%s: db answered %d lines, distributed %d", c.name, len(got[0].lines), len(got[1].lines))
		}
		rows := [2][]any{rowsOf(got[0]), rowsOf(got[1])}
		if !reflect.DeepEqual(rows[0], rows[1]) {
			t.Errorf("%s: rows differ:\n db          %v\n distributed %v", c.name, rows[0], rows[1])
		}
		if c.wantRows > 0 && len(rows[0]) != c.wantRows {
			t.Errorf("%s: %d rows, want %d", c.name, len(rows[0]), c.wantRows)
		}
		if c.first != "" {
			if len(rows[0]) == 0 || rows[0][0].(map[string]any)["left_row"] != c.first {
				t.Errorf("%s: first row %v, want left_row %s", c.name, rows[0], c.first)
			}
		}
	}
}

// TestQueryStatusOneMapping: queries and writes map their typed errors
// through one function, whichever backend raised them.
func TestQueryStatusOneMapping(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{errors.New("anything untyped"), 400},
		{&rankjoin.CanceledError{}, 408},
		{&rankjoin.BudgetExceededError{Limit: 1, Spent: 2}, 507},
		{&rankjoin.MaintenanceError{Relation: "left", Index: "isl", Err: errors.New("put failed")}, 500},
		{&rankjoin.ReplicationError{Relation: "left", Acked: 1, Quorum: 2}, 503},
		{&rankjoin.NoReplicaError{Op: "topk"}, 503},
		{&rankjoin.CorruptionError{Err: rankjoin.ErrCorruption}, 503},
		{&rankjoin.IOError{}, 503},
		{fmt.Errorf("wrapped: %w", &rankjoin.MaintenanceError{Err: errors.New("x")}), 500},
	} {
		if got := queryStatus(c.err); got != c.want {
			t.Errorf("queryStatus(%T) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestWriteFailuresByBackend covers the write statuses only a fault can
// produce: a maintained write whose index write diverged from its base
// write is a 500 on a DB (the client must re-apply it, not drop it), the
// same fault at a router's leader fails the write unacked, and a router
// that lost its quorum (or every replica) answers 503 with the shortfall
// in the body.
func TestWriteFailuresByBackend(t *testing.T) {
	dbSrv, db := newDBServer(t)
	insert := `{"relation":"left","row_key":"lNEW","join_value":"3","score":0.5}`

	// An index table dropped under its live index fails every later
	// maintained write after the base table took it.
	if err := db.Cluster().DropTable("drjn_left"); err != nil {
		t.Fatal(err)
	}
	if r := do(t, dbSrv.routes(), http.MethodPost, "/insert", insert); r.status != 500 {
		t.Errorf("db: diverged insert answered %d, want 500: %s", r.status, r.raw)
	}
	// The leader's failed Apply leaves it dirty, so this fault gets a
	// cluster of its own: the quorum checks below need a clean leader.
	divSrv, div := newDistServer(t)
	if err := div.NodeDB("node0").Cluster().DropTable("drjn_left"); err != nil {
		t.Fatal(err)
	}
	if r := do(t, divSrv.routes(), http.MethodPost, "/insert", insert); r.status != 503 || r.lines[0]["acked"] != float64(0) {
		t.Errorf("distributed: insert diverged at the leader answered %d, want 503 acked by none: %s", r.status, r.raw)
	}

	distSrv, d := newDistServer(t)
	h := distSrv.routes()
	for _, n := range []string{"node1", "node2"} {
		if err := d.StopNode(n); err != nil {
			t.Fatal(err)
		}
	}
	r := do(t, h, http.MethodPost, "/insert", insert)
	if r.status != 503 {
		t.Fatalf("insert with 1/3 replicas up answered %d, want 503: %s", r.status, r.raw)
	}
	for _, k := range []string{"error", "acked", "quorum"} {
		if _, ok := r.lines[0][k]; !ok {
			t.Errorf("lost-quorum body lacks %q: %s", k, r.raw)
		}
	}
	if r.lines[0]["acked"] != float64(1) {
		t.Errorf("lost-quorum insert acked by %v, want 1 (the clean leader): %s", r.lines[0]["acked"], r.raw)
	}
	for _, st := range d.Status() {
		if st.Name == "node0" && st.Dirty {
			t.Errorf("node0 dirty after acking the lost-quorum insert: %s", st.DirtyCause)
		}
	}
	if r := do(t, h, http.MethodGet, "/healthz", ""); r.status != 200 || r.lines[0]["status"] != "degraded" {
		t.Errorf("healthz with replicas down: %d %s", r.status, r.raw)
	}
	if r := do(t, h, http.MethodGet, "/topk?query=q2&algo=isl&k=3", ""); r.status != 200 {
		t.Errorf("query with one replica left answered %d: %s", r.status, r.raw)
	}
	if err := d.StopNode("node0"); err != nil {
		t.Fatal(err)
	}
	if r := do(t, h, http.MethodGet, "/topk?query=q2&algo=isl&k=3", ""); r.status != 503 {
		t.Errorf("query with no replica answered %d, want 503: %s", r.status, r.raw)
	}
	if r := do(t, h, http.MethodGet, "/stream?query=q2&algo=isl", ""); r.status != 503 {
		t.Errorf("stream with no replica answered %d, want 503: %s", r.status, r.raw)
	}
}

// TestStreamBoundTripsMidStream: a bound tripped after rows went out
// ends the stream with a trailer line carrying the mapped status and
// the count already delivered, on both backends — max_read_units caps
// the whole stream on a router too, not each page it pulls. A bound
// that trips before any row is the one place the backends answer
// differently, and both answers say 507: a DB's cursor opens lazily and
// trips on the first pull (200, then the trailer), a router pulls its
// first page at open (507 outright).
func TestStreamBoundTripsMidStream(t *testing.T) {
	dbSrv, _ := newDBServer(t)
	distSrv, _ := newDistServer(t)
	early := "/stream?query=q2&algo=naive&max_read_units=10"
	if r := do(t, dbSrv.routes(), http.MethodGet, early, ""); r.status != 200 || len(r.lines) != 1 ||
		r.lines[0]["status"] != float64(507) || r.lines[0]["count"] != float64(0) {
		t.Errorf("db: bound tripped before the first row: %d %s", r.status, r.raw)
	}
	if r := do(t, distSrv.routes(), http.MethodGet, early, ""); r.status != 507 || r.lines[0]["partial_results"] == nil {
		t.Errorf("distributed: bound tripped before the first row: %d %s", r.status, r.raw)
	}
	for name, s := range map[string]*server{"db": dbSrv, "distributed": distSrv} {
		// isl reads a handful of units per page; a cap that admits the
		// first pages and not the whole join trips mid-stream.
		r := do(t, s.routes(), http.MethodGet, "/stream?query=q2&algo=isl&k=5&limit=100&max_read_units=40", "")
		if r.status != 200 || len(r.lines) < 2 {
			t.Fatalf("%s: %d %s", name, r.status, r.raw)
		}
		trailer := r.lines[len(r.lines)-1]
		if trailer["status"] != float64(507) || trailer["error"] == nil {
			t.Errorf("%s: trailer %v, want status 507 and an error", name, trailer)
		}
		if trailer["count"] != float64(len(r.lines)-1) {
			t.Errorf("%s: trailer counts %v rows, %d were delivered", name, trailer["count"], len(r.lines)-1)
		}
	}
}

// countingReader counts what is read from it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestBodyCap: a body past maxBodyBytes is refused with 413 and the
// server stops reading it there, on every POST endpoint.
func TestBodyCap(t *testing.T) {
	s, _ := newDBServer(t)
	h := s.routes()
	for _, path := range []string{"/topk", "/stream", "/explain", "/insert", "/update", "/delete"} {
		// Valid JSON all the way: a string value that never ends within
		// the cap, so only the cap can stop the decoder.
		body := &countingReader{r: io.MultiReader(
			strings.NewReader(`{"query":"`), io.LimitReader(zeros{}, 8*maxBodyBytes), strings.NewReader(`"}`))}
		req := httptest.NewRequest(http.MethodPost, path, body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: over-cap body answered %d, want 413", path, rec.Code)
		}
		if body.n > 2*maxBodyBytes {
			t.Errorf("%s: read %d bytes of an over-cap body (cap %d)", path, body.n, maxBodyBytes)
		}
	}
}

// zeros is an endless stream of the letter a.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

// TestShutdownDrainsThenCloses: cancelling serve's context while a
// /stream is in flight lets that stream finish — summary line and all —
// and closes the store only afterwards.
func TestShutdownDrainsThenCloses(t *testing.T) {
	s, _ := newDBServer(t)
	inner := s.routes()
	var inflight atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer inflight.Add(-1)
		close(entered)
		<-release
		inner.ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var closedWith atomic.Int32
	closedWith.Store(-1)
	served := make(chan error, 1)
	go func() {
		served <- serve(ctx, ln, h, func() error {
			closedWith.Store(inflight.Load())
			return nil
		})
	}()

	type streamed struct {
		lines []string
		err   error
	}
	client := make(chan streamed, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/stream?query=q2&algo=isl&limit=20")
		if err != nil {
			client <- streamed{err: err}
			return
		}
		defer resp.Body.Close()
		var out streamed
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			out.lines = append(out.lines, sc.Text())
		}
		out.err = sc.Err()
		client <- out
	}()

	<-entered
	cancel() // SIGTERM arrives while the stream is in flight
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := closedWith.Load(); got != -1 {
		t.Fatalf("store closed with a request still in flight (inflight=%d)", got)
	}
	close(release)

	got := <-client
	if got.err != nil {
		t.Fatalf("in-flight stream was cut: %v", got.err)
	}
	if len(got.lines) != 21 || !strings.Contains(got.lines[20], `"done":true`) {
		t.Fatalf("in-flight stream did not drain: %d lines, last %q", len(got.lines), got.lines[len(got.lines)-1])
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if got := closedWith.Load(); got != 0 {
		t.Fatalf("store closed with %d requests in flight (-1 = never closed)", got)
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Error("server still accepting after shutdown")
	}
}

// FuzzServeBodies feeds arbitrary bodies to every POST decoder: the
// server must answer (no panic, no hang) with a status from its
// documented set, and never a 5xx for what is only a bad request.
func FuzzServeBodies(f *testing.F) {
	paths := []string{"/topk", "/stream", "/explain", "/insert", "/update", "/delete"}
	endpoint := func(path string) uint8 {
		for i, p := range paths {
			if p == path {
				return uint8(i)
			}
		}
		f.Fatalf("no POST decoder at %s", path)
		return 0
	}
	for _, c := range serveTable() {
		if c.method == http.MethodPost && c.body != "" {
			f.Add(endpoint(c.target), c.body)
		}
	}
	f.Add(endpoint("/topk"), `{"k":9223372036854775807}`)
	f.Add(endpoint("/stream"), `{"limit":1e400}`)
	f.Add(endpoint("/insert"), "{\"relation\":\"left\",\"row_key\":\"\\u0000\",\"join_value\":\"1\",\"score\":0.5}")
	f.Add(endpoint("/delete"), `null`)
	s, _ := newDBServer(f)
	h := s.routes()
	allowed := map[int]bool{200: true, 400: true, 408: true, 409: true, 413: true, 501: true, 507: true}
	f.Fuzz(func(t *testing.T, ep uint8, body string) {
		target := paths[int(ep)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if !allowed[rec.Code] {
			t.Fatalf("POST %s %q answered %d: %s", target, body, rec.Code, rec.Body.String())
		}
	})
}
