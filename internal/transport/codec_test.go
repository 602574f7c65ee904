package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// header builds a frame header by hand, so tests can lie in it.
func header(seq uint64, code byte, n uint32) []byte {
	h := make([]byte, headerLen)
	h[0] = frameMagic
	binary.BigEndian.PutUint64(h[1:9], seq)
	h[9] = code
	binary.BigEndian.PutUint32(h[10:14], n)
	return h
}

// v0Frame is a frame in the format before the binary header: a 4-byte
// big-endian length, then a JSON envelope.
func v0Frame(envelope string) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(envelope)))
	return append(out, envelope...)
}

// oldFrame is a frame in format v1 or v2: the same header layout
// under the old version byte, then a JSON body.
func oldFrame(magic byte, seq uint64, code byte, body string) []byte {
	out := header(seq, code, uint32(len(body)))
	out[0] = magic
	return append(out, body...)
}

func TestFrameLimit(t *testing.T) {
	// A hostile 4 GiB length must fail before anything is allocated
	// for the body.
	f := newFrameBuf()
	_, _, _, err := f.read(bytes.NewReader(header(1, methodHealth, 0xffffffff)))
	var te *Error
	if !errors.As(err, &te) || !strings.Contains(te.Msg, "exceeds limit") {
		t.Fatalf("oversized frame: err = %v, want a typed limit error", err)
	}
	if cap(f.b) > 64 {
		t.Fatalf("oversized frame allocated %d bytes", cap(f.b))
	}

	// A length inside the limit that the stream does not back costs only
	// what arrived, not what the header claims.
	f = newFrameBuf()
	short := append(header(1, methodTopK, maxFrame), make([]byte, 1000)...)
	if _, _, _, err := f.read(bytes.NewReader(short)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if cap(f.b) > 2*firstChunk {
		t.Fatalf("a %d-byte claim backed by 1000 bytes allocated %d bytes", maxFrame, cap(f.b))
	}
}

// TestFrameVersionRefused: a peer of an earlier build — frame format
// v0 (no binary header), v1 (JSON result bodies), v2 (leaf counts in
// repair bodies) or v3 (three-field planner estimates) — is refused
// typed on its first frame, in both directions.
func TestFrameVersionRefused(t *testing.T) {
	peers := []struct {
		version  string
		reply    []byte   // the peer server's answer to our first request
		requests [][]byte // first frames a peer client sends
	}{
		{
			version: "v0",
			reply:   v0Frame(`{"seq":1}`),
			requests: [][]byte{
				v0Frame(`{"seq":1,"method":"Apply","body":{"relation":"r1","kind":"insert","ts":1}}`),
				v0Frame(`{"seq":1,"method":"Health"}`),
			},
		},
		{
			version: "v1",
			reply:   oldFrame(frameMagicV1, 1, statusOK, `{"results":null,"cost":{},"algorithm":"isl"}`),
			requests: [][]byte{
				oldFrame(frameMagicV1, 1, methodApply, `{"relation":"r1","kind":"insert","ts":1}`),
				oldFrame(frameMagicV1, 1, methodHealth, ""),
				oldFrame(frameMagicV1, 1, methodTopK, `{"left":"a","right":"b","k":3,"algo":"isl"}`),
			},
		},
		{
			version: "v2",
			reply:   oldFrame(frameMagicV2, 1, statusOK, `{"families":["d"],"rows":["p1"],"cells":[]}`),
			requests: [][]byte{
				oldFrame(frameMagicV2, 1, methodApply, `{"relation":"r1","kind":"insert","ts":1}`),
				oldFrame(frameMagicV2, 1, methodMerkleTree, `{"table":"t","leaves":64}`),
				oldFrame(frameMagicV2, 1, methodTopK, `{"left":"a","right":"b","k":3,"algo":"isl"}`),
			},
		},
		{
			version: "v3",
			// An empty v3 TopK reply: no results, a zero cost, two empty
			// strings and no estimate.
			reply: oldFrame(frameMagicV3, 1, statusOK, "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
			requests: [][]byte{
				oldFrame(frameMagicV3, 1, methodApply, `{"relation":"r1","kind":"insert","ts":1}`),
				oldFrame(frameMagicV3, 1, methodHealth, ""),
				oldFrame(frameMagicV3, 1, methodTopK, `{"tree":{"relations":["a","b"]},"k":3,"algo":"isl"}`),
			},
		},
	}
	t.Run("client", func(t *testing.T) {
		for _, peer := range peers {
			t.Run(peer.version, func(t *testing.T) { clientRefuses(t, peer.version, peer.reply) })
		}
	})
	t.Run("server", func(t *testing.T) {
		for _, peer := range peers {
			t.Run(peer.version, func(t *testing.T) { serverRefuses(t, peer.version, peer.requests) })
		}
	})
}

// refusedTyped fails unless err is a typed *Error that is not
// unavailable and names both frame versions.
func refusedTyped(t *testing.T, version string, err error) {
	t.Helper()
	var te *Error
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *Error", err)
	}
	if te.Kind == KindUnavailable || errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v: a build mismatch must not read as unavailable", err)
	}
	if !strings.Contains(te.Msg, version) || !strings.Contains(te.Msg, fmt.Sprintf("v%d", frameVersion)) {
		t.Fatalf("err = %v, want both frame versions named", err)
	}
}

// clientRefuses: a client whose first request is answered by reply
// fails with a typed *Error naming both versions, without a redial.
func clientRefuses(t *testing.T, version string, reply []byte) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int32
	var wg sync.WaitGroup
	hold := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				if _, err := conn.Read(make([]byte, 4096)); err != nil {
					return
				}
				// Answer as the old server would, then wait for the
				// next request as it would: a reader that waited for
				// a whole header here would hang on a v0 reply.
				if _, err := conn.Write(reply); err != nil {
					return
				}
				<-hold
			}(conn)
		}
	}()
	t.Cleanup(func() {
		close(hold)
		_ = ln.Close()
		wg.Wait()
	})

	cl := Dial(ln.Addr().String())
	defer cl.Close()
	_, err = cl.TopK(QueryRequest{Left: "a", Right: "b", K: 3, Algo: "isl"})
	refusedTyped(t, version, err)
	if n := accepts.Load(); n != 1 {
		t.Fatalf("client dialed %d times, want 1 (no redial on a mismatch)", n)
	}
}

// serverRefuses: a server answers each connection whose first frame is
// one of requests with exactly one error frame in its own format, naming
// both versions, then ends the connection without dispatching anything.
func serverRefuses(t *testing.T, version string, requests [][]byte) {
	fake := &fakeService{}
	srv, _ := startServer(t, fake)
	for _, frame := range requests {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		answer, err := io.ReadAll(conn)
		_ = conn.Close()
		if err != nil {
			t.Fatalf("reading the answer to a %s frame: %v", version, err)
		}
		r := bytes.NewReader(answer)
		_, status, body, err := newFrameBuf().read(r)
		if err != nil || status != statusError || r.Len() != 0 {
			t.Fatalf("a %s frame was answered with %q (status %d, err %v, %d bytes after it), want one error frame",
				version, answer, status, err, r.Len())
		}
		var te Error
		if err := json.Unmarshal(body, &te); err != nil {
			t.Fatalf("error frame body %q: %v", body, err)
		}
		refusedTyped(t, version, &te)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if len(fake.applied) != 0 || len(fake.queries) != 0 {
		t.Fatalf("a %s frame was dispatched: applied %v, queries %v", version, fake.applied, fake.queries)
	}
}

// TestFrameBuffersDoNotAlias: a decoded message owns its strings and
// numbers; the next frame through the connection's reused buffer does
// not change them. Several goroutines share the client, so the race
// detector sees the buffer handed between calls.
func TestFrameBuffersDoNotAlias(t *testing.T) {
	fake := &fakeService{}
	_, cl := startServer(t, fake)

	const rows = 3000 // a few hundred KB per response: under keepFrame, so the buffer is reused
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			first, err := cl.TopK(QueryRequest{K: rows, Algo: fmt.Sprintf("first%d", g)})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := cl.TopK(QueryRequest{K: rows + 1, Algo: fmt.Sprintf("second%d", g)}); err != nil {
				t.Error(err)
				return
			}
			for i, r := range first.Results {
				if r.Left.RowKey != fmt.Sprintf("first%d-l%d", g, i) || r.Right.RowKey != fmt.Sprintf("first%d-r%d", g, i) || r.Score != float64(rows-i) {
					t.Errorf("goroutine %d row %d changed after the next response: %+v", g, i, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cl.mu.Lock()
	kept := cap(cl.buf.b)
	cl.mu.Unlock()
	if kept < 100<<10 {
		t.Fatalf("client kept a %d-byte buffer: the test did not exercise reuse", kept)
	}

	// A frame over keepFrame is not kept for the connection's life.
	if _, err := cl.TopK(QueryRequest{K: 20000, Algo: "big"}); err != nil {
		t.Fatal(err)
	}
	cl.mu.Lock()
	kept = cap(cl.buf.b)
	cl.mu.Unlock()
	if kept > keepFrame {
		t.Fatalf("client kept a %d-byte buffer after a large frame, cap %d", kept, keepFrame)
	}

	// Server side: two large requests on one connection; the first, as
	// the service received it, survives the second's arrival.
	relations := func(prefix string) []string {
		out := make([]string, 5000)
		for i := range out {
			out[i] = fmt.Sprintf("%s-rel-%d", prefix, i)
		}
		return out
	}
	fake.mu.Lock()
	fake.queries = nil
	fake.mu.Unlock()
	for _, prefix := range []string{"first", "second"} {
		if _, err := cl.TopK(QueryRequest{Tree: TreeData{Relations: relations(prefix)}, K: 1, PageToken: prefix + "-token"}); err != nil {
			t.Fatal(err)
		}
	}
	fake.mu.Lock()
	got := fake.queries[0]
	fake.mu.Unlock()
	if !slices.Equal(got.Tree.Relations, relations("first")) || got.PageToken != "first-token" {
		t.Fatal("the first request changed after the second arrived")
	}
}

// fuzzService answers like fakeService but caps the rows a TopK
// request can ask the fake to make up, so arbitrary bodies stay cheap to
// serve.
type fuzzService struct{ fakeService }

func (f *fuzzService) TopK(req QueryRequest) (*ResultData, error) {
	req.K = min(max(req.K, 0), 10)
	return f.fakeService.TopK(req)
}

// FuzzFrame: arbitrary bytes fed to the frame reader and to a server
// connection never panic, never hang and never allocate past what
// arrived; any frame the writer produces reads back to the same code,
// seq and body.
func FuzzFrame(f *testing.F) {
	seeds := []struct {
		code byte
		v    any
	}{
		{methodHealth, nil},
		{methodDefineRelation, defineRequest{Name: "r1"}},
		{methodEnsureIndexes, EnsureRequest{Tree: TreeData{Relations: []string{"a", "b"}}, Algos: []string{"isl"}}},
		{methodApply, WriteOp{Relation: "r1", Kind: OpInsert, New: &core.Tuple{RowKey: "k"}, TS: 1}},
		{methodGetTuple, getRequest{Relation: "r1", RowKey: "k"}},
		{methodTopK, QueryRequest{Left: "a", Right: "b", K: 3, Algo: "isl"}},
		{methodMerkleTree, TreeRequest{Table: "t"}},
		{methodFetchRange, RangeRequest{Table: "t", Indexes: []int{1}}},
		{methodRepair, RepairRequest{Table: "t"}},
		{0xEE, nil},
		{methodTopK, page(3)}, // a binary TopK reply where a request belongs
	}
	fb := newFrameBuf()
	var two []byte // the first two frames back to back
	for i, s := range seeds {
		if err := fb.encode(uint64(i+1), s.code, s.v); err != nil {
			f.Fatal(err)
		}
		f.Add(slices.Clone(fb.b), uint64(i+1), s.code)
		if i < 2 {
			two = append(two, fb.b...)
		}
	}
	f.Add(two, uint64(0), statusOK)
	f.Add(v0Frame(`{"seq":1,"method":"Health"}`), uint64(1), statusError)
	f.Add(header(1, methodHealth, 0xffffffff), ^uint64(0), byte(0xff))
	f.Add(header(1, methodTopK, 100)[:9], uint64(7), methodTopK)

	f.Fuzz(func(t *testing.T, data []byte, seq uint64, code byte) {
		// The reader on arbitrary bytes.
		rb := newFrameBuf()
		r := bytes.NewReader(data)
		for {
			_, _, body, err := rb.read(r)
			if bound := headerLen + 2*len(data) + 2*firstChunk; cap(rb.b) > bound {
				t.Fatalf("reader holds %d bytes after %d arrived", cap(rb.b), len(data))
			}
			if err != nil {
				break
			}
			if len(body) > maxFrame {
				t.Fatalf("accepted a %d-byte body", len(body))
			}
		}

		// Writer to reader: the same code, seq and body.
		wb := newFrameBuf()
		if err := wb.encode(seq, code, data); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(wb.b[headerLen:])
		gotSeq, gotCode, body, err := newFrameBuf().read(bytes.NewReader(wb.b))
		if err != nil || gotSeq != seq || gotCode != code || !bytes.Equal(body, want) {
			t.Fatalf("round trip: seq %d code %d body %q err %v; wrote seq %d code %d body %q", gotSeq, gotCode, body, err, seq, code, want)
		}
		var back []byte
		if err := json.Unmarshal(body, &back); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("round trip decoded %q (err %v), want %q", back, err, data)
		}

		// A server connection fed the bytes, then end of input: every
		// reply is a well-formed frame and the server lets go.
		conn := &scriptConn{in: bytes.NewReader(data)}
		srv := &Server{svc: &fuzzService{}, conns: map[net.Conn]bool{}}
		srv.wg.Add(1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.serveConn(conn)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("server still holds the connection after the input ended")
		}
		replies := newFrameBuf()
		for {
			_, status, _, err := replies.read(&conn.out)
			if err != nil {
				break
			}
			if status != statusOK && status != statusError {
				t.Fatalf("reply status 0x%02x", status)
			}
		}
	})
}

// scriptConn is a server connection that reads a fixed script, then
// end of input, and records what the server writes back.
type scriptConn struct {
	net.Conn // the methods serveConn does not call
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) Close() error                { return nil }

// BenchmarkClientTopK is one TopK round trip over loopback TCP: a
// request out, a 100-row ResultData back, encoded and decoded on both
// sides (client and server run in this process, so B/op and allocs/op
// count both).
func BenchmarkClientTopK(b *testing.B) {
	_, cl := startServer(b, &fakeService{})
	req := QueryRequest{
		Tree:  TreeData{Relations: []string{"part", "lineitem_pk"}, Edges: []core.TreeEdge{{A: 0, B: 1, Kind: "equi"}}},
		Score: "sum", K: 100, Algo: "isl", ISLBatch: 600, Parallelism: 4,
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := cl.TopK(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Results) != 100 {
			b.Fatalf("TopK = %d rows, want 100", len(res.Results))
		}
	}
}
