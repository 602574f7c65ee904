package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Server serves a RegionService over TCP: one goroutine per connection,
// requests on a connection handled sequentially (the router opens one
// connection per node and serializes calls on it, so per-connection
// pipelining buys nothing here).
type Server struct {
	svc RegionService
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]bool // guarded by: mu
	closed bool              // guarded by: mu
	wg     sync.WaitGroup
}

// Serve starts serving svc on the listener. It returns immediately; use
// Close to stop. The caller owns the service's lifetime.
func Serve(ln net.Listener, svc RegionService) *Server {
	s := &Server{svc: svc, ln: ln, conns: map[net.Conn]bool{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (for :0 test listeners).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, drops open connections, and waits for handler
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	buf := newFrameBuf()
	for {
		seq, method, body, err := buf.read(conn)
		var te *Error
		if errors.As(err, &te) {
			refuse(conn, buf, te) // another build's frame, or a length over the limit
			return
		}
		if err != nil {
			return // disconnect or a frame cut short: drop the connection
		}
		resp, derr := dispatch(s.svc, method, body)
		if derr == nil {
			derr = buf.encode(seq, statusOK, resp)
		}
		if derr != nil {
			if err := buf.encode(seq, statusError, asWireError(derr)); err != nil {
				return
			}
		}
		if _, err := conn.Write(buf.b); err != nil {
			return
		}
		buf.release()
	}
}

// refuse answers a frame this build cannot read with one error frame in
// this build's format, so a peer of another build fails typed instead of
// seeing EOF and failing over. The connection then ends: the write side
// shuts, and what the peer sent is drained until it hangs up, so the
// close does not reset the reply away.
func refuse(conn net.Conn, buf *frameBuf, why *Error) {
	if buf.encode(0, statusError, why) != nil {
		return
	}
	if _, err := conn.Write(buf.b); err != nil {
		return
	}
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
	_, _ = io.Copy(io.Discard, conn)
}

// asWireError converts a service error into the typed wire form,
// preserving an already-typed *Error.
func asWireError(err error) *Error {
	var te *Error
	if errors.As(err, &te) {
		return te
	}
	return &Error{Kind: KindInternal, Msg: err.Error()}
}

// defineRequest is DefineRelation's request body.
type defineRequest struct {
	Name string `json:"name"`
}

// getRequest is GetTuple's request body.
type getRequest struct {
	Relation string `json:"relation"`
	RowKey   string `json:"row_key"`
}

// dispatch decodes one request body straight into the method's typed
// request and calls the service. The body aliases the connection's
// frame buffer; decoding copies out of it what the call keeps.
func dispatch(svc RegionService, method byte, body []byte) (any, error) {
	switch method {
	case methodHealth:
		return svc.Health()
	case methodDefineRelation:
		return handle(body, func(req defineRequest) (any, error) { return nil, svc.DefineRelation(req.Name) })
	case methodEnsureIndexes:
		return handle(body, func(req EnsureRequest) (any, error) { return nil, svc.EnsureIndexes(req) })
	case methodApply:
		return handle(body, func(op WriteOp) (any, error) { return nil, svc.Apply(op) })
	case methodGetTuple:
		return handle(body, func(req getRequest) (*GetResponse, error) { return svc.GetTuple(req.Relation, req.RowKey) })
	case methodTopK:
		return handle(body, svc.TopK)
	case methodMerkleTree:
		return handle(body, svc.MerkleTree)
	case methodFetchRange:
		return handle(body, svc.FetchRange)
	case methodRepair:
		return handle(body, svc.Repair)
	default:
		return nil, &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("unknown method code 0x%02x", method)}
	}
}

// handle decodes a JSON request body into Req and hands it to f. A body
// that does not decode is the caller's fault: KindBadRequest.
func handle[Req, Resp any](body []byte, f func(Req) (Resp, error)) (any, error) {
	var req Req
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, &Error{Kind: KindBadRequest, Msg: err.Error()}
	}
	return f(req)
}

// ListenAndServe binds addr and serves svc until Close.
func ListenAndServe(addr string, svc RegionService) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, svc), nil
}

// ioOrUnavailable maps raw socket errors onto the typed unavailable
// error so router failover logic sees one kind.
func ioOrUnavailable(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return Unavailable("connection closed: %v", err)
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return Unavailable("network: %v", err)
	}
	return Unavailable("%v", err)
}
