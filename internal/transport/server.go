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
		if err != nil {
			return // disconnect, garbage or another build's frame: drop the connection
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
		var req defineRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: err.Error()}
		}
		return nil, svc.DefineRelation(req.Name)
	case methodEnsureIndexes:
		var req EnsureRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: err.Error()}
		}
		return nil, svc.EnsureIndexes(req)
	case methodApply:
		var op WriteOp
		if err := json.Unmarshal(body, &op); err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: err.Error()}
		}
		return nil, svc.Apply(op)
	case methodGetTuple:
		var req getRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: err.Error()}
		}
		return svc.GetTuple(req.Relation, req.RowKey)
	case methodTopK:
		var req QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: err.Error()}
		}
		return svc.TopK(req)
	case methodMerkleTree:
		var req TreeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: err.Error()}
		}
		return svc.MerkleTree(req)
	case methodFetchRange:
		var req RangeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: err.Error()}
		}
		return svc.FetchRange(req)
	case methodRepair:
		var req RepairRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: err.Error()}
		}
		return svc.Repair(req)
	default:
		return nil, &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("unknown method code 0x%02x", method)}
	}
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
