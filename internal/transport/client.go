package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/merkle"
)

// Client implements RegionService over one TCP connection to a region
// server. Calls are serialized on the connection; a broken connection
// is redialed once per call before reporting the node unavailable, so a
// restarted node is picked back up transparently.
type Client struct {
	addr        string
	dialTimeout time.Duration

	mu   sync.Mutex
	conn net.Conn  // guarded by: mu
	seq  uint64    // guarded by: mu
	buf  *frameBuf // guarded by: mu
}

// Dial returns a client for the region server at addr. The connection
// is established lazily on first use.
func Dial(addr string) *Client {
	return &Client{addr: addr, dialTimeout: 5 * time.Second, buf: newFrameBuf()}
}

// Close drops the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// ensureConnLocked dials if needed. Callers hold c.mu.
func (c *Client) ensureConnLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return Unavailable("dial %s: %v", c.addr, err)
	}
	c.conn = conn
	return nil
}

// call performs one request/response exchange, retrying a broken
// connection with one fresh dial. A peer that breaks the frame format
// (another build's, say) is not redialed: it would break it again.
func (c *Client) call(method byte, reqBody any, out any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.buf.release()
	for attempt := 0; ; attempt++ {
		if err := c.ensureConnLocked(); err != nil {
			return err
		}
		c.seq++
		if err := c.buf.encode(c.seq, method, reqBody); err != nil {
			return &Error{Kind: KindBadRequest, Msg: err.Error()}
		}
		_, err := c.conn.Write(c.buf.b)
		var (
			seq  uint64
			code byte
			body []byte
		)
		if err == nil {
			seq, code, body, err = c.buf.read(c.conn)
		}
		if err == nil && seq != c.seq {
			err = &Error{Kind: KindInternal, Msg: fmt.Sprintf("response seq %d, want %d", seq, c.seq)}
		}
		if err != nil {
			_ = c.conn.Close()
			c.conn = nil
			var te *Error
			if errors.As(err, &te) {
				return te
			}
			if attempt == 0 {
				continue // one redial: the server may have restarted
			}
			return ioOrUnavailable(err)
		}
		switch code {
		case statusOK:
			if out == nil || len(body) == 0 {
				return nil
			}
			if res, ok := out.(*ResultData); ok {
				return decodeResult(body, res) // TopK's binary reply (result.go)
			}
			if err := json.Unmarshal(body, out); err != nil {
				return &Error{Kind: KindInternal, Msg: "decode response: " + err.Error()}
			}
			return nil
		case statusError:
			var te Error
			if err := json.Unmarshal(body, &te); err != nil {
				return &Error{Kind: KindInternal, Msg: "decode error response: " + err.Error()}
			}
			return &te
		default:
			return &Error{Kind: KindInternal, Msg: fmt.Sprintf("unknown response status 0x%02x", code)}
		}
	}
}

// Health implements RegionService.
func (c *Client) Health() (*HealthInfo, error) {
	var out HealthInfo
	if err := c.call(methodHealth, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DefineRelation implements RegionService.
func (c *Client) DefineRelation(name string) error {
	return c.call(methodDefineRelation, defineRequest{Name: name}, nil)
}

// EnsureIndexes implements RegionService.
func (c *Client) EnsureIndexes(req EnsureRequest) error {
	return c.call(methodEnsureIndexes, req, nil)
}

// Apply implements RegionService.
func (c *Client) Apply(op WriteOp) error {
	return c.call(methodApply, op, nil)
}

// GetTuple implements RegionService.
func (c *Client) GetTuple(relation, rowKey string) (*GetResponse, error) {
	var out GetResponse
	if err := c.call(methodGetTuple, getRequest{Relation: relation, RowKey: rowKey}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TopK implements RegionService. Its reply body is binary, the only
// one that is not JSON.
func (c *Client) TopK(req QueryRequest) (*ResultData, error) {
	var out ResultData
	if err := c.call(methodTopK, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MerkleTree implements RegionService.
func (c *Client) MerkleTree(req TreeRequest) (*merkle.Tree, error) {
	var out merkle.Tree
	if err := c.call(methodMerkleTree, req, &out); err != nil {
		return nil, err
	}
	out.Seal()
	return &out, nil
}

// FetchRange implements RegionService.
func (c *Client) FetchRange(req RangeRequest) (*RangeData, error) {
	var out RangeData
	if err := c.call(methodFetchRange, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Repair implements RegionService.
func (c *Client) Repair(req RepairRequest) (*RepairStats, error) {
	var out RepairStats
	if err := c.call(methodRepair, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

var _ RegionService = (*Client)(nil)
