package transport

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Wire framing: every message is a fixed 14-byte binary header followed
// by the message's body:
//
//	[0]      frameMagic, the frame format's version byte
//	[1:9]    sequence number, big-endian; a response carries its request's
//	[9]      on a request the method code, on a response the status
//	[10:14]  body length, big-endian
//
// A methodTopK reply's body is its ResultData in binary (result.go);
// every other body, requests and error responses included, is JSON. The
// receiver decodes the body once, straight into the typed request or
// response; an error response's body is the JSON *Error.
//
// Both peers must come from the same build. Frame format v3 had this
// header under version byte 0xF3, and its TopK replies carried a
// three-field planner estimate, the other four cost slots zero. Format
// v2 had this header, version byte 0xF2, and repair bodies that carried
// a Merkle leaf count. Format v1 had this header, version byte 0xF1, and
// JSON bodies throughout. Format v0 began every frame with a 4-byte
// big-endian length, whose first byte is at most 0x04 under maxFrame,
// so no v0 frame can begin with a version byte, and a v0 reader rejects
// one as a length over its limit. A peer of another build therefore
// fails typed on its first frame, in both directions: a server answers
// a foreign frame with one error frame in this format, which the old
// reader refuses, and drops the connection. No reader for v0 to v3 is
// kept.
const (
	frameMagic   byte = 0xF4 // frame format v4
	frameVersion      = 4
	headerLen         = 14
)

// Earlier formats' version bytes, named in versionError.
const (
	frameMagicV1 byte = 0xF1
	frameMagicV2 byte = 0xF2
	frameMagicV3 byte = 0xF3
)

// maxFrame bounds one message body (64 MiB): a hostile or corrupt
// length fails fast instead of allocating unbounded memory.
const maxFrame = 64 << 20

// keepFrame caps the buffer a connection keeps between frames: a larger
// frame's buffer (a repair payload, say) is dropped once it is handled,
// so one big message does not pin its size for the connection's life.
const keepFrame = 1 << 20

// firstChunk is the most a frame reader allocates before any body byte
// has arrived; past it the buffer grows only with the bytes received.
const firstChunk = 64 << 10

// Method codes, carried in a request header's code byte.
const (
	methodHealth byte = iota + 1
	methodDefineRelation
	methodEnsureIndexes
	methodApply
	methodGetTuple
	methodTopK
	methodMerkleTree
	methodFetchRange
	methodRepair
)

// Response status codes, carried in a response header's code byte.
const (
	statusOK    byte = 0
	statusError byte = 1
)

// frameBuf is one connection's reusable frame buffer. A connection
// handles one exchange at a time, so one buffer serves both directions:
// the sender encodes a frame into it and writes b with one Write, and
// the receiver reads the next frame into it. A body read into it is
// valid only until the next encode or read; decoding copies every
// string and byte slice out of it.
type frameBuf struct {
	b   []byte
	enc *json.Encoder // writes to this frameBuf
}

func newFrameBuf() *frameBuf {
	f := &frameBuf{}
	f.enc = json.NewEncoder(f)
	return f
}

// Write appends p; it is the io.Writer the JSON encoder writes to.
func (f *frameBuf) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// encode fills the buffer with one frame: the header, then v's JSON
// (an empty body when v is nil). After an error there is no frame to
// send.
func (f *frameBuf) encode(seq uint64, code byte, v any) error {
	f.b = append(f.b[:0], make([]byte, headerLen)...)
	switch v := v.(type) {
	case nil:
	case *ResultData:
		if v != nil {
			f.b = appendResult(f.b, v)
		}
	default:
		if err := f.enc.Encode(v); err != nil {
			return err
		}
		f.b = f.b[:len(f.b)-1] // Encode ends the value with a newline
	}
	n := len(f.b) - headerLen
	if n > maxFrame {
		return fmt.Errorf("transport: frame too large (%d bytes)", n)
	}
	f.b[0] = frameMagic
	binary.BigEndian.PutUint64(f.b[1:9], seq)
	f.b[9] = code
	binary.BigEndian.PutUint32(f.b[10:14], uint32(n))
	return nil
}

// read receives one frame. The returned body aliases the buffer. A
// frame that breaks the format returns a typed *Error; a failed read
// returns the reader's error.
func (f *frameBuf) read(r io.Reader) (seq uint64, code byte, body []byte, err error) {
	f.b = slices.Grow(f.b[:0], headerLen)[:headerLen]
	// Judge the first byte before waiting for the rest of the header:
	// a v0 message can be shorter than a header, and its sender would
	// then wait for a reply while this side waits for more bytes.
	got, err := io.ReadAtLeast(r, f.b, 1)
	if err == nil && f.b[0] != frameMagic {
		return 0, 0, nil, versionError(f.b[0])
	}
	if err == nil {
		_, err = io.ReadFull(r, f.b[got:])
	}
	if err != nil {
		return 0, 0, nil, err
	}
	seq = binary.BigEndian.Uint64(f.b[1:9])
	code = f.b[9]
	n := binary.BigEndian.Uint32(f.b[10:14])
	if n > maxFrame {
		return 0, 0, nil, &Error{Kind: KindInternal, Msg: fmt.Sprintf("frame length %d exceeds limit %d", n, maxFrame)}
	}
	if body, err = f.readBody(r, int(n)); err != nil {
		return 0, 0, nil, err
	}
	return seq, code, body, nil
}

// readBody reads n body bytes into the buffer. Beyond the capacity
// already held it grows with the bytes that arrive, never straight to
// the length a header claims: a header that lies costs its sender what
// it actually sent.
func (f *frameBuf) readBody(r io.Reader, n int) ([]byte, error) {
	f.b = f.b[:0]
	for len(f.b) < n {
		if len(f.b) == cap(f.b) {
			f.b = slices.Grow(f.b, min(n-len(f.b), max(len(f.b), firstChunk)))
		}
		end := min(n, cap(f.b))
		if _, err := io.ReadFull(r, f.b[len(f.b):end]); err != nil {
			return nil, err
		}
		f.b = f.b[:end]
	}
	return f.b, nil
}

// release ends an exchange: a buffer grown past keepFrame is dropped.
func (f *frameBuf) release() {
	if cap(f.b) > keepFrame {
		f.b = nil
	}
}

// versionError refuses a frame that does not begin with frameMagic: a
// peer from another build. It is not KindUnavailable, so a router does
// not fail over and redial on a build mismatch.
func versionError(first byte) *Error {
	peer := fmt.Sprintf("an unknown frame format (first byte 0x%02x)", first)
	switch {
	case first <= maxFrame>>24: // the top byte of a v0 length
		peer = "frame format v0 (length-prefixed JSON envelope)"
	case first == frameMagicV1:
		peer = "frame format v1 (JSON result bodies)"
	case first == frameMagicV2:
		peer = "frame format v2 (Merkle leaf counts in repair bodies)"
	case first == frameMagicV3:
		peer = "frame format v3 (three-field planner estimates)"
	}
	return &Error{Kind: KindInternal, Msg: fmt.Sprintf(
		"peer speaks %s, this build speaks frame format v%d: rjserve and rjnode must come from the same build",
		peer, frameVersion)}
}
