// Package protocol implements the Moira wire protocol (section 5.3): a
// remote procedure call protocol layered on top of TCP/IP. Clients
// connect to a well-known port, send requests over the stream, and
// receive replies.
//
// Each request consists of a protocol version, a major request number,
// and several counted strings of bytes. Each reply consists of the
// version, a single number (an error code), and zero or more counted
// strings — the server streams one reply frame per result tuple with the
// code MR_MORE_DATA, then a final frame carrying the overall code. The
// version field in both directions allows clean handling of version
// skew: there is one frame layout, every peer stamps Version, and a
// listener answers a request stamped anything else with
// MR_VERSION_MISMATCH on a connection that keeps serving.
package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"moira/internal/mrerr"
)

// Version is the one protocol version this implementation speaks and
// accepts. A request carries three header fields as counted strings in
// front of its arguments — the tag (2 bytes, big-endian), the trace ID
// and the minimum-position token, the last two possibly empty — and a
// reply carries the tag in its head; a final reply may carry fields (the
// commit position token on a successful mutation, the current primary's
// address on MR_READONLY / MR_STALE refusals).
const Version uint16 = 5

// Port is the well-known Moira server port ("T.B.S." in the paper; this
// implementation settles it).
const Port = 7760

// Major request numbers.
const (
	OpNoop       uint16 = 1 // do nothing; for RPC testing and profiling
	OpAuth       uint16 = 2 // one argument: a Kerberos authenticator blob
	OpQuery      uint16 = 3 // args: query name, then query arguments
	OpAccess     uint16 = 4 // like Query but only checks permission
	OpTriggerDCM uint16 = 5 // no arguments; spawn a DCM
	OpShutdown   uint16 = 6 // no arguments; ask the server to exit
	OpReplicate  uint16 = 7 // args: last applied journal (segment, record index)
	OpBatch      uint16 = 8 // N mutations in one frame; see EncodeBatch
	OpElection   uint16 = 9 // cluster election RPCs (info, claim, ack)
)

// OpName names an opcode for logging.
func OpName(op uint16) string {
	switch op {
	case OpNoop:
		return "noop"
	case OpAuth:
		return "auth"
	case OpQuery:
		return "query"
	case OpAccess:
		return "access"
	case OpTriggerDCM:
		return "trigger_dcm"
	case OpShutdown:
		return "shutdown"
	case OpReplicate:
		return "replicate"
	case OpBatch:
		return "batch"
	case OpElection:
		return "election"
	default:
		return fmt.Sprintf("op%d", op)
	}
}

// Limits protecting the server from malformed or malicious frames.
const (
	MaxFrame  = 16 << 20 // one frame may not exceed 16 MB
	MaxFields = 4096     // counted strings per frame
)

// Request is one client-to-server message.
//
// Tag identifies the request within its connection so replies to
// pipelined requests can be matched back to their calls; the server
// echoes it verbatim on every reply frame of the request, including
// streamed MR_MORE_DATA tuples. Tag 0 is what a synchronous
// one-at-a-time caller uses; pipelined callers assign 1..65535.
//
// TraceID may be empty. A span-aware caller extends the field to
// "traceID/spanID" (see package trace): span-aware callees split it,
// use the bare trace ID everywhere a trace ID goes (journal lines,
// logs, rings), and parent their spans on the caller's span ID.
//
// MinPos is the caller's read-your-writes floor: a position token
// (Pos.String) from an earlier commit. A replica that has not applied
// up to it answers MR_STALE instead of serving stale data. Empty means
// no floor.
//
// A request read off the wire with Version != protocol.Version has only
// Version and Op decoded: its header fields stay in Args, raw, for the
// listener to refuse with MR_VERSION_MISMATCH.
type Request struct {
	Version uint16
	Op      uint16
	Tag     uint16
	TraceID string
	MinPos  string
	Args    [][]byte
}

// StringArgs converts the request arguments to strings.
func (r *Request) StringArgs() []string {
	out := make([]string, len(r.Args))
	for i, a := range r.Args {
		out[i] = string(a)
	}
	return out
}

// Reply is one server-to-client message. A streamed tuple carries Code
// MR_MORE_DATA and the tuple fields; the final frame carries the overall
// result code and at most the one field described at Version. Tag echoes
// the tag of the request this reply answers.
type Reply struct {
	Version uint16
	Tag     uint16
	Code    int32
	Fields  [][]byte
}

// StringFields converts the reply fields to strings.
func (r *Reply) StringFields() []string {
	out := make([]string, len(r.Fields))
	for i, f := range r.Fields {
		out[i] = string(f)
	}
	return out
}

// frame layout: u32 payloadLen | u16 version | u16 opOrTag | i32 code
// (replies only) | u32 nFields | (u32 len | bytes)*
//
// Requests and replies share the counted-string tail; requests carry the
// opcode where replies carry the tag plus the code field.

// writeBufs recycles frame encode buffers across calls; oversized ones
// (beyond maxPooledBuf) are dropped on return so one huge frame does not
// pin its buffer in the pool forever.
var writeBufs = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

const maxPooledBuf = 1 << 20

func writeFrame(w io.Writer, head []byte, fields [][]byte) error {
	total := len(head) + 4
	for _, f := range fields {
		total += 4 + len(f)
	}
	if total > MaxFrame {
		return mrerr.MrArgTooLong
	}
	bp := writeBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = binary.BigEndian.AppendUint32(buf, uint32(total))
	buf = append(buf, head...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(fields)))
	for _, f := range fields {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		writeBufs.Put(bp)
	}
	return err
}

// readFrameInto parses one frame into buf (grown as needed), returning
// head and fields that alias the buffer. The caller owns the lifetime
// tradeoff: FrameReader reuses the buffer across reads (zero-copy, one
// frame live at a time), while ReadRequest/ReadReply copy every field
// out so a retained field never pins the rest of the frame.
func readFrameInto(r io.Reader, headLen int, buf []byte) (head []byte, fields [][]byte, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, nil, buf, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total > MaxFrame || int(total) < headLen+4 {
		return nil, nil, buf, fmt.Errorf("protocol: bad frame length %d", total)
	}
	if uint32(cap(buf)) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, nil, buf, err
	}
	head = buf[:headLen]
	rest := buf[headLen:]
	n := binary.BigEndian.Uint32(rest[:4])
	if n > MaxFields {
		return nil, nil, buf, fmt.Errorf("protocol: too many fields (%d)", n)
	}
	rest = rest[4:]
	fields = make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(rest) < 4 {
			return nil, nil, buf, fmt.Errorf("protocol: truncated field header")
		}
		fl := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint32(len(rest)) < fl {
			return nil, nil, buf, fmt.Errorf("protocol: truncated field body")
		}
		fields = append(fields, rest[:fl:fl])
		rest = rest[fl:]
	}
	if len(rest) != 0 {
		return nil, nil, buf, fmt.Errorf("protocol: %d trailing bytes in frame", len(rest))
	}
	return head, fields, buf, nil
}

func readFrame(r io.Reader, headLen int) (head []byte, fields [][]byte, err error) {
	head, fields, _, err = readFrameInto(r, headLen, nil)
	if err != nil {
		return nil, nil, err
	}
	// Copy every field into its own allocation: the parsed fields alias
	// the whole frame payload, and handing those aliases out means a
	// caller that keeps one small field (a journal line, a trace ID)
	// silently pins up to MaxFrame bytes for as long as it lives.
	hc := append([]byte(nil), head...)
	for i, f := range fields {
		fields[i] = append([]byte(nil), f...)
	}
	return hc, fields, nil
}

// WriteRequest sends one request frame: the tag, trace ID and
// minimum-position header fields, then the arguments.
func WriteRequest(w io.Writer, req *Request) error {
	var head [4]byte
	binary.BigEndian.PutUint16(head[0:2], req.Version)
	binary.BigEndian.PutUint16(head[2:4], req.Op)
	var tag [2]byte
	binary.BigEndian.PutUint16(tag[:], req.Tag)
	args := make([][]byte, 0, len(req.Args)+3)
	args = append(args, tag[:], []byte(req.TraceID), []byte(req.MinPos))
	args = append(args, req.Args...)
	return writeFrame(w, head[:], args)
}

// parseRequest interprets a parsed frame as a request, splitting off the
// three header fields. A frame stamped another version keeps its fields
// raw (see Request); a frame stamped Version without a well-formed
// header is a framing error.
func parseRequest(head []byte, fields [][]byte) (*Request, error) {
	req := &Request{
		Version: binary.BigEndian.Uint16(head[0:2]),
		Op:      binary.BigEndian.Uint16(head[2:4]),
		Args:    fields,
	}
	if req.Version != Version {
		return req, nil
	}
	if len(fields) < 3 || len(fields[0]) != 2 {
		return nil, fmt.Errorf("protocol: request without its tag, trace and position fields")
	}
	req.Tag = binary.BigEndian.Uint16(fields[0])
	req.TraceID = string(fields[1])
	req.MinPos = string(fields[2])
	req.Args = fields[3:]
	return req, nil
}

// ReadRequest reads one request frame. Every argument is its own
// allocation; retaining one does not retain the frame. Hot loops that
// never keep arguments past the next read should use FrameReader
// instead.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	head, fields, err := readFrame(r, 4)
	if err != nil {
		return nil, err
	}
	return parseRequest(head, fields)
}

// WriteReply sends one reply frame.
func WriteReply(w io.Writer, rep *Reply) error {
	var head [8]byte
	binary.BigEndian.PutUint16(head[0:2], rep.Version)
	binary.BigEndian.PutUint16(head[2:4], rep.Tag)
	binary.BigEndian.PutUint32(head[4:8], uint32(rep.Code))
	return writeFrame(w, head[:], rep.Fields)
}

func parseReply(head []byte, fields [][]byte) *Reply {
	return &Reply{
		Version: binary.BigEndian.Uint16(head[0:2]),
		Tag:     binary.BigEndian.Uint16(head[2:4]),
		Code:    int32(binary.BigEndian.Uint32(head[4:8])),
		Fields:  fields,
	}
}

// ReadReply reads one reply frame. Every field is its own allocation;
// retaining one does not retain the frame.
func ReadReply(r *bufio.Reader) (*Reply, error) {
	head, fields, err := readFrame(r, 8)
	if err != nil {
		return nil, err
	}
	return parseReply(head, fields), nil
}

// BytesArgs converts string arguments for a Request.
func BytesArgs(args []string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}
