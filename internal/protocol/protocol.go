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
	"slices"
	"strings"
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

// StringFields converts the reply fields to a new slice of strings (see
// AppendStrings).
func (r *Reply) StringFields() []string {
	return r.AppendStrings(make([]string, 0, len(r.Fields)))
}

// AppendStrings appends the reply fields to dst as strings and returns
// the extended slice. Every field is a substring of one string holding
// all of them: a reply costs one allocation however many fields it
// has, and a kept field pins only this reply's bytes, never the frame
// buffer it was read from.
func (r *Reply) AppendStrings(dst []string) []string {
	n := 0
	for _, f := range r.Fields {
		n += len(f)
	}
	var b strings.Builder
	b.Grow(n)
	for _, f := range r.Fields {
		b.Write(f)
	}
	s := b.String()
	for _, f := range r.Fields {
		dst = append(dst, s[:len(f)])
		s = s[len(f):]
	}
	return dst
}

// Call is a request as a client builds it: string arguments, with the
// handle name kept apart from them so the two are never joined into a
// new list. WriteCall encodes it straight into the frame.
type Call struct {
	Op      uint16
	Tag     uint16
	TraceID string
	MinPos  string
	// Name is the handle an OpQuery or OpAccess names. It goes on the
	// wire as the first argument, ahead of Args; other ops send no name.
	Name string
	Args []string
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

// writeFrame encodes one frame into a pooled buffer and writes it with
// one call: head, then the counted fields, lead (a request's header
// fields and handle name; nil for a reply) followed by fields. It is
// generic over the field type so string fields (the clients' arguments)
// are copied once, into the frame, with no [][]byte conversion in
// front.
func writeFrame[F []byte | string](w io.Writer, head []byte, lead []string, fields []F) error {
	size := 0
	for _, f := range lead {
		size += len(f)
	}
	for _, f := range fields {
		size += len(f)
	}
	bp, buf, err := beginFrame(head, len(lead)+len(fields), size)
	if err != nil {
		return err
	}
	buf = appendFields(buf, lead)
	buf = appendFields(buf, fields)
	return endFrame(w, bp, buf)
}

// beginFrame takes a pooled buffer for a frame of n fields holding size
// bytes between them and writes its length, head and field count. A
// frame the reader would refuse (over MaxFrame bytes or MaxFields
// fields) is refused here with MR_ARG_TOO_LONG before a byte is
// written, so the connection stays usable.
func beginFrame(head []byte, n, size int) (*[]byte, []byte, error) {
	if n > MaxFields {
		return nil, nil, mrerr.MrArgTooLong
	}
	total := len(head) + 4 + 4*n + size
	if total > MaxFrame {
		return nil, nil, mrerr.MrArgTooLong
	}
	bp := writeBufs.Get().(*[]byte)
	buf := slices.Grow((*bp)[:0], 4+total)
	buf = binary.BigEndian.AppendUint32(buf, uint32(total))
	buf = append(buf, head...)
	return bp, binary.BigEndian.AppendUint32(buf, uint32(n)), nil
}

// endFrame writes the frame beginFrame started with one call and
// returns its buffer to the pool.
func endFrame(w io.Writer, bp *[]byte, buf []byte) error {
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		writeBufs.Put(bp)
	}
	return err
}

func appendFields[F []byte | string](buf []byte, fields []F) []byte {
	for _, f := range fields {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	return buf
}

// readFrameInto parses one frame into buf and fields, each grown as
// needed and returned for reuse even on error: the head is buf[:headLen]
// and every field aliases buf. The caller owns the lifetime tradeoff:
// FrameReader reuses both across reads (one frame live at a time),
// while ReadRequest/ReadReply copy every field out so a retained field
// never pins the rest of the frame.
func readFrameInto(r *bufio.Reader, headLen int, buf []byte, fields [][]byte) ([]byte, [][]byte, error) {
	fields = fields[:0]
	// Peek, not io.ReadFull into a local array, which would escape
	// through the io.Reader and cost an allocation per frame.
	lenBuf, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(lenBuf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return buf, fields, err
	}
	total := binary.BigEndian.Uint32(lenBuf)
	r.Discard(4)
	if total > MaxFrame || int(total) < headLen+4 {
		return buf, fields, fmt.Errorf("protocol: bad frame length %d", total)
	}
	if uint32(cap(buf)) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, fields, err
	}
	rest := buf[headLen:]
	n := binary.BigEndian.Uint32(rest[:4])
	if n > MaxFields {
		return buf, fields, fmt.Errorf("protocol: too many fields (%d)", n)
	}
	rest = rest[4:]
	fields = slices.Grow(fields, int(n))
	for i := uint32(0); i < n; i++ {
		if len(rest) < 4 {
			return buf, fields, fmt.Errorf("protocol: truncated field header")
		}
		fl := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint32(len(rest)) < fl {
			return buf, fields, fmt.Errorf("protocol: truncated field body")
		}
		fields = append(fields, rest[:fl:fl])
		rest = rest[fl:]
	}
	if len(rest) != 0 {
		return buf, fields, fmt.Errorf("protocol: %d trailing bytes in frame", len(rest))
	}
	return buf, fields, nil
}

// readFrame reads one frame and copies every field into its own
// allocation: the parsed fields alias the whole frame payload, and
// handing those aliases out means a caller that keeps one small field (a
// journal line, a trace ID) silently pins up to MaxFrame bytes for as
// long as it lives. The head still aliases the payload; callers only
// decode it.
func readFrame(r *bufio.Reader, headLen int) (head []byte, fields [][]byte, err error) {
	buf, fields, err := readFrameInto(r, headLen, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	for i, f := range fields {
		fields[i] = append([]byte(nil), f...)
	}
	return buf[:headLen], fields, nil
}

func requestHead(version, op uint16) [4]byte {
	var head [4]byte
	binary.BigEndian.PutUint16(head[0:2], version)
	binary.BigEndian.PutUint16(head[2:4], op)
	return head
}

// WriteRequest sends one request frame: the tag, trace ID and
// minimum-position header fields, then the arguments.
func WriteRequest(w io.Writer, req *Request) error {
	head := requestHead(req.Version, req.Op)
	var tag [2]byte
	binary.BigEndian.PutUint16(tag[:], req.Tag)
	lead := [3]string{string(tag[:]), req.TraceID, req.MinPos}
	return writeFrame(w, head[:], lead[:], req.Args)
}

// RequestLen is the length of the frame WriteRequest sends for req, less
// its length word: what a reader buffers to read it.
func RequestLen(req *Request) int {
	n := 4 + 4 + ArgLen(2) + ArgLen(len(req.TraceID)) + ArgLen(len(req.MinPos)) // head, field count, tag
	for _, a := range req.Args {
		n += ArgLen(len(a))
	}
	return n
}

// ArgLen is what a field of n bytes adds to a frame: its bytes and their
// count.
func ArgLen(n int) int { return 4 + n }

// WriteCall sends c as one request frame at Version. The bytes are
// those WriteRequest sends for the same request with Name in front of
// Args; every string is copied once, straight into the frame.
func WriteCall(w io.Writer, c *Call) error {
	head := requestHead(Version, c.Op)
	var tag [2]byte
	binary.BigEndian.PutUint16(tag[:], c.Tag)
	lead := [4]string{string(tag[:]), c.TraceID, c.MinPos, c.Name}
	n := 3
	if c.Op == OpQuery || c.Op == OpAccess {
		n = 4
	}
	return writeFrame(w, head[:], lead[:n], c.Args)
}

// parseRequest interprets a parsed frame as a request, splitting off the
// three header fields. A frame stamped another version keeps its fields
// raw (see Request); a frame stamped Version without a well-formed
// header is a framing error.
func parseRequest(head []byte, fields [][]byte) (Request, error) {
	req := Request{
		Version: binary.BigEndian.Uint16(head[0:2]),
		Op:      binary.BigEndian.Uint16(head[2:4]),
		Args:    fields,
	}
	if req.Version != Version {
		return req, nil
	}
	if len(fields) < 3 || len(fields[0]) != 2 {
		return Request{}, fmt.Errorf("protocol: request without its tag, trace and position fields")
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
	req, err := parseRequest(head, fields)
	if err != nil {
		return nil, err
	}
	return &req, nil
}

func replyHead(version, tag uint16, code int32) [8]byte {
	var head [8]byte
	binary.BigEndian.PutUint16(head[0:2], version)
	binary.BigEndian.PutUint16(head[2:4], tag)
	binary.BigEndian.PutUint32(head[4:8], uint32(code))
	return head
}

// WriteReply sends one reply frame.
func WriteReply(w io.Writer, rep *Reply) error {
	head := replyHead(rep.Version, rep.Tag, rep.Code)
	return writeFrame(w, head[:], nil, rep.Fields)
}

// WriteReplyFields sends one reply frame at Version: the server's one
// reply writer, for every streamed tuple and final reply. Text fields
// are copied once and integers appended in decimal, straight into the
// frame; the bytes are those WriteReply sends for the rendered fields.
func WriteReplyFields(w io.Writer, tag uint16, code int32, fields []Field) error {
	head := replyHead(Version, tag, code)
	size := 0
	for _, f := range fields {
		size += f.Len()
	}
	bp, buf, err := beginFrame(head[:], len(fields), size)
	if err != nil {
		return err
	}
	for _, f := range fields {
		at := len(buf)
		buf = f.Append(append(buf, 0, 0, 0, 0))
		binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return endFrame(w, bp, buf)
}

func parseReply(head []byte, fields [][]byte) Reply {
	return Reply{
		Version: binary.BigEndian.Uint16(head[0:2]),
		Tag:     binary.BigEndian.Uint16(head[2:4]),
		Code:    int32(binary.BigEndian.Uint32(head[4:8])),
		Fields:  fields,
	}
}

// ReadReply reads one reply frame. Every field is its own allocation;
// retaining one does not retain the frame. A connection that reads many
// replies should use FrameReader.ReadReply instead.
func ReadReply(r *bufio.Reader) (*Reply, error) {
	head, fields, err := readFrame(r, 8)
	if err != nil {
		return nil, err
	}
	rep := parseReply(head, fields)
	return &rep, nil
}

// BytesArgs converts string arguments for a Request.
func BytesArgs(args []string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}
