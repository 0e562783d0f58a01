package protocol

import (
	"bufio"
)

// MaxKeptFrame bounds the payload buffer a FrameReader keeps across
// reads: a connection that once saw a near-MaxFrame frame should not
// hold 16 MB for the rest of its life. A writer that wants the reader to
// keep its buffer sends frames of at most this length (RequestLen).
// maxKeepFields bounds the field header slice the same way (1,024
// headers are 24 KiB).
const (
	MaxKeptFrame  = 256 << 10
	maxKeepFields = 1024
)

// FrameReader reads frames into a reused payload buffer and a reused
// field header slice, handing out requests and replies whose fields
// alias them. It is the zero-copy path for both ends of a connection:
// the server's dispatch loop, which converts every argument it keeps
// (strings, journal lines) before reading the next frame, and the
// clients' reply loops, which turn each tuple into strings
// (Reply.AppendStrings) before reading the next.
//
// The contract: a Request or Reply returned by ReadRequest or ReadReply
// (the struct itself and every field's backing bytes) is valid only
// until the next read on the same FrameReader. Code that retains raw
// field bytes across reads must use the copying protocol.ReadRequest or
// protocol.ReadReply instead.
type FrameReader struct {
	r      *bufio.Reader
	buf    []byte
	fields [][]byte
	req    Request
	rep    Reply
}

// NewFrameReader wraps r for reuse-buffer reads.
func NewFrameReader(r *bufio.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// read reads one frame into the reader's buffers, keeping them for the
// next read unless the frame outgrew the keep bounds.
func (fr *FrameReader) read(headLen int) ([]byte, [][]byte, error) {
	buf, fields, err := readFrameInto(fr.r, headLen, fr.buf, fr.fields)
	if cap(buf) <= MaxKeptFrame && cap(fields) <= maxKeepFields {
		fr.buf, fr.fields = buf, fields
	} else {
		fr.buf, fr.fields = nil, nil
	}
	return buf, fields, err
}

// ReadRequest reads one request frame. The returned request aliases the
// reader's buffers; see the type comment for the lifetime rule.
func (fr *FrameReader) ReadRequest() (*Request, error) {
	buf, fields, err := fr.read(4)
	if err != nil {
		return nil, err
	}
	fr.req, err = parseRequest(buf[:4], fields)
	if err != nil {
		return nil, err
	}
	return &fr.req, nil
}

// ReadReply reads one reply frame. The returned reply aliases the
// reader's buffers; see the type comment for the lifetime rule.
func (fr *FrameReader) ReadReply() (*Reply, error) {
	buf, fields, err := fr.read(8)
	if err != nil {
		return nil, err
	}
	fr.rep = parseReply(buf[:8], fields)
	return &fr.rep, nil
}
