package update

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"net"
	"sync"
	"time"

	"moira/internal/clock"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// Sum is a file's SHA-256: the checksum a transfer is checked against,
// and a bundle's install ID.
type Sum [sha256.Size]byte

// String is the sum in hex, the form the wire and install IDs carry.
func (s Sum) String() string { return hex.EncodeToString(s[:]) }

// emptySum is the sum of the empty file: the base of a whole push.
var emptySum = Sum(sha256.Sum256(nil))

// Splice replaces Len bytes at Off of a base file by Data.
type Splice struct {
	Off, Len int
	Data     []byte
}

// Bundle is a data file ready to push: its bytes and sum, and the edits
// that make it from the bundle whose sum is Base, in order of Off. It is
// built once however many hosts (and retries) it goes to. Members names
// a tar bundle's members in tar order, for the install scripts; nil
// when the builder did not record them.
type Bundle struct {
	Data    []byte
	Sum     Sum
	Base    Sum
	Edits   []Splice
	Members []string
}

// NewBundle is a bundle of data whose base is the empty file: it goes
// whole to every host.
func NewBundle(data []byte) *Bundle {
	b := &Bundle{Data: data, Sum: sha256.Sum256(data), Base: emptySum}
	if len(data) > 0 {
		b.Edits = []Splice{{Data: data}}
	}
	return b
}

// Push is the DCM side of the update protocol: one complete update of a
// single host.
type Push struct {
	// Addr is the host's update agent address.
	Addr string
	// Target is where on the host to deposit the data file (the target
	// field of the service record).
	Target string
	// Bundle is the data file (usually a tar bundle) with its edits.
	Bundle *Bundle
	// Held is the sum of the file the host last installed at Target, as
	// far as the pusher knows (zero: unknown). The push ships no edits
	// when it is Bundle.Sum, Bundle's edits when it is Bundle.Base, and
	// else the whole bundle, as an edit of the empty file.
	Held Sum
	// Script is the installation instruction sequence (the script field
	// of the service record, resolved to its lines).
	Script []string
	// Creds authenticate the DCM to the agent; nil only for tests
	// against a verifier-less agent.
	Creds *kerberos.Credentials
	// Clock drives the authenticator timestamp; nil = system clock.
	Clock clock.Clock
	// Timeout bounds the whole update; "if any single operation takes
	// longer than a reasonable amount of time, the connection is closed,
	// and the installation assumed to have failed."
	Timeout time.Duration
	// Trace is the trace ID of the request that triggered this update
	// ("" for scheduled passes); stamped on every protocol request so
	// the agent can record it against the install.
	Trace string

	// Filled in by Run: whether the bundle went whole, whether the agent
	// acknowledged the assemble (Target then holds Bundle, whatever
	// failed after), the edit bytes that traveled, and the bundle bytes
	// the agent kept from the file it held.
	Whole       bool
	Assembled   bool
	SentBytes   int
	ReusedBytes int
}

// pushConn is what a push reads and writes its connection through,
// pooled across pushes (pushes to different hosts run at once): the
// buffers, the reply frame reader, and the edit frames' argument and
// offset buffers.
type pushConn struct {
	br   *bufio.Reader
	bw   *bufio.Writer
	fr   *protocol.FrameReader
	args [][]byte
	nums []byte
}

var pushConns = sync.Pool{New: func() any {
	c := &pushConn{br: bufio.NewReader(nil), bw: bufio.NewWriter(nil)}
	c.fr = protocol.NewFrameReader(c.br)
	return c
}}

// Edit frames: an edit is three arguments, its offset and length as
// 8-byte big-endian integers and its data, at most maxEditArgs a frame,
// so the agent's FrameReader keeps its field slice. An edit's data is
// split at a frame's end only when the frame has minPiece bytes of room
// left.
const (
	maxEditArgs = 3 * 300
	minPiece    = 16 << 10
)

// Run performs the update: transfer phase (auth, the data file as edits
// of what the host holds, script), then execution phase, then
// confirmation. The error is nil on success, or a code the DCM
// classifies as soft (UpdUnreachable, UpdTimeout — retry later), base
// mismatch (the host does not hold Held: push whole), or hard
// (everything else).
func (p *Push) Run() error {
	p.Whole, p.Assembled, p.SentBytes, p.ReusedBytes = false, false, 0, 0
	timeout := p.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", p.Addr, timeout)
	if err != nil {
		return mrerr.UpdUnreachable
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))

	c := pushConns.Get().(*pushConn)
	c.br.Reset(conn)
	c.bw.Reset(conn)
	defer func() {
		c.br.Reset(nil)
		c.bw.Reset(nil)
		pushConns.Put(c)
	}()

	// reply sends the request a write left in the buffer (err is the
	// write's) and reads the agent's answer.
	reply := func(err error) error {
		if err != nil {
			return ioErr(err)
		}
		if err := c.bw.Flush(); err != nil {
			return ioErr(err)
		}
		rep, err := c.fr.ReadReply()
		if err != nil {
			return ioErr(err)
		}
		return mrerr.Code(rep.Code).OrNil()
	}
	call := func(op uint16, args [][]byte) error {
		return reply(protocol.WriteRequest(c.bw, &protocol.Request{Version: protocol.Version, Op: op, TraceID: p.Trace, Args: args}))
	}

	// A. Transfer phase.
	if p.Creds != nil {
		payload := kerberos.BuildAuth(p.Creds, "dcm", p.Clock)
		if err := call(OpUAuth, [][]byte{payload.Marshal()}); err != nil {
			return err
		}
	}
	if err := p.transfer(call, c); err != nil {
		return err
	}
	// The script's lines go as they are, without a copy each.
	if err := reply(protocol.WriteCall(c.bw, &protocol.Call{Op: OpUScript, TraceID: p.Trace, Args: p.Script})); err != nil {
		return err
	}

	// B. Execution phase + C. confirmation.
	return call(OpUExecute, nil)
}

// transfer runs the begin/edits/assemble exchange: the base's and the
// bundle's sums, then the edits, in frames the agent's FrameReader keeps
// its buffer for (an edit's data is split across frames when it would
// take one past protocol.MaxKeptFrame), then the assemble.
func (p *Push) transfer(call func(uint16, [][]byte) error, c *pushConn) error {
	b := p.Bundle
	base, edits := b.Base, b.Edits
	var whole [1]Splice
	switch {
	case p.Held == b.Sum:
		base, edits = b.Sum, nil
	case p.Held == b.Base && p.Held != Sum{}:
	default:
		p.Whole = true
		base, edits = emptySum, nil
		if len(b.Data) > 0 {
			whole[0].Data = b.Data
			edits = whole[:]
		}
	}
	var sums [2 * 2 * sha256.Size]byte
	hex.Encode(sums[:], base[:])
	hex.Encode(sums[2*sha256.Size:], b.Sum[:])
	if err := call(OpUBegin, [][]byte{[]byte(p.Target), sums[:2*sha256.Size], sums[2*sha256.Size:]}); err != nil {
		return err
	}

	empty := protocol.RequestLen(&protocol.Request{TraceID: p.Trace})
	sent, size := 0, empty
	args, nums := c.args[:0], c.nums[:0]
	defer func() {
		clear(args)
		c.args, c.nums = args[:0], nums[:0]
	}()
	flush := func() error {
		if len(args) == 0 {
			return nil
		}
		err := call(OpUEdits, args)
		clear(args)
		args, nums, size = args[:0], nums[:0], empty
		return err
	}
	head := 3*protocol.ArgLen(8) - 8 // an edit's arguments less its data
	for _, e := range edits {
		off, n, data := e.Off, e.Len, e.Data
		for first := true; first || len(data) > 0; first = false {
			room := protocol.MaxKeptFrame - size - head
			if len(args) > 0 && (room < len(data) && room < minPiece || len(args)+3 > maxEditArgs) {
				if err := flush(); err != nil {
					return err
				}
				room = protocol.MaxKeptFrame - size - head
			}
			k := min(len(data), room)
			lo := len(nums)
			nums = binary.BigEndian.AppendUint64(nums, uint64(off))
			nums = binary.BigEndian.AppendUint64(nums, uint64(n))
			args = append(args, nums[lo:lo+8:lo+8], nums[lo+8:lo+16:lo+16], data[:k])
			size += head + k
			sent += k
			off, n, data = off+n, 0, data[k:]
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := call(OpUAssemble, nil); err != nil {
		return err
	}
	p.Assembled = true
	p.SentBytes = sent
	p.ReusedBytes = len(b.Data) - sent
	return nil
}

// ioErr classifies a transport failure: deadline exceeded is a timeout,
// anything else (connection reset by a crashed agent) is unreachable.
// Both are soft errors to the DCM.
func ioErr(err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return mrerr.UpdTimeout
	}
	return mrerr.UpdUnreachable
}

// IsSoftError reports whether an update error should be retried later
// rather than recorded as a hard failure (section 5.9 trouble recovery:
// crashes and network loss are retried; script failures are hard).
func IsSoftError(err error) bool {
	return err == mrerr.UpdUnreachable || err == mrerr.UpdTimeout || err == mrerr.UpdBusy
}
