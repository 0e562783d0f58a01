package update

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"net"
	"strconv"
	"time"

	"moira/internal/clock"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// Push is the DCM side of the update protocol: one complete update of a
// single host.
type Push struct {
	// Addr is the host's update agent address.
	Addr string
	// Target is where on the host to deposit the data file (the target
	// field of the service record).
	Target string
	// Data is the file contents (usually a tar bundle).
	Data []byte
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

	// Transfer accounting, filled in by Run: bytes that actually
	// traveled as chunk data, and bytes the agent reused from the file
	// it already held.
	SentBytes   int
	ReusedBytes int
}

// Run performs the update: transfer phase (auth, the data file as a
// content-defined chunk diff against whatever the host already holds,
// script), then execution phase, then confirmation. The error
// is nil on success, or a code the DCM classifies as soft
// (UpdUnreachable, UpdTimeout — retry later) or hard (everything else).
func (p *Push) Run() error {
	timeout := p.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", p.Addr, timeout)
	if err != nil {
		return mrerr.UpdUnreachable
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	conn.SetDeadline(deadline)

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	callR := func(op uint16, args [][]byte) (*protocol.Reply, error) {
		if err := protocol.WriteRequest(bw, &protocol.Request{Version: protocol.Version, Op: op, TraceID: p.Trace, Args: args}); err != nil {
			return nil, ioErr(err)
		}
		if err := bw.Flush(); err != nil {
			return nil, ioErr(err)
		}
		rep, err := protocol.ReadReply(br)
		if err != nil {
			return nil, ioErr(err)
		}
		return rep, mrerr.Code(rep.Code).OrNil()
	}
	call := func(op uint16, args [][]byte) error {
		_, err := callR(op, args)
		return err
	}

	// A. Transfer phase.
	if p.Creds != nil {
		payload := kerberos.BuildAuth(p.Creds, "dcm", p.Clock)
		if err := call(OpUAuth, [][]byte{payload.Marshal()}); err != nil {
			return err
		}
	}
	if err := p.transfer(callR); err != nil {
		return err
	}
	if err := call(OpUScript, protocol.BytesArgs(p.Script)); err != nil {
		return err
	}

	// B. Execution phase + C. confirmation.
	return call(OpUExecute, nil)
}

// chunkBatchBytes bounds how much chunk data rides in one OpUChunks
// request, so a large diff still flows in protocol-sized frames.
const chunkBatchBytes = 256 << 10

// transfer runs the manifest/chunks/assemble exchange: the agent
// answers the manifest with the chunks it cannot supply from the file
// it holds (every chunk, on a host's first update), and only those
// travel.
func (p *Push) transfer(callR func(uint16, [][]byte) (*protocol.Reply, error)) error {
	sum := sha256.Sum256(p.Data)
	chunks := SplitChunks(p.Data)
	rep, err := callR(OpUManifest, [][]byte{
		[]byte(p.Target), []byte(hex.EncodeToString(sum[:])), EncodeManifest(chunks),
	})
	if err != nil {
		return err
	}

	sent := 0
	var batch [][]byte
	batchBytes := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		_, err := callR(OpUChunks, batch)
		batch, batchBytes = nil, 0
		return err
	}
	for _, f := range rep.Fields {
		idx, aerr := strconv.Atoi(string(f))
		if aerr != nil || idx < 0 || idx >= len(chunks) {
			return mrerr.UpdBadInstr
		}
		c := chunks[idx]
		batch = append(batch, f, p.Data[c.Off:c.Off+c.Len])
		batchBytes += c.Len
		sent += c.Len
		if batchBytes >= chunkBatchBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if _, err := callR(OpUAssemble, nil); err != nil {
		return err
	}
	p.SentBytes = sent
	p.ReusedBytes = len(p.Data) - sent
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
