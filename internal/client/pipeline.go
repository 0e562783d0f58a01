package client

import (
	"bufio"
	"net"
	"strconv"
	"sync"
	"time"

	"moira/internal/clock"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/trace"
)

// Pipeline is a connection that keeps many requests in flight at
// once. Each call gets a connection-unique tag; a sender goroutine
// coalesces request writes and a demux goroutine matches every reply
// frame back to its call by the echoed tag, so N concurrent callers
// share one TCP connection and one server goroutine without waiting a
// round trip each.
//
// Tuple callbacks run on the demux goroutine: a slow callback delays
// every reply on the connection, exactly like a slow reader of the old
// serial client. Calls complete in server order, which is submission
// order per caller but interleaved across callers.
type Pipeline struct {
	conn net.Conn
	bw   *bufio.Writer
	clk  clock.Clock

	sendQ  chan *protocol.Request
	sendWG sync.WaitGroup // calls mid-enqueue; Close waits before closing sendQ

	mu       sync.Mutex
	cond     *sync.Cond // signalled when a tag frees or the pipeline dies
	inflight map[uint16]*pcall
	freeTags []uint16
	nextTag  uint32 // highest tag handed out; tag 0 is the serial client's
	err      error  // terminal; set once
	closed   bool

	wg sync.WaitGroup // demux + sender
}

// pcall is one in-flight pipelined call.
type pcall struct {
	cb    TupleFunc
	cbErr error // callback failure; stream drains, then MR_CALLBACK_ERR
	done  chan error
}

// DefaultPipelineDepth bounds the send queue; writers beyond it block
// until the sender drains.
const DefaultPipelineDepth = 1024

// DialPipeline connects to addr. It sends nothing: a peer that refuses
// the connection (an MR_BUSY shed) or replies at another protocol
// version fails the pipeline, and every call on it, when demux reads
// that reply.
func DialPipeline(addr string, timeout time.Duration, clk clock.Clock) (*Pipeline, error) {
	if clk == nil {
		clk = clock.System
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, mrerr.MrConnTimeout
		}
		return nil, mrerr.MrConnRefused
	}
	p := &Pipeline{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 32<<10),
		clk:      clk,
		sendQ:    make(chan *protocol.Request, DefaultPipelineDepth),
		inflight: make(map[uint16]*pcall),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(2)
	go p.sender()
	go p.demux(bufio.NewReaderSize(conn, 32<<10))
	return p, nil
}

// sender drains the queue onto the wire, flushing whenever the queue
// goes momentarily empty: a burst of concurrent calls leaves in one
// syscall. After a terminal failure it keeps draining (the calls were
// already failed) so enqueuers never block on a dead pipeline.
func (p *Pipeline) sender() {
	defer p.wg.Done()
	for req := range p.sendQ {
		if p.Err() != nil {
			continue
		}
		if err := protocol.WriteRequest(p.bw, req); err != nil {
			p.fail(ioFail(err))
			continue
		}
		if len(p.sendQ) == 0 {
			if err := p.bw.Flush(); err != nil {
				p.fail(ioFail(err))
			}
		}
	}
}

// demux reads reply frames and routes them to in-flight calls by tag.
// Any transport or framing problem is terminal: replies can no longer
// be trusted to match calls, so everything in flight fails.
func (p *Pipeline) demux(br *bufio.Reader) {
	defer p.wg.Done()
	for {
		rep, err := protocol.ReadReply(br)
		if err != nil {
			p.fail(ioFail(err))
			return
		}
		if rep.Version != protocol.Version {
			p.fail(mrerr.MrVersionMismatch)
			return
		}
		p.mu.Lock()
		pc := p.inflight[rep.Tag]
		p.mu.Unlock()
		code := mrerr.Code(rep.Code)
		if pc == nil {
			if rep.Tag == 0 && code != mrerr.Success && code != mrerr.MrMoreData {
				// A connection-scoped refusal (e.g. an MR_BUSY shed)
				// arrives before the server parsed any tag.
				p.fail(code)
			} else {
				p.fail(mrerr.MrAborted) // unknown tag: the stream is desynchronized
			}
			return
		}
		if code == mrerr.MrMoreData {
			if pc.cb != nil && pc.cbErr == nil {
				if err := pc.cb(rep.StringFields()); err != nil {
					pc.cbErr = err // keep draining this call's stream
				}
			}
			continue
		}
		p.mu.Lock()
		delete(p.inflight, rep.Tag)
		p.freeTags = append(p.freeTags, rep.Tag)
		p.cond.Signal()
		p.mu.Unlock()
		if pc.cbErr != nil {
			pc.done <- mrerr.MrCallbackErr
		} else {
			pc.done <- code.OrNil()
		}
	}
}

// fail marks the pipeline dead and completes everything in flight.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	calls := p.inflight
	p.inflight = make(map[uint16]*pcall)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.conn.Close()
	for _, pc := range calls {
		pc.done <- err
	}
}

// Err reports the pipeline's terminal error, or nil while it is usable.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// call runs one tagged round trip and waits for its final reply.
func (p *Pipeline) call(op uint16, args [][]byte, cb TupleFunc) error {
	pc := &pcall{cb: cb, done: make(chan error, 1)}
	p.mu.Lock()
	for {
		if p.err != nil {
			p.mu.Unlock()
			return p.err
		}
		if p.closed {
			p.mu.Unlock()
			return mrerr.MrNotConnected
		}
		if len(p.freeTags) > 0 || p.nextTag < (1<<16)-1 {
			break
		}
		p.cond.Wait() // every tag in flight; wait for a completion
	}
	var tag uint16
	if n := len(p.freeTags); n > 0 {
		tag = p.freeTags[n-1]
		p.freeTags = p.freeTags[:n-1]
	} else {
		p.nextTag++
		tag = uint16(p.nextTag)
	}
	p.inflight[tag] = pc
	p.sendWG.Add(1)
	p.mu.Unlock()

	p.sendQ <- &protocol.Request{
		Version: protocol.Version,
		Op:      op,
		Tag:     tag,
		TraceID: trace.NewTraceID(),
		Args:    args,
	}
	p.sendWG.Done()
	return <-pc.done
}

// Noop does a tagged handshake round trip.
func (p *Pipeline) Noop() error { return p.call(protocol.OpNoop, nil, nil) }

// Query runs the named query; cb sees each tuple on the demux
// goroutine.
func (p *Pipeline) Query(name string, args []string, cb TupleFunc) error {
	all := append([]string{name}, args...)
	return p.call(protocol.OpQuery, protocol.BytesArgs(all), cb)
}

// Access checks access for the named query without running it.
func (p *Pipeline) Access(name string, args []string) error {
	all := append([]string{name}, args...)
	return p.call(protocol.OpAccess, protocol.BytesArgs(all), nil)
}

// Auth authenticates the connection. The server applies it in receive
// order: authenticate before issuing concurrent calls, or calls already
// in flight will still run unauthenticated.
func (p *Pipeline) Auth(creds *kerberos.Credentials, clientName string) error {
	payload := kerberos.BuildAuth(creds, clientName, p.clk)
	return p.call(protocol.OpAuth, [][]byte{payload.Marshal()}, nil)
}

// Batch submits items as one Batch request over the pipeline; see
// Client.Batch for the semantics.
func (p *Pipeline) Batch(items []BatchItem) ([]mrerr.Code, error) {
	if len(items) == 0 {
		return nil, nil
	}
	var codes []mrerr.Code
	err := p.call(protocol.OpBatch, protocol.BytesArgs(protocol.EncodeBatch(items)),
		func(fields []string) error {
			codes = make([]mrerr.Code, len(fields))
			for i, f := range fields {
				v, err := strconv.ParseInt(f, 10, 32)
				if err != nil {
					return mrerr.MrInternal
				}
				codes[i] = mrerr.Code(v)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if len(codes) != len(items) {
		return nil, mrerr.MrInternal
	}
	return codes, nil
}

// Disconnect implements the Conn sense of close.
func (p *Pipeline) Disconnect() error { return p.Close() }

// Close shuts the pipeline down: new calls are refused, in-flight calls
// fail with MR_ABORTED when the closed connection kills the demux read.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return mrerr.MrNotConnected
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.sendWG.Wait()
	close(p.sendQ)
	p.conn.Close()
	p.wg.Wait()
	return nil
}

var _ Conn = (*Pipeline)(nil)

// ClientPool fans concurrent callers out over a fixed set of pipelines,
// round robin. A pipeline that dies is redialed on the next use of its
// slot, so one torn connection degrades a pool instead of killing it.
type ClientPool struct {
	addr    string
	timeout time.Duration
	clk     clock.Clock

	mu    sync.Mutex
	pipes []*Pipeline
	next  int
}

// NewClientPool dials size pipelines to addr. It fails if the first
// dial fails (the server is unreachable); later slots that
// fail dial lazily on first use.
func NewClientPool(addr string, size int, timeout time.Duration, clk clock.Clock) (*ClientPool, error) {
	if size <= 0 {
		size = 1
	}
	p := &ClientPool{addr: addr, timeout: timeout, clk: clk, pipes: make([]*Pipeline, size)}
	first, err := DialPipeline(addr, timeout, clk)
	if err != nil {
		return nil, err
	}
	p.pipes[0] = first
	for i := 1; i < size; i++ {
		if pl, err := DialPipeline(addr, timeout, clk); err == nil {
			p.pipes[i] = pl
		}
	}
	return p, nil
}

// pipe picks the next pipeline, redialing a dead or missing slot.
func (p *ClientPool) pipe() (*Pipeline, error) {
	p.mu.Lock()
	i := p.next % len(p.pipes)
	p.next++
	pl := p.pipes[i]
	p.mu.Unlock()
	if pl != nil && pl.Err() == nil {
		return pl, nil
	}
	fresh, err := DialPipeline(p.addr, p.timeout, p.clk)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if cur := p.pipes[i]; cur != pl && cur != nil && cur.Err() == nil {
		// Another caller already replaced the slot.
		p.mu.Unlock()
		fresh.Close()
		return cur, nil
	}
	p.pipes[i] = fresh
	p.mu.Unlock()
	if pl != nil {
		pl.Close()
	}
	return fresh, nil
}

// Noop runs a handshake on one pooled pipeline.
func (p *ClientPool) Noop() error {
	pl, err := p.pipe()
	if err != nil {
		return err
	}
	return pl.Noop()
}

// Query runs a query on one pooled pipeline.
func (p *ClientPool) Query(name string, args []string, cb TupleFunc) error {
	pl, err := p.pipe()
	if err != nil {
		return err
	}
	return pl.Query(name, args, cb)
}

// Batch runs a batch on one pooled pipeline.
func (p *ClientPool) Batch(items []BatchItem) ([]mrerr.Code, error) {
	pl, err := p.pipe()
	if err != nil {
		return nil, err
	}
	return pl.Batch(items)
}

// Close closes every pipeline in the pool.
func (p *ClientPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, pl := range p.pipes {
		if pl != nil {
			pl.Close()
			p.pipes[i] = nil
		}
	}
	return nil
}
