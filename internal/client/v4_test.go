package client

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// TestSetCallTimeoutZeroDisarmsDeadline: a timed call arms a deadline
// on the connection; SetCallTimeout(0) must disarm it, or the next
// untimed call dies with a spurious MR_CONN_TIMEOUT when the stale
// deadline expires mid-read. Regression test for exactly that bug: the
// server answers the second request only after the first call's
// deadline has long passed.
func TestSetCallTimeoutZeroDisarmsDeadline(t *testing.T) {
	var calls atomic.Int32
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		if calls.Add(1) > 1 {
			time.Sleep(200 * time.Millisecond) // well past the stale deadline
		}
		reply(&protocol.Reply{Version: req.Version, Tag: req.Tag, Code: 0})
		return true
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	c.SetCallTimeout(80 * time.Millisecond)
	if err := c.Noop(); err != nil {
		t.Fatalf("timed noop: %v", err)
	}
	c.SetCallTimeout(0)
	if err := c.Noop(); err != nil {
		t.Fatalf("untimed noop after SetCallTimeout(0): %v (stale deadline not disarmed)", err)
	}
}

// batchEchoHandler serves OpNoop and OpBatch at the peer's version,
// answering each batch item with MR_NOT_UNIQUE for names ending in
// "dup" and success otherwise.
func batchEchoHandler(batches *atomic.Int32) func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
	return func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		switch req.Op {
		case protocol.OpBatch:
			batches.Add(1)
			items, err := protocol.DecodeBatch(req.Args)
			if err != nil {
				reply(&protocol.Reply{Version: req.Version, Tag: req.Tag, Code: int32(mrerr.MrArgs)})
				return true
			}
			codes := make([]int32, len(items))
			for i, it := range items {
				if len(it.Name) >= 3 && it.Name[len(it.Name)-3:] == "dup" {
					codes[i] = int32(mrerr.MrNotUnique)
				}
			}
			reply(&protocol.Reply{Version: req.Version, Tag: req.Tag,
				Code: int32(mrerr.MrMoreData), Fields: protocol.EncodeBatchCodes(codes)})
			reply(&protocol.Reply{Version: req.Version, Tag: req.Tag, Code: 0})
		default:
			reply(&protocol.Reply{Version: req.Version, Tag: req.Tag, Code: 0})
		}
		return true
	}
}

func TestClientBatchOverWire(t *testing.T) {
	var batches atomic.Int32
	addr := newFakeServer(t, batchEchoHandler(&batches))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	codes, err := c.Batch([]BatchItem{
		{Name: "add_machine", Args: []string{"A.MIT.EDU", "VAX"}},
		{Name: "add_dup", Args: []string{"A.MIT.EDU", "VAX"}},
		{Name: "add_machine", Args: []string{"B.MIT.EDU", "VAX"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []mrerr.Code{mrerr.Success, mrerr.MrNotUnique, mrerr.Success}
	if len(codes) != len(want) {
		t.Fatalf("codes = %v, want %v", codes, want)
	}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
	if n := batches.Load(); n != 1 {
		t.Errorf("server saw %d batch frames, want 1", n)
	}
}

// v4EchoServer answers every query with one tuple echoing the query's
// first argument, so pipelining tests can check each caller reads its
// own replies.
func v4EchoServer(t *testing.T) string {
	return newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		if req.Op == protocol.OpQuery && len(req.Args) > 1 {
			reply(&protocol.Reply{Version: req.Version,
				Code: int32(mrerr.MrMoreData), Fields: [][]byte{req.Args[1]}})
		}
		reply(&protocol.Reply{Version: req.Version, Code: 0})
		return true
	})
}

// inFlight reports how many calls have taken a turn on c's connection
// and not yet read their reply stream to its end.
func inFlight(c *Client) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.sent - c.w.done
}

// TestPipelineConcurrentCalls: 32 goroutines share one Client and each
// gets its own echo back.
func TestPipelineConcurrentCalls(t *testing.T) {
	c, err := DialTimeout(v4EchoServer(t), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arg := fmt.Sprintf("caller-%d", i)
			var got string
			err := c.Query("echo", []string{arg}, func(tuple []string) error {
				got = tuple[0]
				return nil
			})
			if err != nil {
				errs[i] = err
				return
			}
			if got != arg {
				errs[i] = fmt.Errorf("caller of %q read %q", arg, got)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

// TestPipelineRejectsLegacyServer: a peer that replies at another
// protocol version — older or newer — fails every call in flight with
// MR_VERSION_MISMATCH, and the connection stays dead.
func TestPipelineRejectsLegacyServer(t *testing.T) {
	for _, v := range []uint16{1, 4, protocol.Version + 1} {
		release := make(chan struct{})
		addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
			<-release // hold the reply until every call is in flight
			reply(&protocol.Reply{Version: v, Code: 0})
			return true
		})
		c, err := DialTimeout(addr, time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		const calls = 8
		errs := make(chan error, calls)
		for i := 0; i < calls; i++ {
			go func() { errs <- c.Noop() }()
		}
		awaitInFlight(c, calls)
		close(release)
		for i := 0; i < calls; i++ {
			if err := <-errs; err != mrerr.MrVersionMismatch {
				t.Errorf("v%d peer: in-flight call err = %v, want MR_VERSION_MISMATCH", v, err)
			}
		}
		if err := c.Noop(); err != mrerr.MrNotConnected {
			t.Errorf("v%d peer: call on the dead connection err = %v, want MR_NOT_CONNECTED", v, err)
		}
		if n := c.Reconnects(); n != 0 {
			t.Errorf("v%d peer: reconnects = %d, want 0", v, n)
		}
		c.Disconnect()
	}
}

// TestPipelineBatch: a batch goes out as one call among concurrent ones.
func TestPipelineBatch(t *testing.T) {
	var batches atomic.Int32
	c, err := DialTimeout(newFakeServer(t, batchEchoHandler(&batches)), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i > 0 {
				errs[i] = c.Noop()
				return
			}
			codes, err := c.Batch([]BatchItem{{Name: "add_machine"}, {Name: "add_dup"}})
			if err == nil && (len(codes) != 2 || codes[0] != mrerr.Success || codes[1] != mrerr.MrNotUnique) {
				err = fmt.Errorf("codes = %v", codes)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if n := batches.Load(); n != 1 {
		t.Errorf("server saw %d batch frames, want 1", n)
	}
}

// hangUpOnRelease serves a fake server whose first request is held
// until release is closed and then answered by hanging up; requests on
// later connections are answered by serve.
func hangUpOnRelease(t *testing.T, release <-chan struct{}, serve func(*protocol.Request, func(*protocol.Reply) error)) string {
	var held atomic.Bool
	return newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		if held.CompareAndSwap(false, true) {
			<-release
			return false
		}
		serve(req, reply)
		return true
	})
}

// awaitInFlight waits until n calls have taken a turn on c's connection.
func awaitInFlight(c *Client, n uint64) {
	for inFlight(c) < n {
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineServerDies: when the connection tears, every call in
// flight on it fails, and the next idempotent call redials.
func TestPipelineServerDies(t *testing.T) {
	const calls = 4
	release := make(chan struct{})
	addr := hangUpOnRelease(t, release, func(req *protocol.Request, reply func(*protocol.Reply) error) {
		reply(&protocol.Reply{Version: req.Version, Code: 0})
	})
	c, err := DialTimeout(addr, time.Second, clock.NewFake(time.Unix(600000000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			errs <- c.Query("add_machine", []string{fmt.Sprintf("M%d.MIT.EDU", i), "VAX"}, nil)
		}(i)
	}
	awaitInFlight(c, calls)
	close(release)
	for i := 0; i < calls; i++ {
		if err := <-errs; err != mrerr.MrAborted {
			t.Errorf("mutation in flight when the server hung up: %v, want MR_ABORTED", err)
		}
	}
	if n := c.Reconnects(); n != 0 {
		t.Errorf("reconnects after torn mutations = %d, want 0", n)
	}
	if err := c.Noop(); err != nil {
		t.Fatalf("noop after the tear: %v, want a redial", err)
	}
	if n := c.Reconnects(); n != 1 {
		t.Errorf("reconnects = %d, want 1", n)
	}
}

// TestPipelinedCallsReconnectTogether: retrievals and a mutation share
// a connection when the server hangs up. The retrievals are resent
// together after one redial; the mutation, which the server may have
// applied, fails with MR_ABORTED and is never resent.
func TestPipelinedCallsReconnectTogether(t *testing.T) {
	const reads = 8
	var mu sync.Mutex
	resent := map[string]int{}
	release := make(chan struct{})
	addr := hangUpOnRelease(t, release, func(req *protocol.Request, reply func(*protocol.Reply) error) {
		mu.Lock()
		resent[string(req.Args[1])]++
		mu.Unlock()
		reply(&protocol.Reply{Version: req.Version, Code: int32(mrerr.MrMoreData), Fields: [][]byte{req.Args[1]}})
		reply(&protocol.Reply{Version: req.Version, Code: 0})
	})
	c, err := DialTimeout(addr, time.Second, clock.NewFake(time.Unix(600000000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	var wg sync.WaitGroup
	errs := make([]error, reads+1)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == reads {
				errs[i] = c.Query("add_machine", []string{"NEW.MIT.EDU", "VAX"}, nil)
				return
			}
			name := fmt.Sprintf("M%d.MIT.EDU", i)
			var got string
			errs[i] = c.Query("get_machine", []string{name}, func(tuple []string) error {
				got = tuple[0]
				return nil
			})
			if errs[i] == nil && got != name {
				errs[i] = fmt.Errorf("asked for %s, read %s", name, got)
			}
		}(i)
	}
	awaitInFlight(c, reads+1)
	close(release)
	wg.Wait()
	for i, err := range errs[:reads] {
		if err != nil {
			t.Errorf("retrieval %d: %v", i, err)
		}
	}
	if errs[reads] != mrerr.MrAborted {
		t.Errorf("torn mutation: %v, want MR_ABORTED", errs[reads])
	}
	if n := c.Reconnects(); n != 1 {
		t.Errorf("reconnects = %d, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < reads; i++ {
		if n := resent[fmt.Sprintf("M%d.MIT.EDU", i)]; n != 1 {
			t.Errorf("retrieval %d resent %d times, want 1", i, n)
		}
	}
	if n := resent["NEW.MIT.EDU"]; n != 0 {
		t.Errorf("mutation resent %d times, want 0", n)
	}
}

// TestPipelinedReadsCarryWriteToken: once a write is acknowledged,
// every retrieval in flight after it carries the write's commit token,
// so a lagging replica cannot answer any of them from before it.
func TestPipelinedReadsCarryWriteToken(t *testing.T) {
	const reads = 8
	const token = "3.7.42"
	release := make(chan struct{})
	var mu sync.Mutex
	var floors []string
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		if string(req.Args[0]) == "add_machine" {
			reply(&protocol.Reply{Version: req.Version, Code: 0, Fields: [][]byte{[]byte(token)}})
			return true
		}
		<-release // answer no retrieval until all of them are in flight
		mu.Lock()
		floors = append(floors, req.MinPos)
		mu.Unlock()
		reply(&protocol.Reply{Version: req.Version, Code: 0})
		return true
	})
	c, err := DialTimeout(addr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	if err := c.Query("add_machine", []string{"NEW.MIT.EDU", "VAX"}, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, reads)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Query("get_machine", []string{fmt.Sprintf("M%d.MIT.EDU", i)}, nil)
		}(i)
	}
	awaitInFlight(c, reads)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("retrieval %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(floors) != reads {
		t.Fatalf("server answered %d retrievals, want %d", len(floors), reads)
	}
	for i, f := range floors {
		if f != token {
			t.Errorf("retrieval %d carried MinPos %q, want %q", i, f, token)
		}
	}
}

// TestPipelineTimeoutAbortsCallsBehind: the call whose deadline passes
// gets MR_CONN_TIMEOUT; the calls in flight behind it on the dropped
// connection did not run out of time and get MR_ABORTED.
func TestPipelineTimeoutAbortsCallsBehind(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		<-release // stall: never answer while the test is measuring
		return false
	})
	c, err := DialTimeout(addr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	c.SetCallTimeout(150 * time.Millisecond)
	first := make(chan error, 1)
	go func() { first <- c.Query("add_machine", []string{"A.MIT.EDU", "VAX"}, nil) }()
	awaitInFlight(c, 1)
	behind := make(chan error, 1)
	go func() { behind <- c.Query("add_machine", []string{"B.MIT.EDU", "VAX"}, nil) }()
	if err := <-first; err != mrerr.MrConnTimeout {
		t.Errorf("call that ran out of time: %v, want MR_CONN_TIMEOUT", err)
	}
	if err := <-behind; err != mrerr.MrAborted {
		t.Errorf("call behind it: %v, want MR_ABORTED", err)
	}
	if n := c.Reconnects(); n != 0 {
		t.Errorf("reconnects = %d, want 0", n)
	}
}
