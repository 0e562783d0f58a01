package client

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// first argument, so pipeline tests can verify demux routing.
func v4EchoServer(t *testing.T) string {
	return newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		if req.Op == protocol.OpQuery && len(req.Args) > 1 {
			reply(&protocol.Reply{Version: req.Version, Tag: req.Tag,
				Code: int32(mrerr.MrMoreData), Fields: [][]byte{req.Args[1]}})
		}
		reply(&protocol.Reply{Version: req.Version, Tag: req.Tag, Code: 0})
		return true
	})
}

func TestPipelineConcurrentCalls(t *testing.T) {
	p, err := DialPipeline(v4EchoServer(t), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arg := fmt.Sprintf("caller-%d", i)
			var got string
			err := p.Query("echo", []string{arg}, func(tuple []string) error {
				got = tuple[0]
				return nil
			})
			if err != nil {
				errs[i] = err
				return
			}
			if got != arg {
				errs[i] = fmt.Errorf("demux gave %q to caller of %q", got, arg)
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

// TestPipelineRejectsLegacyServer: a pipeline whose peer replies at
// another protocol version — older or newer — fails every in-flight
// call with MR_VERSION_MISMATCH and stays dead.
func TestPipelineRejectsLegacyServer(t *testing.T) {
	for _, v := range []uint16{1, 4, protocol.Version + 1} {
		release := make(chan struct{})
		addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
			<-release // hold the reply until every call is in flight
			reply(&protocol.Reply{Version: v, Tag: req.Tag, Code: 0})
			return true
		})
		p, err := DialPipeline(addr, time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		const calls = 8
		errs := make(chan error, calls)
		for i := 0; i < calls; i++ {
			go func() { errs <- p.Noop() }()
		}
		inflight := func() int {
			p.mu.Lock()
			defer p.mu.Unlock()
			return len(p.inflight)
		}
		for inflight() < calls {
			time.Sleep(time.Millisecond)
		}
		close(release)
		for i := 0; i < calls; i++ {
			if err := <-errs; err != mrerr.MrVersionMismatch {
				t.Errorf("v%d peer: in-flight call err = %v, want MR_VERSION_MISMATCH", v, err)
			}
		}
		if err := p.Noop(); err != mrerr.MrVersionMismatch {
			t.Errorf("v%d peer: call on the dead pipeline err = %v, want MR_VERSION_MISMATCH", v, err)
		}
		p.Close()
	}
}

func TestPipelineBatch(t *testing.T) {
	var batches atomic.Int32
	addr := newFakeServer(t, batchEchoHandler(&batches))
	p, err := DialPipeline(addr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	codes, err := p.Batch([]BatchItem{{Name: "add_machine"}, {Name: "add_dup"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 2 || codes[0] != mrerr.Success || codes[1] != mrerr.MrNotUnique {
		t.Fatalf("codes = %v", codes)
	}
}

// TestPipelineServerDies: a torn connection fails everything in flight
// and leaves the pipeline terminally dead.
func TestPipelineServerDies(t *testing.T) {
	var calls atomic.Int32
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		if calls.Add(1) > 1 {
			return false // hang up on everything after the first call
		}
		reply(&protocol.Reply{Version: req.Version, Tag: req.Tag, Code: 0})
		return true
	})
	p, err := DialPipeline(addr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Noop(); err != nil {
		t.Fatalf("first noop: %v", err)
	}
	if err := p.Noop(); err == nil {
		t.Fatal("noop on torn pipeline succeeded")
	}
	if p.Err() == nil {
		t.Fatal("pipeline not marked dead after torn connection")
	}
	if err := p.Noop(); err == nil {
		t.Fatal("noop on dead pipeline succeeded")
	}
}

// TestClientPoolRedialsDeadPipe: a pool slot whose pipeline died is
// redialed on next use instead of poisoning the rotation forever.
func TestClientPoolRedialsDeadPipe(t *testing.T) {
	pool, err := NewClientPool(v4EchoServer(t), 2, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Tear one pipeline's connection and wait for its demux to notice.
	dead := pool.pipes[0]
	dead.conn.Close()
	for i := 0; dead.Err() == nil && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if dead.Err() == nil {
		t.Fatal("closed pipeline never went dead")
	}
	// Every rotation slot must still serve, via redial where needed.
	for i := 0; i < 4; i++ {
		if err := pool.Noop(); err != nil {
			t.Fatalf("pool noop %d after dead pipe: %v", i, err)
		}
	}
	if pool.pipes[0] == dead {
		t.Error("dead pipeline was never replaced in its slot")
	}
}
