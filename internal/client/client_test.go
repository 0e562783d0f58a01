package client

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
)

// fakeServer speaks raw protocol frames so client behaviour against
// malformed or skewed servers can be tested without the real server.
type fakeServer struct {
	ln      net.Listener
	wg      sync.WaitGroup
	handler func(req *protocol.Request, reply func(*protocol.Reply) error) bool
}

func newFakeServer(t *testing.T, handler func(req *protocol.Request, reply func(*protocol.Reply) error) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, handler: handler}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fs.wg.Add(1)
			go func() {
				defer fs.wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				for {
					req, err := protocol.ReadRequest(br)
					if err != nil {
						return
					}
					cont := fs.handler(req, func(rep *protocol.Reply) error {
						if rep.Tag == 0 {
							rep.Tag = req.Tag // as the real server does
						}
						if err := protocol.WriteReply(bw, rep); err != nil {
							return err
						}
						return bw.Flush()
					})
					if !cont {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); fs.wg.Wait() })
	return ln.Addr().String()
}

func TestClientVersionSkew(t *testing.T) {
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		// A server from the future replies with a different version.
		reply(&protocol.Reply{Version: protocol.Version + 1, Code: 0})
		return true
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	if err := c.Noop(); err != mrerr.MrVersionMismatch {
		t.Errorf("skewed noop err = %v", err)
	}
	// The connection was aborted; further calls report not-connected.
	if err := c.Noop(); err != mrerr.MrNotConnected {
		t.Errorf("post-skew noop err = %v", err)
	}
}

func TestClientServerDiesMidStream(t *testing.T) {
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		// One tuple, then hang up without the final code.
		reply(&protocol.Reply{Version: protocol.Version, Code: int32(mrerr.MrMoreData),
			Fields: [][]byte{[]byte("partial")}})
		return false
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	got := 0
	err = c.Query("get_all_logins", nil, func([]string) error { got++; return nil })
	if err != mrerr.MrAborted {
		t.Errorf("mid-stream death err = %v", err)
	}
	if got != 1 {
		t.Errorf("tuples before death = %d", got)
	}
}

func TestQueryAllCopiesTuples(t *testing.T) {
	served := [][]byte{[]byte("one"), []byte("two")}
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		for _, v := range served {
			reply(&protocol.Reply{Version: protocol.Version, Code: int32(mrerr.MrMoreData),
				Fields: [][]byte{v}})
		}
		reply(&protocol.Reply{Version: protocol.Version, Code: 0})
		return true
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	out, err := c.QueryAll("whatever")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0][0] != "one" || out[1][0] != "two" {
		t.Errorf("out = %v", out)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err != mrerr.MrConnRefused {
		t.Errorf("refused err = %v", err)
	}
}

func TestClientConcurrentCallsSerialized(t *testing.T) {
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		time.Sleep(time.Millisecond)
		reply(&protocol.Reply{Version: protocol.Version, Code: 0})
		return true
	})
	c, err := Dial(addr)
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
			errs[i] = c.Noop()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

func TestDirectMatchesRPCSemantics(t *testing.T) {
	d := queries.NewBootstrappedDB(nil)
	dc := NewDirect(&queries.Context{DB: d, Privileged: true, App: "test"})

	// Unknown query maps to the same code as over the wire.
	if err := dc.Query("bogus", nil, nil); err != mrerr.MrNoHandle {
		t.Errorf("unknown query err = %v", err)
	}
	// MR_NO_MATCH propagates.
	if err := dc.Query("get_machine", []string{"GHOST"}, nil); err != mrerr.MrNoMatch {
		t.Errorf("no match err = %v", err)
	}
	// QueryAll gathers tuples.
	out, err := dc.QueryAll("get_value", "def_quota")
	if err != nil || len(out) != 1 || out[0][0] != "300" {
		t.Errorf("QueryAll = %v, %v", out, err)
	}
	// nil callback is fine for writes.
	if err := dc.Query("add_machine", []string{"x.mit.edu", "VAX"}, nil); err != nil {
		t.Errorf("nil callback write: %v", err)
	}
	if err := dc.Disconnect(); err != nil {
		t.Errorf("direct disconnect: %v", err)
	}
}

// TestClientStampsTraceIDs checks that every request carries a trace ID
// (fresh per request by default, pinned after SetTraceID) and that
// LastTraceID reports the stamped value.
func TestClientStampsTraceIDs(t *testing.T) {
	var traces []string
	addr := newFakeServer(t, func(req *protocol.Request, reply func(*protocol.Reply) error) bool {
		traces = append(traces, req.TraceID)
		reply(&protocol.Reply{Version: req.Version, Code: 0})
		return true
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || traces[0] == "" || traces[0] == traces[1] {
		t.Errorf("auto-stamped traces = %q", traces)
	}
	if c.LastTraceID() != traces[1] {
		t.Errorf("LastTraceID = %q, want %q", c.LastTraceID(), traces[1])
	}
	c.SetTraceID("pinned-1")
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	if traces[2] != "pinned-1" || c.LastTraceID() != "pinned-1" {
		t.Errorf("pinned trace = %q, last = %q", traces[2], c.LastTraceID())
	}
}
