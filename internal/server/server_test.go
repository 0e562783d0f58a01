package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
)

// world is a full test rig: database, KDC, running server.
type world struct {
	d        *db.DB
	clk      *clock.Fake
	kdc      *kerberos.KDC
	srv      *Server
	addr     string
	dcmFired atomic.Int32
	dcmTrace atomic.Value // string: trace ID of the last TriggerDCM

	logMu sync.Mutex
	logs  []string
}

// logLines returns a copy of everything the server logged so far.
func (w *world) logLines() []string {
	w.logMu.Lock()
	defer w.logMu.Unlock()
	return append([]string(nil), w.logs...)
}

const serverPrincipal = "moira.server"

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := queries.NewBootstrappedDB(clk)
	kdc := kerberos.NewKDC("ATHENA.MIT.EDU", clk)
	if err := kdc.AddPrincipal(serverPrincipal, "server-password"); err != nil {
		t.Fatal(err)
	}
	key, err := kdc.Srvtab(serverPrincipal)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{d: d, clk: clk, kdc: kdc}
	srv := New(Config{
		DB:         d,
		Verifier:   kerberos.NewVerifier(serverPrincipal, key, clk),
		Clock:      clk,
		TriggerDCM: func(trace string) { w.dcmTrace.Store(trace); w.dcmFired.Add(1) },
		Logf: func(format string, args ...any) {
			w.logMu.Lock()
			w.logs = append(w.logs, fmt.Sprintf(format, args...))
			w.logMu.Unlock()
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	w.srv = srv
	w.addr = addr.String()
	return w
}

// addPerson creates a Moira account plus a Kerberos principal.
func (w *world) addPerson(t *testing.T, login, password string) {
	t.Helper()
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	err := queries.Execute(priv, "add_user",
		[]string{login, "-1", "/bin/csh", "Last", "First", "", "1", "x", "STAFF"},
		func([]string) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.kdc.AddPrincipal(login, password); err != nil {
		t.Fatal(err)
	}
}

func (w *world) dial(t *testing.T) *client.Client {
	t.Helper()
	c, err := client.DialTimeout(w.addr, 5*time.Second, w.clk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Disconnect() })
	return c
}

func (w *world) dialAs(t *testing.T, login, password string) *client.Client {
	t.Helper()
	c := w.dial(t)
	creds, err := w.kdc.GetTicket(login, password, serverPrincipal)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Auth(creds, "test-client"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNoop(t *testing.T) {
	w := newWorld(t)
	c := w.dial(t)
	for i := 0; i < 3; i++ {
		if err := c.Noop(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnauthenticatedReadOnlyQuery(t *testing.T) {
	w := newWorld(t)
	c := w.dial(t)
	out, err := c.QueryAll("_list_queries")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 100 {
		t.Errorf("got %d queries", len(out))
	}
}

func TestUnauthenticatedWriteDenied(t *testing.T) {
	w := newWorld(t)
	c := w.dial(t)
	err := c.Query("add_machine", []string{"x.mit.edu", "VAX"}, nil)
	if err != mrerr.MrPerm {
		t.Errorf("err = %v, want MR_PERM", err)
	}
}

func TestAuthenticatedSelfService(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "babette", "pw")
	c := w.dialAs(t, "babette", "pw")

	// Self read.
	out, err := c.QueryAll("get_user_by_login", "babette")
	if err != nil || len(out) != 1 {
		t.Fatalf("self read: %v, %d tuples", err, len(out))
	}
	// Self shell update over RPC.
	if err := c.Query("update_user_shell", []string{"babette", "/bin/sh"}, nil); err != nil {
		t.Fatal(err)
	}
	out, _ = c.QueryAll("get_user_by_login", "babette")
	if out[0][2] != "/bin/sh" {
		t.Errorf("shell = %q", out[0][2])
	}
	// modwith records the client application name given to mr_auth.
	if out[0][11] != "test-client" {
		t.Errorf("modwith = %q", out[0][11])
	}
}

func TestAdminViaRPC(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "admin", "adminpw")
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "add_member_to_list",
		[]string{queries.AdminList, "USER", "admin"}, func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	c := w.dialAs(t, "admin", "adminpw")
	if err := c.Query("add_machine", []string{"new.mit.edu", "VAX"}, nil); err != nil {
		t.Fatal(err)
	}
	out, err := c.QueryAll("get_machine", "NEW.MIT.EDU")
	if err != nil || out[0][0] != "NEW.MIT.EDU" {
		t.Fatalf("get_machine: %v %v", out, err)
	}
}

func TestAuthBadCredentials(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "babette", "pw")
	if _, err := w.kdc.GetTicket("babette", "wrong", serverPrincipal); err != mrerr.KrbBadPassword {
		t.Errorf("bad password err = %v", err)
	}
	// A forged payload is rejected by the server.
	c := w.dial(t)
	fake := &kerberos.AuthPayload{SealedTicket: []byte("junk-junk"), SealedAuthenticator: []byte("more-junk-bytes!")}
	// Reach the wire path through Auth's internals: use a credentials
	// struct whose sealed ticket is garbage.
	creds := &kerberos.Credentials{Client: "babette", Service: serverPrincipal,
		SealedTicket: fake.SealedTicket}
	if err := c.Auth(creds, "evil"); err == nil {
		t.Error("forged ticket accepted")
	}
	// The connection is still usable for anonymous queries afterwards.
	if err := c.Noop(); err != nil {
		t.Errorf("noop after failed auth: %v", err)
	}
}

func TestAccessRequest(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "babette", "pw")
	c := w.dialAs(t, "babette", "pw")
	if err := c.Access("update_user_shell", []string{"babette", "/bin/sh"}); err != nil {
		t.Errorf("self access = %v", err)
	}
	if err := c.Access("add_machine", []string{"x.mit.edu", "VAX"}); err != mrerr.MrPerm {
		t.Errorf("denied access = %v", err)
	}
	if err := c.Access("nonsense", nil); err != mrerr.MrNoHandle {
		t.Errorf("unknown access = %v", err)
	}
}

func TestListUsersSessionTracking(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "babette", "pw")
	c1 := w.dialAs(t, "babette", "pw")
	c2 := w.dial(t)
	out, err := c2.QueryAll("_list_users")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 2 {
		t.Fatalf("_list_users rows = %d", len(out))
	}
	foundAuthed := false
	for _, row := range out {
		if row[0] == "babette" {
			foundAuthed = true
		}
	}
	if !foundAuthed {
		t.Errorf("authenticated session not listed: %v", out)
	}
	_ = c1
}

func TestTriggerDCMRequiresCapability(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "pleb", "pw")
	w.addPerson(t, "oper", "pw")
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "add_member_to_list",
		[]string{queries.AdminList, "USER", "oper"}, func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	c := w.dialAs(t, "pleb", "pw")
	if err := c.TriggerDCM(); err != mrerr.MrPerm {
		t.Errorf("pleb trigger err = %v", err)
	}
	if w.dcmFired.Load() != 0 {
		t.Error("DCM fired for unauthorized user")
	}
	c2 := w.dialAs(t, "oper", "pw")
	if err := c2.TriggerDCM(); err != nil {
		t.Errorf("oper trigger err = %v", err)
	}
	if w.dcmFired.Load() != 1 {
		t.Errorf("fired = %d", w.dcmFired.Load())
	}
}

func TestQueryStreamingManyTuples(t *testing.T) {
	w := newWorld(t)
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	for i := 0; i < 200; i++ {
		login := "user" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		queries.Execute(priv, "add_user",
			[]string{login + "x", "-1", "/bin/csh", "L", "F", "", "1", "", "STAFF"},
			func([]string) error { return nil })
	}
	c := w.dial(t)
	out, err := c.QueryAll("get_all_active_logins")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 200 {
		t.Errorf("streamed %d tuples", len(out))
	}
}

func TestCallbackErrorDrainsStream(t *testing.T) {
	w := newWorld(t)
	c := w.dial(t)
	calls := 0
	err := c.Query("_list_queries", nil, func([]string) error {
		calls++
		return mrerr.MrInternal // application callback fails
	})
	if err != mrerr.MrCallbackErr {
		t.Errorf("err = %v", err)
	}
	// The connection survives (stream was drained, not severed).
	if err := c.Noop(); err != nil {
		t.Errorf("noop after callback error: %v", err)
	}
}

func TestDisconnectSemantics(t *testing.T) {
	w := newWorld(t)
	c := w.dial(t)
	if err := c.Disconnect(); err != nil {
		t.Fatal(err)
	}
	if err := c.Disconnect(); err != mrerr.MrNotConnected {
		t.Errorf("double disconnect err = %v", err)
	}
	if err := c.Noop(); err != mrerr.MrNotConnected {
		t.Errorf("noop after disconnect err = %v", err)
	}
}

func TestDirectGlueEquivalence(t *testing.T) {
	w := newWorld(t)
	dc := client.NewDirect(&queries.Context{DB: w.d, Privileged: true, App: "dcm"})
	if err := dc.Noop(); err != nil {
		t.Fatal(err)
	}
	if err := dc.Query("add_machine", []string{"direct.mit.edu", "RT"}, nil); err != nil {
		t.Fatal(err)
	}
	out, err := dc.QueryAll("get_machine", "DIRECT.MIT.EDU")
	if err != nil || len(out) != 1 {
		t.Fatalf("direct query: %v %v", out, err)
	}
	if err := dc.Access("add_machine", []string{"x.mit.edu", "VAX"}); err != nil {
		t.Errorf("direct access: %v", err)
	}
}

func TestConnectionRefused(t *testing.T) {
	if _, err := client.Dial("127.0.0.1:1"); err != mrerr.MrConnRefused {
		t.Errorf("err = %v", err)
	}
}

// TestVersionSkewOnTheWire sends request frames stamped a protocol
// version other than ours, older and newer; the server must answer each
// MR_VERSION_MISMATCH at its own version and keep serving ("requests and
// replies also contain a version number, to allow clean handling of
// version skew").
func TestVersionSkewOnTheWire(t *testing.T) {
	w := newWorld(t)
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)

	for _, v := range []uint16{1, 4, protocol.Version + 9} {
		if err := protocol.WriteRequest(bw, &protocol.Request{
			Version: v, Op: protocol.OpNoop, Tag: 9}); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		rep, err := protocol.ReadReply(br)
		if err != nil {
			t.Fatal(err)
		}
		if mrerr.Code(rep.Code) != mrerr.MrVersionMismatch {
			t.Errorf("v%d request: code = %d, want MR_VERSION_MISMATCH", v, rep.Code)
		}
		if rep.Version != protocol.Version || rep.Tag != 0 {
			t.Errorf("v%d request: reply stamped v%d tag %d, want v%d tag 0",
				v, rep.Version, rep.Tag, protocol.Version)
		}
	}
	// The connection survives for a correct-version request.
	if err := protocol.WriteRequest(bw, &protocol.Request{
		Version: protocol.Version, Op: protocol.OpNoop}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	rep, err := protocol.ReadReply(br)
	if err != nil || rep.Code != 0 {
		t.Errorf("post-skew noop = %v %v", rep, err)
	}
	// An unknown opcode gets MR_UNKNOWN_PROC.
	if err := protocol.WriteRequest(bw, &protocol.Request{
		Version: protocol.Version, Op: 99}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	rep, err = protocol.ReadReply(br)
	if err != nil || mrerr.Code(rep.Code) != mrerr.MrUnknownProc {
		t.Errorf("unknown op = %v %v", rep, err)
	}
}

// followerState is a FailoverState for a node that is not the primary:
// it knows where the primary is and has applied nothing.
type followerState struct{ primary string }

func (f followerState) Whois() queries.WhoisInfo {
	return queries.WhoisInfo{Role: "replica", Primary: f.primary}
}
func (f followerState) CommitGate(seg, idx int64) error   { return nil }
func (f followerState) Token(seg, idx int64) string       { return "" }
func (f followerState) WaitCovered(pos protocol.Pos) bool { return pos.IsZero() }
func (f followerState) PrimaryClient() string             { return f.primary }

// TestFollowerRefusalsNameThePrimary: with Failover configured, every
// MR_READONLY (mutation, batch, Trigger_DCM) and MR_STALE refusal
// carries the primary's address as its one field — on whatever request
// the refusal answers, no further condition.
func TestFollowerRefusalsNameThePrimary(t *testing.T) {
	srv := New(Config{
		DB:       queries.NewBootstrappedDB(nil),
		ReadOnly: true,
		Failover: followerState{primary: "10.0.0.1:7760"},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)

	for _, c := range []struct {
		req  protocol.Request
		want mrerr.Code
	}{
		{protocol.Request{Op: protocol.OpQuery,
			Args: protocol.BytesArgs([]string{"add_machine", "ro.mit.edu", "VAX"})}, mrerr.MrReadonly},
		{protocol.Request{Op: protocol.OpBatch,
			Args: protocol.BytesArgs(protocol.EncodeBatch(nil))}, mrerr.MrReadonly},
		{protocol.Request{Op: protocol.OpTriggerDCM}, mrerr.MrReadonly},
		{protocol.Request{Op: protocol.OpQuery, MinPos: protocol.Pos{Epoch: 1, Seg: 1, Idx: 9}.String(),
			Args: protocol.BytesArgs([]string{"get_machine", "*"})}, mrerr.MrStale},
	} {
		c.req.Version = protocol.Version
		if err := protocol.WriteRequest(bw, &c.req); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		rep, err := protocol.ReadReply(br)
		if err != nil {
			t.Fatal(err)
		}
		if mrerr.Code(rep.Code) != c.want {
			t.Errorf("%s: code = %d, want %d", protocol.OpName(c.req.Op), rep.Code, c.want)
		}
		if f := rep.StringFields(); len(f) != 1 || f[0] != "10.0.0.1:7760" {
			t.Errorf("%s: refusal fields = %q, want the primary's address", protocol.OpName(c.req.Op), f)
		}
	}
}

// TestShutdownRequest: unauthorized shutdowns are refused; an authorized
// one stops the server.
func TestShutdownRequest(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "pleb", "pw")
	w.addPerson(t, "oper", "pw")
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "add_member_to_list",
		[]string{queries.AdminList, "USER", "oper"}, func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}

	c := w.dialAs(t, "pleb", "pw")
	if err := c.Shutdown(); err != mrerr.MrPerm {
		t.Errorf("pleb shutdown err = %v", err)
	}
	if err := c.Noop(); err != nil {
		t.Errorf("server died on refused shutdown: %v", err)
	}

	c2 := w.dialAs(t, "oper", "pw")
	if err := c2.Shutdown(); err != nil {
		t.Errorf("oper shutdown err = %v", err)
	}
	// The server eventually stops accepting connections.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", w.addr)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("server still accepting after shutdown")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
