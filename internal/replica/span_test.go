package replica

import (
	"testing"
	"time"

	"moira/internal/client"
	"moira/internal/kerberos"
	"moira/internal/queries"
	"moira/internal/server"
	"moira/internal/trace"
)

// TestSpansCrossProcessBoundaries is the tracing acceptance test: one
// client-chosen trace ID must show up in span stores on three sides of
// two process boundaries — the client's own tracer (client.call), the
// primary server's tracer (server.request and its phases, parented on
// the client's span via the wire field), and the replica's tracer
// (repl.apply, joined through the trace ID journaled with the
// mutation). Each side gets its OWN Tracer, so linkage can only come
// from the wire field and the journal record, never from shared state.
func TestSpansCrossProcessBoundaries(t *testing.T) {
	w := newPrimaryWorld(t)

	// Kerberos world so the client can authenticate a mutation.
	const serverPrincipal = "moira.server"
	kdc := kerberos.NewKDC("ATHENA.MIT.EDU", w.clk)
	if err := kdc.AddPrincipal(serverPrincipal, "server-pw"); err != nil {
		t.Fatal(err)
	}
	key, err := kdc.Srvtab(serverPrincipal)
	if err != nil {
		t.Fatal(err)
	}
	w.run("add_user", "admin", "-1", "/bin/csh", "Ad", "Min", "", "1", "x", "STAFF")
	w.run("add_member_to_list", queries.AdminList, "USER", "admin")
	if err := kdc.AddPrincipal("admin", "adminpw"); err != nil {
		t.Fatal(err)
	}

	serverTracer := trace.New(trace.Options{Process: "moirad", Slow: -1})
	srv := server.New(server.Config{
		DB:       w.d,
		Verifier: kerberos.NewVerifier(serverPrincipal, key, w.clk),
		Clock:    w.clk,
		Tracer:   serverTracer,
	})
	saddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	replicaTracer := trace.New(trace.Options{Process: "replica", Slow: -1})
	rep := w.openReplica(t.TempDir(), replicaTracer)
	rep.Start()
	defer rep.Close()

	clientTracer := trace.New(trace.Options{Process: "mrtest", Slow: -1})
	c, err := client.DialTimeout(saddr.String(), 5*time.Second, w.clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Disconnect()
	creds, err := kdc.GetTicket("admin", "adminpw", serverPrincipal)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Auth(creds, "span-test"); err != nil {
		t.Fatal(err)
	}
	c.SetTracer(clientTracer)
	const tid = "te2espan1-1"
	c.SetTraceID(tid)

	if err := c.Query("add_machine", []string{"spanhost.mit.edu", "VAX"}, nil); err != nil {
		t.Fatal(err)
	}

	// Client side: a client.call root carrying the chosen trace ID.
	var clientSpanID string
	for _, tr := range clientTracer.Find(tid) {
		root := tr.Root()
		if root.Name == "client.call" && root.Detail == "query add_machine" {
			clientSpanID = root.SpanID
		}
	}
	if clientSpanID == "" {
		t.Fatalf("no client.call span for %s in client tracer: %+v", tid, clientTracer.Traces())
	}

	// Server side: a server.request root parented on the client's span
	// (the wire field crossed the first process boundary), with the
	// phase children under it.
	var serverTrace *trace.TraceRecord
	for _, tr := range serverTracer.Find(tid) {
		if tr.Root().Name == "server.request" && tr.Root().Detail == "query add_machine" {
			serverTrace = tr
		}
	}
	if serverTrace == nil {
		t.Fatalf("no server.request trace for %s in server tracer", tid)
	}
	if got := serverTrace.Root().Parent; got != clientSpanID {
		t.Errorf("server root parent = %q, want client span %q", got, clientSpanID)
	}
	phases := map[string]bool{}
	for _, sp := range serverTrace.Spans {
		phases[sp.Name] = true
		if sp.TraceID != tid {
			t.Errorf("server span %s carries trace %q", sp.Name, sp.TraceID)
		}
	}
	for _, want := range []string{"server.read", "server.handler", "server.journal", "server.write"} {
		if !phases[want] {
			t.Errorf("server trace missing phase %s (have %v)", want, phases)
		}
	}

	// A read on the same pinned trace ID runs lock-free and records the
	// snapshot-acquire phase instead of the journal append.
	if err := c.Query("get_machine", []string{"SPANHOST.MIT.EDU"}, func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	readPhases := map[string]bool{}
	for _, tr := range serverTracer.Find(tid) {
		if tr.Root().Detail == "query get_machine" {
			for _, sp := range tr.Spans {
				readPhases[sp.Name] = true
			}
		}
	}
	for _, want := range []string{"server.snapshot", "server.handler"} {
		if !readPhases[want] {
			t.Errorf("read trace missing phase %s (have %v)", want, readPhases)
		}
	}

	// Replica side: the journal record shipped the trace ID across the
	// second process boundary; the apply span joins the same trace.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var applied *trace.SpanRecord
		for _, tr := range replicaTracer.Find(tid) {
			root := tr.Root()
			if root.Name == "repl.apply" {
				applied = &root
			}
		}
		if applied != nil {
			if applied.Detail != "add_machine" {
				t.Errorf("repl.apply detail = %q, want add_machine", applied.Detail)
			}
			if applied.Code != 0 {
				t.Errorf("repl.apply code = %d", applied.Code)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never recorded a repl.apply span for %s (kept: %d traces)",
				tid, len(replicaTracer.Traces()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitConverged(t, w.d, rep.DB())
}

// TestReplicaLagSeconds drives the staleness gauge: caught-up replicas
// report zero, and the head-frame heartbeat timestamp refreshes the
// freshness point so an idle-but-connected replica stays at zero.
func TestReplicaLagSeconds(t *testing.T) {
	w := newPrimaryWorld(t)
	rep := w.openReplica(t.TempDir(), nil)
	rep.Start()
	defer rep.Close()

	for i := 0; i < 5; i++ {
		w.run("add_machine", "lag0"+string(rune('a'+i))+".mit.edu", "VAX")
	}
	waitConverged(t, w.d, rep.DB())

	deadline := time.Now().Add(10 * time.Second)
	for rep.LagSeconds() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("caught-up replica reports lag %d", rep.LagSeconds())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
