package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"moira/internal/client"
	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/queries"
)

// TestConcurrentClients hammers one server with parallel readers and
// writers, checking the single-backend serialization holds up: no
// errors, no lost writes, no torn reads.
func TestConcurrentClients(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "admin", "pw")
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "add_member_to_list",
		[]string{queries.AdminList, "USER", "admin"}, func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)

	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.DialTimeout(w.addr, 5*time.Second, w.clk)
			if err != nil {
				errs <- err
				return
			}
			defer c.Disconnect()
			creds, err := w.kdc.GetTicket("admin", "pw", serverPrincipal)
			if err != nil {
				errs <- err
				return
			}
			if err := c.Auth(creds, "stress"); err != nil {
				errs <- err
				return
			}
			for i := 0; i < perWorker; i++ {
				if g%2 == 0 {
					// Writer: every machine name unique.
					name := fmt.Sprintf("w%02d-%03d.mit.edu", g, i)
					if err := c.Query("add_machine", []string{name, "VAX"}, nil); err != nil {
						errs <- fmt.Errorf("add %s: %w", name, err)
					}
				} else {
					// Reader: full scans interleaved with the writes.
					if _, err := c.QueryAll("get_machine", "*"); err != nil && err != mrerr.MrNoMatch {
						errs <- fmt.Errorf("scan: %w", err)
					}
					if err := c.Noop(); err != nil {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every write landed exactly once.
	w.d.LockShared()
	defer w.d.UnlockShared()
	for g := 0; g < workers; g += 2 {
		for i := 0; i < perWorker; i++ {
			name := fmt.Sprintf("W%02d-%03d.MIT.EDU", g, i)
			if _, ok := db.Machines.Get(w.d, name); !ok {
				t.Errorf("lost write: %s", name)
			}
		}
	}
}

// TestRoutedQueriesOverRPC exercises section 5.2.D end to end: a second
// database attached to the server, reachable through qualified handles
// on the ordinary wire protocol.
func TestRoutedQueriesOverRPC(t *testing.T) {
	clk := clock.NewFake(time.Unix(600000000, 0))
	primary := queries.NewBootstrappedDB(clk)
	archive := queries.NewBootstrappedDB(clk)
	router := queries.NewRouter(primary)
	router.Attach("archive", archive)

	srv := New(Config{DB: primary, Clock: clk, Router: router})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Seed the archive directly.
	priv := &queries.Context{DB: archive, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "add_machine",
		[]string{"pdp.mit.edu", "VAX"}, func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}

	c, err := client.DialTimeout(addr.String(), 5*time.Second, clk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Disconnect() })
	// Qualified handle reads the archive.
	out, err := c.QueryAll("archive:get_machine", "PDP.MIT.EDU")
	if err != nil || len(out) != 1 {
		t.Fatalf("routed read: %v %v", out, err)
	}
	// Unqualified handle sees only the primary.
	if _, err := c.QueryAll("get_machine", "PDP.MIT.EDU"); err != mrerr.MrNoMatch {
		t.Errorf("primary read err = %v", err)
	}
	// Unknown database name fails like an unknown query.
	if _, err := c.QueryAll("nodb:get_machine", "*"); err != mrerr.MrNoHandle {
		t.Errorf("unknown db err = %v", err)
	}
	// Access requests route too.
	if err := c.Access("archive:get_machine", []string{"*"}); err != nil {
		t.Errorf("routed access err = %v", err)
	}
}
