package server

import (
	"fmt"
	"sync"
	"testing"

	"moira/internal/client"
	"moira/internal/mrerr"
	"moira/internal/queries"
)

// adminWorld is newWorld plus an authenticated admin on the admin list,
// the setup every mutation-over-the-wire test needs.
func adminWorld(t *testing.T) (*world, *client.Client) {
	t.Helper()
	w := newWorld(t)
	w.addPerson(t, "admin", "adminpw")
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "add_member_to_list",
		[]string{queries.AdminList, "USER", "admin"}, func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return w, w.dialAs(t, "admin", "adminpw")
}

// TestServerBatchOverWire drives the v4 batch op end to end: one frame
// in, per-item codes out, successful items durably applied, failures
// isolated to their own slot.
func TestServerBatchOverWire(t *testing.T) {
	w, c := adminWorld(t)
	codes, err := c.Batch([]client.BatchItem{
		{Name: "add_machine", Args: []string{"batch-a.mit.edu", "VAX"}},
		{Name: "add_machine", Args: []string{"batch-a.mit.edu", "VAX"}}, // duplicate
		{Name: "add_machine", Args: []string{"too", "many", "args"}},
		{Name: "get_machine", Args: []string{"BATCH-A.MIT.EDU"}}, // retrieves can't batch
		{Name: "add_machine", Args: []string{"batch-b.mit.edu", "RT"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []mrerr.Code{mrerr.Success, mrerr.MrNotUnique, mrerr.MrArgs, mrerr.MrNoHandle, mrerr.Success}
	if len(codes) != len(want) {
		t.Fatalf("codes = %v, want %v", codes, want)
	}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
	// The successes landed.
	for _, name := range []string{"BATCH-A.MIT.EDU", "BATCH-B.MIT.EDU"} {
		out, err := c.QueryAll("get_machine", name)
		if err != nil || len(out) != 1 {
			t.Fatalf("get_machine %s after batch: %v %v", name, out, err)
		}
	}
	_ = w
}

// TestServerBatchUnauthenticated: every item is refused by the access
// check, none applied — the per-item contract holds for failures too.
func TestServerBatchUnauthenticated(t *testing.T) {
	w := newWorld(t)
	c := w.dial(t)
	codes, err := c.Batch([]client.BatchItem{
		{Name: "add_machine", Args: []string{"nope.mit.edu", "VAX"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 1 || codes[0] != mrerr.MrPerm {
		t.Fatalf("codes = %v, want [MrPerm]", codes)
	}
	if err := c.Query("get_machine", []string{"NOPE.MIT.EDU"}, nil); err != mrerr.MrNoMatch {
		t.Errorf("refused item was applied anyway: %v", err)
	}
}

// TestServerBatchReadonly: a read-only server refuses the whole batch
// up front.
func TestServerBatchReadonly(t *testing.T) {
	w, c := adminWorld(t)
	w.srv.SetReadOnly(true)
	_, err := c.Batch([]client.BatchItem{
		{Name: "add_machine", Args: []string{"ro.mit.edu", "VAX"}},
	})
	if err != mrerr.MrReadonly {
		t.Fatalf("batch against read-only server err = %v, want MrReadonly", err)
	}
}

// TestServerBatchTooLarge: MaxBatch bounds the work one frame can
// demand.
func TestServerBatchTooLarge(t *testing.T) {
	w, c := adminWorld(t)
	w.srv.cfg.MaxBatch = 2
	items := []client.BatchItem{
		{Name: "add_machine", Args: []string{"m1.mit.edu", "VAX"}},
		{Name: "add_machine", Args: []string{"m2.mit.edu", "VAX"}},
		{Name: "add_machine", Args: []string{"m3.mit.edu", "VAX"}},
	}
	if _, err := c.Batch(items); err != mrerr.MrArgTooLong {
		t.Fatalf("oversized batch err = %v, want MrArgTooLong", err)
	}
	if _, err := c.Batch(items[:2]); err != nil {
		t.Fatalf("batch at the limit: %v", err)
	}
}

// TestServerPipelinedQueries: 16 goroutines share one Client, each
// repeatedly querying its own machine and checking it got its own
// answer back — the turn and tag-echo path against the real server.
func TestServerPipelinedQueries(t *testing.T) {
	w := newWorld(t)
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	const callers = 16
	for i := 0; i < callers; i++ {
		if err := queries.Execute(priv, "add_machine",
			[]string{fmt.Sprintf("pipe-%d.mit.edu", i), "VAX"},
			func([]string) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	p := w.dial(t)
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("PIPE-%d.MIT.EDU", i)
			for rep := 0; rep < 50; rep++ {
				var got string
				err := p.Query("get_machine", []string{name}, func(tuple []string) error {
					got = tuple[0]
					return nil
				})
				if err != nil {
					errs[i] = err
					return
				}
				if got != name {
					errs[i] = fmt.Errorf("asked for %s, read %s", name, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
}

// TestServerPipelinedAuth: Auth is applied in receive order, so calls
// issued after it completes run as the principal, pipelined ones
// included.
func TestServerPipelinedAuth(t *testing.T) {
	w := newWorld(t)
	w.addPerson(t, "admin", "adminpw")
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	if err := queries.Execute(priv, "add_member_to_list",
		[]string{queries.AdminList, "USER", "admin"}, func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p := w.dialAs(t, "admin", "adminpw")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("authed-%d.mit.edu", i)
			codes, err := p.Batch([]client.BatchItem{{Name: "add_machine", Args: []string{name, "VAX"}}})
			if err == nil && (len(codes) != 1 || codes[0] != mrerr.Success) {
				err = fmt.Errorf("codes = %v", codes)
			}
			if err == nil {
				err = p.Query("get_machine", []string{name}, nil)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("authed pipelined caller %d: %v", i, err)
		}
	}
}
