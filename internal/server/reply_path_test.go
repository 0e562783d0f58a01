package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"moira/internal/client"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
)

// TestServerOversizedRequest: a request the encoder refuses (here a
// 17 MB argument, over protocol.MaxFrame) fails that call alone with
// MR_ARG_TOO_LONG. Nothing was written, so the authenticated connection
// keeps serving, and so do the calls pipelined beside it.
func TestServerOversizedRequest(t *testing.T) {
	_, c := adminWorld(t)
	huge := strings.Repeat("x", 17<<20)
	if err := c.Query("get_user_by_login", []string{huge}, nil); err != mrerr.MrArgTooLong {
		t.Fatalf("17 MB argument on a Client: %v, want MR_ARG_TOO_LONG", err)
	}
	// add_machine needs the admin principal: the connection kept it.
	if err := c.Query("add_machine", []string{"after-huge.mit.edu", "VAX"}, nil); err != nil {
		t.Fatalf("authenticated call after the refused one: %v", err)
	}
	if n := c.Reconnects(); n != 0 {
		t.Errorf("client reconnected %d times", n)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if i == 0 {
					if err := c.Query("get_user_by_login", []string{huge}, nil); err != mrerr.MrArgTooLong {
						errs[i] = fmt.Errorf("17 MB argument: %v, want MR_ARG_TOO_LONG", err)
						return
					}
				} else if err := c.Query("get_machine", []string{"AFTER-HUGE.MIT.EDU"}, nil); err != nil {
					errs[i] = fmt.Errorf("pipelined beside the refused one: %v", err)
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
	if n := c.Reconnects(); n != 0 {
		t.Errorf("client reconnected %d times", n)
	}
}

// TestServerBatchTooManyFields: DefaultMaxBatch three-argument
// mutations are a legal batch, but flattened they are 5,121 arguments,
// more fields than protocol.MaxFields lets a reader accept. The writer
// refuses the frame with MR_ARG_TOO_LONG instead of sending one the
// server must drop the connection over.
func TestServerBatchTooManyFields(t *testing.T) {
	_, c := adminWorld(t)
	items := make([]client.BatchItem, DefaultMaxBatch)
	for i := range items {
		items[i] = client.BatchItem{Name: "add_member_to_list",
			Args: []string{queries.AdminList, "USER", fmt.Sprintf("u%d", i)}}
	}
	if _, err := c.Batch(items); err != mrerr.MrArgTooLong {
		t.Fatalf("batch of %d three-argument items: %v, want MR_ARG_TOO_LONG", len(items), err)
	}
	codes, err := c.Batch([]client.BatchItem{{Name: "add_machine", Args: []string{"after-batch.mit.edu", "VAX"}}})
	if err != nil || len(codes) != 1 || codes[0] != mrerr.Success {
		t.Fatalf("batch on the same connection afterwards: %v %v", codes, err)
	}

}

// replyPathWorld is an admin connection to a server holding users
// rpa0000-rpa0999 and rpb0000-rpb0009, a mailing list rpl0 of the ten
// rpb users, and lists rpl1-rpl3 holding rpb0001 too.
func replyPathWorld(t *testing.T) (*world, *client.Client) {
	w, c := adminWorld(t)
	priv := &queries.Context{DB: w.d, Privileged: true, App: "test"}
	run := func(handle string, args ...string) {
		t.Helper()
		if err := queries.Execute(priv, handle, args, func([]string) error { return nil }); err != nil {
			t.Fatalf("%s %q: %v", handle, args, err)
		}
	}
	for _, set := range []struct {
		prefix string
		n      int
	}{{"rpa", 1000}, {"rpb", 10}} {
		for i := 0; i < set.n; i++ {
			run("add_user", fmt.Sprintf("%s%04d", set.prefix, i), "-1", "/bin/csh", "Last", "First", "", "1", "x", "STAFF")
		}
	}
	for i := 0; i < 4; i++ {
		run("add_list", fmt.Sprintf("rpl%d", i), "1", "1", "0", "1", "0", "-1", "USER", "admin", "reply path")
	}
	for i := 0; i < 10; i++ {
		run("add_member_to_list", "rpl0", "USER", fmt.Sprintf("rpb%04d", i))
	}
	for i := 1; i < 4; i++ {
		run("add_member_to_list", fmt.Sprintf("rpl%d", i), "USER", "rpb0001")
	}
	return w, c
}

// TestReplyPathAllocs pins what the reply path costs per tuple, with a
// loopback server and client in one process (allocation counts are
// process-wide, so both ends are in them). A wildcard retrieval of N
// user tuples minus the same query run in-process (the handler's own
// allocations) leaves the codec plus a fixed per-call cost; its growth
// from N = 10 to N = 1,000 is the codec's per-tuple cost: one string
// per tuple on the client, nothing on the server, integer columns
// included. A point query's whole round trip stays under a ceiling.
func TestReplyPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	w, c := replyPathWorld(t)
	direct := &queries.Context{DB: w.d, Principal: "admin", App: "test"}
	direct.ResolveUser()

	codec := func(pattern string, want int) float64 {
		t.Helper()
		got := 0
		count := func([]string) error { got++; return nil }
		rpc := testing.AllocsPerRun(20, func() {
			if err := c.Query("get_user_by_login", []string{pattern}, count); err != nil {
				t.Fatal(err)
			}
		})
		handler := testing.AllocsPerRun(20, func() {
			if err := queries.Execute(direct, "get_user_by_login", []string{pattern}, count); err != nil {
				t.Fatal(err)
			}
		})
		if got != 2*21*want { // AllocsPerRun adds a warm-up run
			t.Fatalf("%s: %d tuples over %d runs, want %d each", pattern, got, 2*21, want)
		}
		return rpc - handler
	}
	small, large := codec("rpb*", 10), codec("rpa*", 1000)
	perTuple := (large - small) / 990
	t.Logf("codec allocations beyond the handler: %.0f at N=10, %.0f at N=1000 (%.3f per tuple)", small, large, perTuple)
	if perTuple < 0.95 || perTuple > 1.05 {
		t.Errorf("reply codec costs %.3f allocations per tuple, want 1 (one string on the client, none on the server)", perTuple)
	}

	// The split between the two ends: the server's field encoder
	// allocates nothing, integers included, and the client's
	// reuse-buffer decode one string per tuple.
	tuple := []protocol.Field{protocol.Text("rpa0001"), protocol.Int(6530), protocol.Text("/bin/csh"),
		protocol.Text("Last"), protocol.Text("First"), protocol.Text(""), protocol.Int(1),
		protocol.Text("x"), protocol.Text("STAFF"), protocol.Int(600000000), protocol.Int(-1)}
	if n := testing.AllocsPerRun(100, func() {
		if err := protocol.WriteReplyFields(io.Discard, 1, int32(mrerr.MrMoreData), tuple); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("server tuple encode: %.0f allocations, want 0", n)
	}
	var wire bytes.Buffer
	const frames = 100
	for i := 0; i < frames; i++ {
		if err := protocol.WriteReplyFields(&wire, 1, int32(mrerr.MrMoreData), tuple); err != nil {
			t.Fatal(err)
		}
	}
	raw := wire.Bytes()
	src := bytes.NewReader(raw)
	fr := protocol.NewFrameReader(bufio.NewReaderSize(src, 64<<10))
	var out []string
	decode := func() {
		src.Reset(raw)
		for i := 0; i < frames; i++ {
			rep, err := fr.ReadReply()
			if err != nil {
				t.Fatal(err)
			}
			out = rep.AppendStrings(out[:0])
		}
	}
	decode() // grow the reader's buffers and out
	if n := testing.AllocsPerRun(10, decode); n != frames {
		t.Errorf("client decode of %d tuples: %.0f allocations, want %d", frames, n, frames)
	}

	// Whole round trip of one indexed read, both ends, no tracer.
	// Measured at 14-16: the count moves with where the scheduler places
	// the two ends, since a pooled buffer Put on one P is not found by a
	// Get on another.
	const pointCeiling = 18
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Query("get_user_by_login", []string{"rpa0001"}, func([]string) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}); n > pointCeiling {
		t.Errorf("get_user_by_login round trip: %.0f allocations, ceiling %d", n, pointCeiling)
	}
}

// TestRangeReadAllocCeilings pins the whole round trip, both ends, no
// tracer, of the three range reads the benchmark's query_range drives:
// the point read's fixed cost plus one client string per tuple (and
// for get_lists_of_member the list ids it reads). The ceilings are the
// measured counts (24-25, 24-25 and 21) plus the point read's margin
// for pool misses.
func TestRangeReadAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	_, c := replyPathWorld(t)
	for _, rt := range []struct {
		handle string
		args   []string
		tuples int
		ceil   float64
	}{
		{"get_user_by_login", []string{"rpb*"}, 10, 28},
		{"get_members_of_list", []string{"rpl0"}, 10, 28},
		{"get_lists_of_member", []string{"USER", "rpb0001"}, 4, 24},
	} {
		got := 0
		n := testing.AllocsPerRun(100, func() {
			if err := c.Query(rt.handle, rt.args, func([]string) error { got++; return nil }); err != nil {
				t.Fatal(err)
			}
		})
		if got != 101*rt.tuples {
			t.Fatalf("%s %q: %d tuples over 101 runs, want %d each", rt.handle, rt.args, got, rt.tuples)
		}
		t.Logf("%s %q round trip: %.1f allocations for %d tuples", rt.handle, rt.args, n, rt.tuples)
		if n > rt.ceil {
			t.Errorf("%s %q round trip: %.1f allocations, ceiling %.0f", rt.handle, rt.args, n, rt.ceil)
		}
	}
}
