package queries

import (
	"testing"

	"moira/internal/mrerr"
)

func TestRouterResolve(t *testing.T) {
	f := newFixture(t)
	archive := NewBootstrappedDB(f.clk)
	r := NewRouter(f.d)
	r.Attach("archive", archive)

	d, q, err := r.Resolve("get_machine")
	if err != nil || d != f.d || q != "get_machine" {
		t.Errorf("unqualified resolve = %v %q %v", d == f.d, q, err)
	}
	d, q, err = r.Resolve("archive:get_machine")
	if err != nil || d != archive || q != "get_machine" {
		t.Errorf("qualified resolve = %v %q %v", d == archive, q, err)
	}
	if _, _, err := r.Resolve("nodb:get_machine"); err != mrerr.MrNoHandle {
		t.Errorf("unknown db err = %v", err)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "archive" {
		t.Errorf("names = %v", names)
	}
	r.Detach("archive")
	if len(r.Names()) != 0 {
		t.Error("detach failed")
	}
}

func TestExecuteRoutedIsolatesDatabases(t *testing.T) {
	f := newFixture(t)
	archive := NewBootstrappedDB(f.clk)
	r := NewRouter(f.d)
	r.Attach("archive", archive)

	collect := func(handle string, args ...string) ([][]string, error) {
		var out [][]string
		err := execRouted(f.priv, r, handle, args, func(tp []string) error {
			cp := make([]string, len(tp))
			copy(cp, tp)
			out = append(out, cp)
			return nil
		})
		return out, err
	}

	// A machine written through the routed handle lands in the archive
	// only.
	if _, err := collect("archive:add_machine", "old-vax.mit.edu", "VAX"); err != nil {
		t.Fatal(err)
	}
	if _, err := collect("archive:get_machine", "OLD-VAX.MIT.EDU"); err != nil {
		t.Errorf("archive read: %v", err)
	}
	if _, err := collect("get_machine", "OLD-VAX.MIT.EDU"); err != mrerr.MrNoMatch {
		t.Errorf("primary read err = %v", err)
	}
	// And vice versa: the fixture's machines are invisible to the archive.
	if _, err := collect("archive:get_machine", "CHARON.MIT.EDU"); err != mrerr.MrNoMatch {
		t.Errorf("archive miss err = %v", err)
	}
	if _, err := collect("get_machine", "CHARON.MIT.EDU"); err != nil {
		t.Errorf("primary hit err = %v", err)
	}
}

func TestRoutedIdentityResolvedPerDatabase(t *testing.T) {
	f := newFixture(t)
	archive := NewBootstrappedDB(f.clk)
	r := NewRouter(f.d)
	r.Attach("archive", archive)

	// alice exists only in the primary database.
	f.addUser(t, "alice")
	alice := f.userCtx("alice")

	// Against the primary, she may change her own shell.
	if err := execRouted(alice, r, "update_user_shell",
		[]string{"alice", "/bin/sh"}, func([]string) error { return nil }); err != nil {
		t.Errorf("primary self-service: %v", err)
	}
	// Against the archive she is nobody: the self rule cannot resolve a
	// user record, so the write is refused there.
	err := execRouted(alice, r, "archive:update_user_shell",
		[]string{"alice", "/bin/sh"}, func([]string) error { return nil })
	if err == nil {
		t.Error("archive write by unknown principal succeeded")
	}
	// Privileged contexts work everywhere (the DCM's direct library).
	if err := execRouted(f.priv, r, "archive:add_machine",
		[]string{"m.mit.edu", "VAX"}, func([]string) error { return nil }); err != nil {
		t.Errorf("privileged routed write: %v", err)
	}
	// Access checks route the same way.
	if err := checkAccessRouted(alice, r, "archive:add_machine",
		[]string{"x.mit.edu", "VAX"}); err != mrerr.MrPerm {
		t.Errorf("routed access err = %v", err)
	}
	if err := checkAccessRouted(alice, r, "update_user_shell",
		[]string{"alice", "/bin/csh"}); err != nil {
		t.Errorf("unqualified routed access err = %v", err)
	}
}

// execRouted and checkAccessRouted run a query and an access check the
// way the server does with a Router.
func execRouted(cx *Context, r *Router, handle string, args []string, emit EmitFunc) error {
	rc, query, err := r.Route(cx, handle)
	if err != nil {
		return err
	}
	return Execute(rc, query, args, emit)
}

func checkAccessRouted(cx *Context, r *Router, handle string, args []string) error {
	rc, query, err := r.Route(cx, handle)
	if err != nil {
		return err
	}
	return CheckAccess(rc, query, args)
}
