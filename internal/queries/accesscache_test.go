package queries

import (
	"strconv"
	"testing"

	"moira/internal/mrerr"
)

func TestAccessCacheHitAndInvalidation(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "alice")
	alice := f.userCtx("alice")
	alice.EnableAccessCache()

	args := []string{"alice", "/bin/sh"}
	// First Access check populates the cache.
	if err := CheckAccess(alice, "update_user_shell", args); err != nil {
		t.Fatal(err)
	}
	if alice.AccessCacheLen() != 1 {
		t.Errorf("cache len = %d", alice.AccessCacheLen())
	}
	// Executing the query consumes the cached decision (and, being a
	// write, bumps the change sequence, invalidating the cache).
	if _, err := f.run(alice, "update_user_shell", args...); err != nil {
		t.Fatal(err)
	}
	// After the write, a stale lookup must re-check rather than reuse.
	if alice.cacheLookup("update_user_shell", args) {
		t.Error("cache served a stale entry after a database change")
	}
}

func TestAccessCacheNeverCachesDenials(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "alice")
	f.addUser(t, "bob")
	alice := f.userCtx("alice")
	alice.EnableAccessCache()

	// Denied: not cached.
	if err := CheckAccess(alice, "update_user_shell", []string{"bob", "/bin/sh"}); err != mrerr.MrPerm {
		t.Fatalf("err = %v", err)
	}
	if alice.AccessCacheLen() != 0 {
		t.Error("denial was cached")
	}
}

func TestAccessCacheDoesNotLeakAcrossRevocation(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "operator")
	f.mustRun(t, f.priv, "add_member_to_list", AdminList, "USER", "operator")
	op := f.userCtx("operator")
	op.EnableAccessCache()

	args := []string{"new.mit.edu", "VAX"}
	if err := CheckAccess(op, "add_machine", args); err != nil {
		t.Fatal(err)
	}
	// Revoke the capability before the query runs: the removal bumps the
	// change sequence, so the cached allow must not be honoured.
	f.mustRun(t, f.priv, "delete_member_from_list", AdminList, "USER", "operator")
	if _, err := f.run(op, "add_machine", args...); err != mrerr.MrPerm {
		t.Errorf("revoked capability still honoured: err = %v", err)
	}
}

func TestAccessCacheBounded(t *testing.T) {
	f := newFixture(t)
	f.addUser(t, "alice")
	alice := f.userCtx("alice")
	alice.EnableAccessCache()
	for i := 0; i < 400; i++ {
		args := []string{"alice", string(rune('a'+i%26)) + "/bin/sh"}
		CheckAccess(alice, "update_user_shell", args)
	}
	if n := alice.AccessCacheLen(); n > 256 {
		t.Errorf("cache grew unbounded: %d", n)
	}
}

// BenchmarkAccessCacheAblation measures the access cache against the
// scenario section 5.5 worries about: an access check that requires
// expanding nested lists. The operator's capability flows through a
// 200-deep chain of sublists with broad membership, so the uncached
// check walks the whole expansion every time.
func BenchmarkAccessCacheAblation(b *testing.B) {
	d := NewBootstrappedDB(nil)
	priv := &Context{DB: d, Privileged: true, App: "bench"}
	run := func(name string, args ...string) {
		if err := Execute(priv, name, args, func([]string) error { return nil }); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
	run("add_user", "operator", "-1", "/bin/csh", "Op", "Er", "", "1", "", "STAFF")
	// dbadmin ⊃ chain0 ⊃ chain1 ⊃ ... ⊃ chain199 ∋ operator, with filler
	// members at every level so the expansion has real width.
	prev := AdminList
	const depth = 200
	for i := 0; i < depth; i++ {
		name := "chain" + strconv.Itoa(i)
		run("add_list", name, "1", "0", "0", "0", "0", "0", "NONE", "NONE", "")
		run("add_member_to_list", prev, "LIST", name)
		run("add_member_to_list", name, "STRING", "filler-"+strconv.Itoa(i)+"@mit.edu")
		prev = name
	}
	run("add_member_to_list", prev, "USER", "operator")

	newCtx := func(cached bool) *Context {
		cx := &Context{DB: d, Principal: "operator", App: "bench"}
		cx.ResolveUser()
		if cached {
			cx.EnableAccessCache()
		}
		return cx
	}
	checkArgs := []string{"new.mit.edu", "VAX"}
	b.Run("uncached", func(b *testing.B) {
		cx := newCtx(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := CheckAccess(cx, "add_machine", checkArgs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cx := newCtx(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := CheckAccess(cx, "add_machine", checkArgs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
