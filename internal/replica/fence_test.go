package replica

import (
	"os"
	"testing"

	"moira/internal/db"
)

// openUnstarted opens a peerless cluster node without starting its role
// loop, so the test steps the transitions itself, and records the role
// Role() reports at each OnRole delivery that closes the write gate for
// a fence.
func openUnstarted(t *testing.T) (*Cluster, *[]string) {
	t.Helper()
	var c *Cluster
	var seen []string
	c, _, err := OpenCluster(ClusterConfig{
		Root:    t.TempDir(),
		Journal: db.JournalOptions{Policy: db.SyncEveryCommit},
		Clock:   staticClock{instant},
		OnRole: func(role string, readonly bool) {
			if role == RoleFenced && readonly {
				seen = append(seen, c.Role())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, &seen
}

// TestFenceReadOnlyBeforeFenced: the server's write gate closes before
// the fenced role becomes visible, so _whois and /readyz can never say
// "fenced" while a write is still admitted (DESIGN.md: fenced implies
// read-only). The hook runs outside the cluster lock — it calls Role().
func TestFenceReadOnlyBeforeFenced(t *testing.T) {
	c, seen := openUnstarted(t)
	if err := c.promote(1, "boot", nil); err != nil {
		t.Fatal(err)
	}
	c.fence("lease-expired")
	if got := c.Role(); got != RoleFenced {
		t.Fatalf("role after fence = %s", got)
	}
	if len(*seen) != 1 || (*seen)[0] != RolePrimary {
		t.Errorf("read-only delivered while Role() reported %v, want [primary]", *seen)
	}
}

// TestFailedPromotionReadOnlyBeforeFenced: a promotion that fails falls
// to fenced the same way — read-only first.
func TestFailedPromotionReadOnlyBeforeFenced(t *testing.T) {
	c, seen := openUnstarted(t)
	// A journal directory that is a file: the primary journal cannot open.
	dir := c.dd.JournalDir()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.promote(1, "boot", nil); err == nil {
		t.Fatal("promotion over an unopenable journal succeeded")
	}
	if got := c.Role(); got != RoleFenced {
		t.Fatalf("role after failed promotion = %s", got)
	}
	if len(*seen) != 1 || (*seen)[0] != RoleReplica {
		t.Errorf("read-only delivered while Role() reported %v, want [replica]", *seen)
	}
}
