package nfshost

import (
	"testing"

	"moira/internal/update"
)

func TestParseCredentials(t *testing.T) {
	data := []byte("mtalford:14956:5904:689\nmstai:9296:5899\n\n")
	creds, err := ParseCredentials(data)
	if err != nil {
		t.Fatal(err)
	}
	c := creds["mtalford"]
	if c.UID != 14956 || len(c.GIDs) != 2 || c.GIDs[0] != 5904 {
		t.Errorf("credential = %+v", c)
	}
	for _, bad := range []string{"nouid\n", "x:notanint\n", "x:1:notagid\n"} {
		if _, err := ParseCredentials([]byte(bad)); err == nil {
			t.Errorf("ParseCredentials(%q) succeeded", bad)
		}
	}
}

func TestParseQuotas(t *testing.T) {
	parse := func(data string) (map[int]int, error) {
		var q update.LineTable[int, int]
		p, err := q.Plan(nil, update.TextOf([]byte(data)), quotasParser)
		q.Commit(p)
		return q.Rows, err
	}
	q, err := parse("6530 300\n6531 500\n")
	if err != nil {
		t.Fatal(err)
	}
	if q[6530] != 300 || q[6531] != 500 {
		t.Errorf("quotas = %v", q)
	}
	if _, err := parse("garbage\n"); err == nil {
		t.Error("bad quota line accepted")
	}
}

// installFixture stages the NFS files on an agent and runs install_nfs.
func installFixture(t *testing.T) (*update.Agent, *Host) {
	t.Helper()
	a := update.NewAgent("FS-01.MIT.EDU", t.TempDir(), nil)
	h := NewHost("FS-01.MIT.EDU")
	AttachToAgent(a, h)

	write := func(p string, content string) {
		t.Helper()
		if err := a.WriteHostFile(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	write("/etc/athena/nfs/credentials", "babette:6530:10914\nkazimi:6533:10923:800\n")
	write("/etc/athena/nfs/u1.quotas", "6530 300\n6533 450\n")
	write("/etc/athena/nfs/u1.dirs",
		"/u1/babette 6530 10914 HOMEDIR\n/u1/proj 6533 800 PROJECT\n")
	return a, h
}

func TestInstallAppliesState(t *testing.T) {
	a, h := installFixture(t)
	if err := a.ExecCommand("install_nfs", []string{"/etc/athena/nfs", "/u1"}); err != nil {
		t.Fatal(err)
	}
	// Credentials loaded.
	if h.NumCredentials() != 2 {
		t.Errorf("credentials = %d", h.NumCredentials())
	}
	if c, ok := h.CredentialOf("kazimi"); !ok || c.UID != 6533 || len(c.GIDs) != 2 {
		t.Errorf("kazimi credential = %+v, %v", c, ok)
	}
	// Quotas applied per partition.
	if q, ok := h.QuotaOf("/u1", 6530); !ok || q != 300 {
		t.Errorf("quota 6530 = %d, %v", q, ok)
	}
	if _, ok := h.QuotaOf("/u2", 6530); ok {
		t.Error("quota on wrong partition")
	}
	// Lockers created; HOMEDIR got init files.
	l, ok := h.LockerAt("/u1/babette")
	if !ok || l.UID != 6530 || l.GID != 10914 || !l.Inits {
		t.Errorf("babette locker = %+v, %v", l, ok)
	}
	if data, err := a.ReadHostFile("/u1/babette/.cshrc"); err != nil || len(data) == 0 {
		t.Errorf("HOMEDIR init files missing: %v", err)
	}
	l, ok = h.LockerAt("/u1/proj")
	if !ok || l.Inits {
		t.Errorf("proj locker = %+v, %v", l, ok)
	}
	if h.Installs() != 1 {
		t.Errorf("installs = %d", h.Installs())
	}
}

func TestInstallIsIdempotentAndPreservesLockers(t *testing.T) {
	a, h := installFixture(t)
	if err := a.ExecCommand("install_nfs", []string{"/etc/athena/nfs", "/u1"}); err != nil {
		t.Fatal(err)
	}
	// User writes something into their locker.
	if err := a.WriteHostFile("/u1/babette/thesis.tex", []byte("draft")); err != nil {
		t.Fatal(err)
	}
	// Quota change arrives with the next propagation.
	if err := a.WriteHostFile("/etc/athena/nfs/u1.quotas", []byte("6530 800\n6533 450\n")); err != nil {
		t.Fatal(err)
	}
	if err := a.ExecCommand("install_nfs", []string{"/etc/athena/nfs", "/u1"}); err != nil {
		t.Fatal(err)
	}
	if q, _ := h.QuotaOf("/u1", 6530); q != 800 {
		t.Errorf("updated quota = %d", q)
	}
	// The locker contents survived: updates never clobber lockers.
	if data, err := a.ReadHostFile("/u1/babette/thesis.tex"); err != nil || string(data) != "draft" {
		t.Errorf("locker contents = %q, %v", data, err)
	}
	if h.NumLockers() != 2 {
		t.Errorf("lockers = %d", h.NumLockers())
	}
}

func TestInstallMissingFiles(t *testing.T) {
	a := update.NewAgent("FS-02.MIT.EDU", t.TempDir(), nil)
	h := NewHost("FS-02.MIT.EDU")
	AttachToAgent(a, h)
	if err := a.ExecCommand("install_nfs", []string{"/nowhere", "/u1"}); err == nil {
		t.Error("install with missing files succeeded")
	}
	if err := a.ExecCommand("install_nfs", []string{"/only-one-arg"}); err == nil {
		t.Error("install with wrong arity succeeded")
	}
}
