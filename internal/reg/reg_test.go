package reg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
)

// rig builds a database with POP and NFS infrastructure (register_user's
// needs), a KDC, and a running registration server.
type rig struct {
	d    *db.DB
	kdc  *kerberos.KDC
	srv  *Server
	addr string
	priv *queries.Context
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clk := clock.NewFake(time.Unix(600000000, 0))
	d := queries.NewBootstrappedDB(clk)
	priv := &queries.Context{DB: d, Privileged: true, App: "test"}
	must := func(name string, args ...string) {
		t.Helper()
		if err := queries.Execute(priv, name, args, func([]string) error { return nil }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	must("add_machine", "athena-po-1.mit.edu", "VAX")
	must("add_machine", "fs-01.mit.edu", "VAX")
	must("add_server_info", "POP", "720", "/tmp/po", "/etc/po", "UNIQUE", "1", "NONE", "NONE")
	must("add_server_host_info", "POP", "ATHENA-PO-1.MIT.EDU", "1", "0", "1000", "")
	must("add_nfsphys", "FS-01.MIT.EDU", "/u1", "ra0c", "1", "0", "100000")

	kdc := kerberos.NewKDC("ATHENA.MIT.EDU", clk)
	srv := NewServer(d, kdc, clk)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &rig{d: d, kdc: kdc, srv: srv, addr: addr.String(), priv: priv}
}

const tape = `# registrar tape for fall 1988
Zimmermann:Martin::123-45-6789:1990
Fowler:Harmon:C:987-65-4321:1991
Barba:Angela::111-22-3333:G
`

func (r *rig) loadTape(t *testing.T) []TapeEntry {
	t.Helper()
	entries, err := ParseTape(strings.NewReader(tape))
	if err != nil {
		t.Fatal(err)
	}
	added, skipped, err := LoadTape(r.priv, entries)
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 || skipped != 0 {
		t.Fatalf("added %d skipped %d", added, skipped)
	}
	return entries
}

func TestParseTape(t *testing.T) {
	entries, err := ParseTape(strings.NewReader(tape))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].First != "Martin" || entries[0].Last != "Zimmermann" || entries[0].Class != "1990" {
		t.Errorf("entry = %+v", entries[0])
	}
	if _, err := ParseTape(strings.NewReader("too:few:fields\n")); err == nil {
		t.Error("malformed tape accepted")
	}
}

func TestLoadTapeIdempotent(t *testing.T) {
	r := newRig(t)
	r.loadTape(t)
	entries, _ := ParseTape(strings.NewReader(tape))
	added, skipped, err := LoadTape(r.priv, entries)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || skipped != 3 {
		t.Errorf("second load: added %d skipped %d", added, skipped)
	}
	// Tape entries carry placeholder logins and status 0.
	r.d.LockShared()
	defer r.d.UnlockShared()
	count := 0
	r.d.EachUser(func(u *db.User) bool {
		if strings.HasPrefix(u.Login, "#") {
			count++
			if u.Status != db.UserRegisterable {
				t.Errorf("%s status = %d", u.Login, u.Status)
			}
			if u.MITID == "" {
				t.Errorf("%s has no encrypted ID", u.Login)
			}
		}
		return true
	})
	if count != 3 {
		t.Errorf("placeholder accounts = %d", count)
	}
}

func TestAuthenticatorRoundTrip(t *testing.T) {
	hash := kerberos.HashMITID("123-45-6789", "Martin", "Zimmermann")
	blob := BuildAuthenticator("123-45-6789", hash, "kazimi")
	id, extras, err := openAuthenticator(hash, "MZ", blob)
	if err != nil {
		t.Fatal(err)
	}
	if id != "123456789" || len(extras) != 1 || extras[0] != "kazimi" {
		t.Errorf("opened = %q %v", id, extras)
	}
	// Wrong hash (wrong ID knowledge) fails.
	wrong := kerberos.HashMITID("999-99-9999", "Martin", "Zimmermann")
	if _, _, err := openAuthenticator(wrong, "MZ", blob); err != mrerr.RegBadAuth {
		t.Errorf("wrong-hash err = %v", err)
	}
	// Tampered blob fails.
	blob[0] ^= 0xff
	if _, _, err := openAuthenticator(hash, "MZ", blob); err != mrerr.RegBadAuth {
		t.Errorf("tampered err = %v", err)
	}
}

func TestFullRegistrationFlow(t *testing.T) {
	r := newRig(t)
	r.loadTape(t)
	timeout := 2 * time.Second

	// 1. verify_user.
	code, status, err := VerifyUser(r.addr, "Martin", "Zimmermann", "123-45-6789", timeout)
	if err != nil || code != mrerr.Success {
		t.Fatalf("verify: %v / %v", code, err)
	}
	if status != db.UserRegisterable {
		t.Errorf("status = %d", status)
	}

	// 2. grab_login.
	code, err = GrabLogin(r.addr, "Martin", "Zimmermann", "123-45-6789", "kazimi", timeout)
	if err != nil || code != mrerr.Success {
		t.Fatalf("grab: %v / %v", code, err)
	}
	// The account is half-registered with resources allocated.
	r.d.LockShared()
	u, ok := r.d.UserByLogin("kazimi")
	r.d.UnlockShared()
	if !ok || u.Status != db.UserHalfRegistered {
		t.Fatalf("kazimi = %+v, %v", u, ok)
	}
	if u.PoType != db.PoboxPOP {
		t.Errorf("pobox type = %s", u.PoType)
	}
	// The name is reserved in Kerberos.
	if !r.kdc.Exists("kazimi") {
		t.Error("kerberos principal not reserved")
	}

	// 3. set_password.
	code, err = SetPassword(r.addr, "Martin", "Zimmermann", "123-45-6789", "mewling.quim", timeout)
	if err != nil || code != mrerr.Success {
		t.Fatalf("set_password: %v / %v", code, err)
	}
	r.d.LockShared()
	u, _ = r.d.UserByLogin("kazimi")
	r.d.UnlockShared()
	if u.Status != db.UserActive {
		t.Errorf("final status = %d", u.Status)
	}
	// The password actually works against the KDC.
	if err := r.kdc.AddPrincipal("some.service", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.kdc.GetTicket("kazimi", "mewling.quim", "some.service"); err != nil {
		t.Errorf("ticket with new password: %v", err)
	}
}

func TestRegistrationErrors(t *testing.T) {
	r := newRig(t)
	r.loadTape(t)
	timeout := 2 * time.Second

	// Unknown student.
	code, _, err := VerifyUser(r.addr, "No", "Body", "000-00-0000", timeout)
	if err != nil || code != mrerr.RegNotFound {
		t.Errorf("unknown verify = %v / %v", code, err)
	}
	// Right name, wrong ID: the authenticator cannot be opened.
	code, _, err = VerifyUser(r.addr, "Martin", "Zimmermann", "999-99-9999", timeout)
	if err != nil || code != mrerr.RegBadAuth {
		t.Errorf("wrong-id verify = %v / %v", code, err)
	}
	// Login collisions: register one student, then try to take the name.
	if code, _ := GrabLogin(r.addr, "Martin", "Zimmermann", "123-45-6789", "popular", timeout); code != mrerr.Success {
		t.Fatalf("first grab = %v", code)
	}
	code, err = GrabLogin(r.addr, "Harmon", "Fowler", "987-65-4321", "popular", timeout)
	if err != nil || code != mrerr.RegLoginTaken {
		t.Errorf("collision grab = %v / %v", code, err)
	}
	// set_password before grab_login.
	code, err = SetPassword(r.addr, "Angela", "Barba", "111-22-3333", "pw", timeout)
	if err != nil || code != mrerr.RegNotHalfRegistered {
		t.Errorf("early set_password = %v / %v", code, err)
	}
	// Re-verification of a registered student.
	code, _, err = VerifyUser(r.addr, "Martin", "Zimmermann", "123-45-6789", timeout)
	if err != nil || code != mrerr.RegAlreadyRegistered {
		t.Errorf("re-verify = %v / %v", code, err)
	}
	// Bad login shapes.
	if code, _ := GrabLogin(r.addr, "Harmon", "Fowler", "987-65-4321", "xy", timeout); code != mrerr.RegBadLogin {
		t.Errorf("short login = %v", code)
	}
	if code, _ := GrabLogin(r.addr, "Harmon", "Fowler", "987-65-4321", "waytoolonglogin", timeout); code != mrerr.RegBadLogin {
		t.Errorf("long login = %v", code)
	}
}

// TestForeignVersionDatagramRefused: a datagram stamped another protocol
// version is answered MR_VERSION_MISMATCH at the server's own version
// and never executed — here a well-authenticated grab_login in the bare
// three-field shape, which must not register the login.
func TestForeignVersionDatagramRefused(t *testing.T) {
	r := newRig(t)
	r.loadTape(t)
	hash := kerberos.HashMITID("123-45-6789", "Martin", "Zimmermann")
	fields := [][]byte{[]byte("Martin"), []byte("Zimmermann"),
		BuildAuthenticator("123-45-6789", hash, "kazimi")}

	for _, v := range []uint16{1, protocol.Version + 1} {
		// u32 payloadLen | u16 version | u16 op | u32 nFields | (u32 len | bytes)*
		payload := binary.BigEndian.AppendUint16(nil, v)
		payload = binary.BigEndian.AppendUint16(payload, ReqGrabLogin)
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(fields)))
		for _, f := range fields {
			payload = binary.BigEndian.AppendUint32(payload, uint32(len(f)))
			payload = append(payload, f...)
		}
		dgram := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)

		conn, err := net.Dial("udp", r.addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Write(dgram); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		n, err := conn.Read(buf)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := protocol.ReadReply(bufio.NewReader(bytes.NewReader(buf[:n])))
		if err != nil {
			t.Fatal(err)
		}
		if mrerr.Code(rep.Code) != mrerr.MrVersionMismatch || rep.Version != protocol.Version {
			t.Errorf("v%d datagram: reply v%d code %d, want v%d MR_VERSION_MISMATCH",
				v, rep.Version, rep.Code, protocol.Version)
		}
		if r.kdc.Exists("kazimi") {
			t.Fatalf("v%d datagram was executed: login registered", v)
		}
	}
}
