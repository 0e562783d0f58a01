// Package reg implements new user registration (section 5.10): the
// special registration server process on the Moira database machine that
// listens on a UDP port for verify_user, grab_login, and set_password
// requests, plus the registrar-tape bulk load and the userreg client
// flow.
//
// The authenticator is the paper's: the student's ID number and its
// crypt() hash (and, for the second and third requests, the desired
// login or password) encrypted under a DES key derived from the hashed
// ID — so only someone who knows the full ID number can register the
// account, and the server can check it against the hash stored from the
// registrar's tape.
package reg

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"time"

	"moira/internal/clock"
	"moira/internal/db"
	"moira/internal/kerberos"
	"moira/internal/mrerr"
	"moira/internal/protocol"
	"moira/internal/queries"
)

// Request types on the registration port.
const (
	ReqVerifyUser  uint16 = 1
	ReqGrabLogin   uint16 = 2
	ReqSetPassword uint16 = 3
)

// BuildAuthenticator seals {IDnumber, hashIDnumber, extra...} under a key
// derived from hashIDnumber, per the paper's construction. The caller
// computes hashID with kerberos.HashMITID.
func BuildAuthenticator(idNumber, hashID string, extra ...string) []byte {
	var buf bytes.Buffer
	fields := append([]string{stripID(idNumber), hashID}, extra...)
	for _, f := range fields {
		var n [4]byte
		n[0] = byte(len(f) >> 24)
		n[1] = byte(len(f) >> 16)
		n[2] = byte(len(f) >> 8)
		n[3] = byte(len(f))
		buf.Write(n[:])
		buf.WriteString(f)
	}
	return kerberos.Seal(kerberos.StringToKey(hashID), buf.Bytes())
}

// openAuthenticator decrypts a blob under the stored hash and returns the
// plaintext ID and extras. Verification: the embedded hash must equal the
// stored hash, and crypt(embedded ID) must also reproduce it.
func openAuthenticator(storedHash, salt string, blob []byte) (id string, extras []string, err error) {
	plain, err := kerberos.Open(kerberos.StringToKey(storedHash), blob)
	if err != nil {
		return "", nil, mrerr.RegBadAuth
	}
	var fields []string
	for len(plain) > 0 {
		if len(plain) < 4 {
			return "", nil, mrerr.RegBadAuth
		}
		n := int(plain[0])<<24 | int(plain[1])<<16 | int(plain[2])<<8 | int(plain[3])
		plain = plain[4:]
		if n < 0 || n > len(plain) {
			return "", nil, mrerr.RegBadAuth
		}
		fields = append(fields, string(plain[:n]))
		plain = plain[n:]
	}
	if len(fields) < 2 || fields[1] != storedHash {
		return "", nil, mrerr.RegBadAuth
	}
	last7 := fields[0]
	if len(last7) > 7 {
		last7 = last7[len(last7)-7:]
	}
	if kerberos.Crypt(last7, salt) != storedHash {
		return "", nil, mrerr.RegBadAuth
	}
	return fields[0], fields[2:], nil
}

func stripID(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		if id[i] != '-' && id[i] != ' ' {
			out = append(out, id[i])
		}
	}
	return string(out)
}

// Server is the registration server.
type Server struct {
	DB  *db.DB
	KDC *kerberos.KDC
	Clk clock.Clock
	// FSType is the partition class for newly registered users' lockers
	// (util.FSStudent by default).
	FSType int
	// Logf logs registrations; nil discards.
	Logf func(format string, args ...any)

	conn *net.UDPConn
	wg   sync.WaitGroup
}

// NewServer creates a registration server over the given database and
// Kerberos admin connection.
func NewServer(d *db.DB, kdc *kerberos.KDC, clk clock.Clock) *Server {
	if clk == nil {
		clk = clock.System
	}
	return &Server{DB: d, KDC: kdc, Clk: clk, FSType: 1,
		Logf: func(string, ...any) {}}
}

// Listen binds the UDP registration port and serves in the background.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	s.conn = conn
	s.wg.Add(1)
	go s.serve()
	return conn.LocalAddr(), nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr {
	if s.conn == nil {
		return nil
	}
	return s.conn.LocalAddr()
}

// Close stops the server.
func (s *Server) Close() error {
	var err error
	if s.conn != nil {
		err = s.conn.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serve() {
	defer s.wg.Done()
	buf := make([]byte, 8192)
	for {
		n, peer, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		req, err := protocol.ReadRequest(bufio.NewReader(bytes.NewReader(buf[:n])))
		if err != nil {
			continue
		}
		code, status := s.handle(req)
		var out bytes.Buffer
		protocol.WriteReply(&out, &protocol.Reply{
			Version: protocol.Version,
			Code:    int32(code),
			Fields:  [][]byte{[]byte{byte(status)}},
		})
		s.conn.WriteToUDP(out.Bytes(), peer)
	}
}

// findUser locates the registration candidate by name and checks the
// authenticator against the stored encrypted MIT ID.
func (s *Server) findUser(first, last string, blob []byte) (*db.User, []string, error) {
	d := s.DB
	d.LockShared()
	defer d.UnlockShared()
	salt := saltOf(first, last)
	var found *db.User
	var extras []string
	var authErr error
	d.EachUser(func(u *db.User) bool {
		if u.First != first || u.Last != last || u.MITID == "" {
			return true
		}
		if _, ex, err := openAuthenticator(u.MITID, salt, blob); err == nil {
			found = u
			extras = ex
			return false
		} else {
			authErr = err
		}
		return true
	})
	if found == nil {
		if authErr != nil {
			return nil, nil, mrerr.RegBadAuth
		}
		return nil, nil, mrerr.RegNotFound
	}
	return found, extras, nil
}

func saltOf(first, last string) string {
	f, l := byte('.'), byte('.')
	if len(first) > 0 {
		f = first[0]
	}
	if len(last) > 0 {
		l = last[0]
	}
	return string([]byte{f, l})
}

func (s *Server) handle(req *protocol.Request) (mrerr.Code, int) {
	if req.Version != protocol.Version {
		return mrerr.MrVersionMismatch, 0
	}
	args := req.Args
	if len(args) != 3 {
		return mrerr.MrArgs, 0
	}
	first, last, blob := string(args[0]), string(args[1]), args[2]

	u, extras, err := s.findUser(first, last, blob)
	if err != nil {
		return mrerr.CodeOf(err), 0
	}

	switch req.Op {
	case ReqVerifyUser:
		if u.Status != db.UserRegisterable {
			return mrerr.RegAlreadyRegistered, u.Status
		}
		return mrerr.Success, u.Status

	case ReqGrabLogin:
		if len(extras) != 1 {
			return mrerr.RegBadAuth, 0
		}
		login := extras[0]
		if len(login) < 3 || len(login) > 8 {
			return mrerr.RegBadLogin, 0
		}
		if u.Status != db.UserRegisterable {
			return mrerr.RegAlreadyRegistered, u.Status
		}
		// The name must be free in Kerberos as well as Moira.
		if s.KDC.Exists(login) {
			return mrerr.RegLoginTaken, 0
		}
		cx := &queries.Context{DB: s.DB, Privileged: true, App: "userreg"}
		uid := u.UID
		err := queries.Execute(cx, "register_user",
			[]string{itoa(uid), login, itoa(s.FSType)},
			func([]string) error { return nil })
		if err != nil {
			if err == mrerr.MrInUse {
				return mrerr.RegLoginTaken, 0
			}
			return mrerr.CodeOf(err), 0
		}
		// Reserve the principal with an unguessable placeholder; the
		// set_password request replaces it.
		if err := s.KDC.AddPrincipal(login, placeholderPassword()); err != nil {
			return mrerr.RegLoginTaken, 0
		}
		s.Logf("reg: %s %s registered login %s", first, last, login)
		return mrerr.Success, db.UserHalfRegistered

	case ReqSetPassword:
		if len(extras) != 1 {
			return mrerr.RegBadAuth, 0
		}
		password := extras[0]
		if u.Status != db.UserHalfRegistered {
			return mrerr.RegNotHalfRegistered, u.Status
		}
		if err := s.KDC.SetPassword(u.Login, password); err != nil {
			return mrerr.CodeOf(err), 0
		}
		// The account becomes active; the next DCM propagation makes it
		// usable on the servers (the paper's up-to-6-hour lag).
		cx := &queries.Context{DB: s.DB, Privileged: true, App: "userreg"}
		if err := queries.Execute(cx, "update_user_status",
			[]string{u.Login, itoa(db.UserActive)},
			func([]string) error { return nil }); err != nil {
			return mrerr.CodeOf(err), 0
		}
		s.Logf("reg: %s set initial password", u.Login)
		return mrerr.Success, db.UserActive

	default:
		return mrerr.RegUnknownRequest, 0
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func placeholderPassword() string {
	k := kerberos.RandomKey()
	const hex = "0123456789abcdef"
	out := make([]byte, 16)
	for i, b := range k {
		out[2*i] = hex[b>>4]
		out[2*i+1] = hex[b&0xf]
	}
	return string(out)
}

// --- client side (the userreg program's protocol calls) ---

// call sends one registration request and decodes the reply.
func call(addr string, op uint16, first, last string, blob []byte, timeout time.Duration) (mrerr.Code, int, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	var out bytes.Buffer
	err = protocol.WriteRequest(&out, &protocol.Request{
		Version: protocol.Version, Op: op,
		Args: [][]byte{[]byte(first), []byte(last), blob},
	})
	if err != nil {
		return 0, 0, err
	}
	if _, err := conn.Write(out.Bytes()); err != nil {
		return 0, 0, err
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		return 0, 0, err
	}
	rep, err := protocol.ReadReply(bufio.NewReader(bytes.NewReader(buf[:n])))
	if err != nil {
		return 0, 0, err
	}
	status := 0
	if len(rep.Fields) > 0 && len(rep.Fields[0]) > 0 {
		status = int(rep.Fields[0][0])
	}
	return mrerr.Code(rep.Code), status, nil
}

// VerifyUser asks whether the named student may register. It returns the
// user's current status on success.
func VerifyUser(addr, first, last, idNumber string, timeout time.Duration) (mrerr.Code, int, error) {
	hash := kerberos.HashMITID(idNumber, first, last)
	return call(addr, ReqVerifyUser, first, last, BuildAuthenticator(idNumber, hash), timeout)
}

// GrabLogin attempts to claim the desired login name.
func GrabLogin(addr, first, last, idNumber, login string, timeout time.Duration) (mrerr.Code, error) {
	hash := kerberos.HashMITID(idNumber, first, last)
	code, _, err := call(addr, ReqGrabLogin, first, last,
		BuildAuthenticator(idNumber, hash, login), timeout)
	return code, err
}

// SetPassword sets the student's initial Kerberos password.
func SetPassword(addr, first, last, idNumber, password string, timeout time.Duration) (mrerr.Code, error) {
	hash := kerberos.HashMITID(idNumber, first, last)
	code, _, err := call(addr, ReqSetPassword, first, last,
		BuildAuthenticator(idNumber, hash, password), timeout)
	return code, err
}
