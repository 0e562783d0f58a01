// Package hesiod is a from-scratch stand-in for the Athena nameserver:
// the primary consumer of Moira's data. It serves the eleven .db files
// the DCM propagates (passwd, uid, group, gid, grplist, pobox, filsys,
// cluster, printcap, service, sloc), answering lookups like
// "babette.passwd" over UDP from an in-memory copy loaded at (re)start,
// exactly as the real server "uses these files from virtual memory on
// the target machine".
package hesiod

import (
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"moira/internal/update"
)

// record is one name's data in one file: either values or a CNAME
// referral.
type record struct {
	values []string
	cname  string
}

// dbFile is one .db file's records by name, tagged with the install ID
// of the bytes they were parsed from.
type dbFile struct {
	name string
	recs update.LineTable[string, *record]
}

// Server holds the in-memory database and the UDP listener.
type Server struct {
	// reload admits one reload at a time, so a reload's plan, made
	// against the records it reads, is what it commits over. Several
	// agents may feed one server.
	reload sync.Mutex

	mu    sync.RWMutex
	files []*dbFile // in name order, which Resolve merges in

	conn *net.UDPConn
	wg   sync.WaitGroup
}

// NewServer returns an empty hesiod server.
func NewServer() *Server {
	return &Server{}
}

// ParseDB parses one .db file in the propagated format:
//
//	name HS UNSPECA "data"
//	name HS CNAME target
//	name HS UNSPECA bare-data      (sloc.db style, no quotes)
//
// Lines starting with ';' are comments. The file is read whole, once
// (update.Lines).
func ParseDB(data update.Text) (map[string]*record, error) {
	var t update.LineTable[string, *record]
	p, err := t.Plan(nil, data, dbParser)
	if err != nil {
		return nil, fmt.Errorf("hesiod: %w", err)
	}
	t.Commit(p)
	return t.Rows, nil
}

// dbParser reads a .db file: a name's entry is the run of lines that
// name it, folded in file order: an UNSPECA line appends a value, a
// CNAME line replaces what came before.
var dbParser = update.Parser[string, *record]{Key: recordName, Fold: foldRecord}

func recordName(line string, open *string) (string, update.LineKind, error) {
	line = strings.TrimSpace(line)
	if line == "" || line[0] == ';' {
		return "", update.Skip, nil
	}
	name, _, _ := strings.Cut(line, " ")
	if open != nil && name == *open {
		return name, update.Continues, nil
	}
	return name, update.Starts, nil
}

func foldRecord(rec *record, line string) (*record, error) {
	line = strings.TrimSpace(line)
	_, rest, _ := strings.Cut(line, " ")
	class, rest, _ := strings.Cut(rest, " ")
	rtype, rest, ok := strings.Cut(rest, " ")
	if !ok || class != "HS" {
		return nil, fmt.Errorf("malformed record %q", line)
	}
	switch rtype {
	case "CNAME":
		return &record{cname: strings.TrimSpace(rest)}, nil
	case "UNSPECA":
		val := strings.TrimSpace(rest)
		if strings.HasPrefix(val, "\"") && strings.HasSuffix(val, "\"") && len(val) >= 2 {
			val = val[1 : len(val)-1]
		}
		if rec == nil {
			rec = &record{}
		}
		rec.values = append(rec.values, val)
		return rec, nil
	}
	return nil, fmt.Errorf("unknown type %q", rtype)
}

// LoadFiles replaces the server's database with the given .db file
// contents, the equivalent of a restart from files on disk.
func (s *Server) LoadFiles(files map[string][]byte) error {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	loaded := make([]*dbFile, len(names))
	for i, name := range names {
		recs, err := ParseDB(update.TextOf(files[name]))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		loaded[i] = &dbFile{name: name, recs: update.LineTable[string, *record]{Rows: recs}}
	}
	s.reload.Lock()
	defer s.reload.Unlock()
	s.mu.Lock()
	s.files = loaded
	s.mu.Unlock()
	return nil
}

// NumRecords reports the number of distinct names loaded.
func (s *Server) NumRecords() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for i, f := range s.files {
		for name := range f.recs.Rows {
			if lookup(s.files[:i], name) == nil {
				n++
			}
		}
	}
	return n
}

// lookup merges name's records across files in order, as one file set:
// values accumulate across files, and a CNAME on either side of a merge
// replaces what came before.
func lookup(files []*dbFile, name string) *record {
	var got *record
	for _, f := range files {
		r := f.recs.Rows[name]
		switch {
		case r == nil:
		case got != nil && r.cname == "" && got.cname == "":
			got = &record{values: append(append([]string(nil), got.values...), r.values...)}
		default:
			got = r
		}
	}
	return got
}

// Resolve answers one lookup, following CNAME referrals (with a chain
// limit, as the example files CNAME machines into clusters and uids
// into passwd entries).
func (s *Server) Resolve(name string) ([]string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for depth := 0; depth < 8; depth++ {
		r := lookup(s.files, name)
		if r == nil {
			return nil, false
		}
		if r.cname != "" {
			name = r.cname
			continue
		}
		return r.values, true
	}
	return nil, false
}

// Listen binds a UDP port and serves lookups in the background.
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

// Wire format: request is the queried name in UTF-8. Reply is one byte
// of status (0 = found, 1 = not found) followed by the values joined
// with newlines.
func (s *Server) serve() {
	defer s.wg.Done()
	buf := make([]byte, 2048)
	for {
		n, peer, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		name := string(buf[:n])
		values, ok := s.Resolve(name)
		var reply []byte
		if !ok {
			reply = []byte{1}
		} else {
			reply = append([]byte{0}, []byte(strings.Join(values, "\n"))...)
		}
		s.conn.WriteToUDP(reply, peer)
	}
}

// Lookup is the resolver client: it queries a hesiod server over UDP.
func Lookup(addr, name string, timeout time.Duration) ([]string, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write([]byte(name)); err != nil {
		return nil, err
	}
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	if n < 1 || buf[0] != 0 {
		return nil, fmt.Errorf("hesiod: %s: not found", name)
	}
	if n == 1 {
		return []string{""}, nil
	}
	return strings.Split(string(buf[1:n]), "\n"), nil
}

// StandardFiles is the file set a hesiod server loads after an update.
var StandardFiles = []string{
	"cluster.db", "filsys.db", "gid.db", "group.db", "grplist.db",
	"passwd.db", "pobox.db", "printcap.db", "service.db", "sloc.db", "uid.db",
}

// AttachToAgent registers the "restart_hesiod <destDir>" command on an
// update agent: it brings the server up to date with the freshly
// installed files, mirroring the kill-and-restart shell script of the
// paper, but reloading only what the push changed.
func AttachToAgent(a *update.Agent, s *Server) {
	a.RegisterCommand("restart_hesiod", func(ag *update.Agent, in *update.Install, args []string) error {
		if len(args) != 1 {
			return fmt.Errorf("restart_hesiod: want 1 arg, got %d", len(args))
		}
		return s.restart(ag, in, args[0])
	})
}

// restart reloads StandardFiles under destDir. Every file is planned —
// parsed and validated — before any is committed, so a bad file leaves
// the server as it was.
func (s *Server) restart(ag *update.Agent, in *update.Install, destDir string) error {
	s.reload.Lock()
	defer s.reload.Unlock()
	files := make([]*dbFile, len(StandardFiles))
	plans := make([]update.TablePlan[string, *record], len(StandardFiles))
	for i, name := range StandardFiles {
		if j := slices.IndexFunc(s.files, func(f *dbFile) bool { return f.name == name }); j >= 0 {
			files[i] = s.files[j]
		} else {
			files[i] = &dbFile{name: name}
		}
		fv, data, err := in.Read(ag, destDir+"/"+name)
		if err == nil {
			plans[i], err = files[i].recs.Plan(fv, data, dbParser)
		}
		if err != nil {
			return fmt.Errorf("hesiod: %s: %w", name, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, f := range files {
		f.recs.Commit(plans[i])
	}
	s.files = files
	return nil
}

// Verify reports the first way the server's records differ from a
// from-scratch parse of StandardFiles under destDir on ag's host: the
// check that reloads applied exactly what is installed.
func (s *Server) Verify(ag *update.Agent, destDir string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.files) != len(StandardFiles) {
		return fmt.Errorf("hesiod: %d files loaded, want %d", len(s.files), len(StandardFiles))
	}
	for i, name := range StandardFiles {
		data, err := ag.ReadHostFile(destDir + "/" + name)
		if err != nil {
			return err
		}
		if got := s.files[i].name; got != name {
			return fmt.Errorf("hesiod: %s loaded where %s belongs", got, name)
		}
		if err := s.files[i].recs.Verify(update.TextOf(data), dbParser); err != nil {
			return fmt.Errorf("hesiod: %s: %w", name, err)
		}
	}
	return nil
}
