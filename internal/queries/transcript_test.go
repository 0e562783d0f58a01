package queries

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"moira/internal/db"
	"moira/internal/mrerr"
	"moira/internal/protocol"
)

// The golden transcript pins what every query handle answers — reply
// codes and tuples, byte for byte, in the string form and (checked
// against its schema) the typed one — across callers of every standing,
// valid arguments and single-argument faults, together with a digest of
// the whole database after every mutating step (so ID allocation order,
// modtimes and table statistics are pinned too). The generator keys off
// each handle's argument names only, so a rewrite of the handles replays
// the same requests.
//
// testdata/transcript.golden is the recording. When it is missing the
// test writes it and fails, asking for a review; to re-record, delete
// the file and run the test twice.

const transcriptFile = "testdata/transcript.golden"

// transcriptFaults replace one argument at a time: a missing name, the
// total wildcard, an ambiguous pattern, a non-integer, the UNIQUE_*
// sentinel, the empty string and an over-long argument.
var transcriptFaults = []string{"nosuch", "*", "o*", "x1", "-1", "", strings.Repeat("a", MaxArgLen+1)}

// transcriptValid gives a valid retrieval argument by name, in the world
// the build phase leaves; "handle.arg" keys override a shared name.
var transcriptValid = map[string]string{
	"login": "ox0", "uid": "40000", "first": "First", "last": "Loner",
	"class": "1990", "mitid": "xx", "list": "olist0", "ace_type": "LIST",
	"ace_name": "olist0", "type": "USER", "member": "ox0",
	"active": "TRUE", "public": "DONTCARE", "hidden": "FALSE",
	"maillist": "DONTCARE", "group": "DONTCARE",
	"name": "ORA0.MIT.EDU", "machine": "ORA0.MIT.EDU", "cluster": "cluster0",
	"label": "zephyr", "service": "OSRV0", "enable": "DONTCARE",
	"inprogress": "DONTCARE", "harderror": "DONTCARE", "override": "DONTCARE",
	"success": "DONTCARE", "hosterror": "DONTCARE", "partition": "/o0",
	"dir": "/o0", "directory": "/o0", "filesys": "ofiles0", "printer": "oprn0",
	"translation": "ofiles0", "variable": "oval0", "trace_id": "*",
	"query": "gubl",

	"get_cluster.name": "cluster0", "get_filesys_by_label.name": "ofiles0",
	"get_alias.name": "oalias0", "get_alias.type": "FILESYS",
	"get_zephyr_class.class": "OZ0", "get_nfs_quota.login": "ob0",
}

type transcript struct {
	t       *testing.T
	f       *fixture
	out     bytes.Buffer
	callers []*Context // unauthenticated, another user, (target), admin-list member, glue
}

// caller contexts in transcript order; the target user is resolved per
// vector from its arguments.
func (tr *transcript) contexts(args []string) []*Context {
	target := "alice"
	tr.f.d.LockShared()
	for _, a := range args {
		if _, ok := tr.f.d.UserByLogin(a); ok && a != "" {
			target = a
			break
		}
	}
	tr.f.d.UnlockShared()
	t := tr.f.userCtx(target)
	return []*Context{tr.callers[0], tr.callers[1], t, tr.callers[2], tr.callers[3]}
}

// quoteArgs renders an argument vector, abbreviating over-long ones.
func quoteArgs(args []string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		if len(a) > 64 {
			parts[i] = fmt.Sprintf("<%d bytes>", len(a))
		} else {
			parts[i] = fmt.Sprintf("%q", a)
		}
	}
	return strings.Join(parts, " ")
}

// vector runs one request through CheckAccess and Execute for every
// caller and records the results, callers with equal results grouped.
func (tr *transcript) vector(name string, args []string) {
	fmt.Fprintf(&tr.out, "> %s %s\n", name, quoteArgs(args))
	const who = "uotag"
	var access, exec []string
	for _, cx := range tr.contexts(args) {
		access = append(access, fmt.Sprint(int(mrerr.CodeOf(CheckAccess(cx, name, args)))))
		var rows []string
		err := Execute(cx, name, args, func(t []string) error {
			rows = append(rows, fmt.Sprintf("%q", t))
			return nil
		})
		if q, ok := Lookup(name); ok && q.Kind == Retrieve {
			tr.typed(cx, q, name, args, rows)
		}
		res := fmt.Sprint(int(mrerr.CodeOf(err)))
		for _, r := range rows {
			res += "\n    " + r
		}
		exec = append(exec, res)
	}
	for _, line := range []struct {
		tag string
		res []string
	}{{"A", access}, {"X", exec}} {
		fmt.Fprintf(&tr.out, "  %s", line.tag)
		done := map[int]bool{}
		for i := range line.res {
			if done[i] {
				continue
			}
			group := ""
			for j := i; j < len(line.res); j++ {
				if line.res[j] == line.res[i] {
					done[j] = true
					group += who[j : j+1]
				}
			}
			fmt.Fprintf(&tr.out, " %s:%s", group, line.res[i])
		}
		tr.out.WriteByte('\n')
	}
	tr.f.clk.Advance(1e9)
}

// typed runs a retrieval again through ExecuteFields, the server's
// form, and checks every tuple against the entry's schema — Rows.width()
// fields, integers in exactly the :int, :time and :bool columns — and
// against the tuple the string form returned (rows, as recorded).
func (tr *transcript) typed(cx *Context, q *Query, name string, args, rows []string) {
	n := 0
	ExecuteFields(cx, name, args, func(t []protocol.Field) error {
		text := make([]string, len(t))
		for j, f := range t {
			text[j] = f.String()
			if j < q.Rows.width() && f.IsInt() != (q.Rows.types[j] != "") {
				tr.t.Errorf("%s %s: column %s:%s carries %q (integer %v)",
					name, quoteArgs(args), q.Rows.names[j], q.Rows.types[j], text[j], f.IsInt())
			}
		}
		if len(t) != q.Rows.width() {
			tr.t.Errorf("%s %s: %d fields %q, the schema has %d", name, quoteArgs(args), len(t), text, q.Rows.width())
		}
		if n >= len(rows) || fmt.Sprintf("%q", text) != rows[n] {
			tr.t.Errorf("%s %s: typed tuple %d is %q; the string form returned %q", name, quoteArgs(args), n, text, rows)
		}
		n++
		return nil
	})
	if n != len(rows) {
		tr.t.Errorf("%s %s: %d typed tuples, %d strings", name, quoteArgs(args), n, len(rows))
	}
}

// variants is the valid vector, each single-argument fault, spelling
// variants of machine names, and both wrong arities.
func variants(q *Query, valid []string) [][]string {
	out := [][]string{valid}
	for i := range valid {
		for _, bad := range transcriptFaults {
			v := append([]string(nil), valid...)
			v[i] = bad
			out = append(out, v)
		}
		if q.Args[i] == "machine" || strings.HasSuffix(valid[i], ".MIT.EDU") {
			for _, spelled := range []string{strings.ToLower(valid[i]) + ".", " " + valid[i]} {
				v := append([]string(nil), valid...)
				v[i] = spelled
				out = append(out, v)
			}
		}
	}
	if len(valid) > 0 {
		out = append(out, valid[:len(valid)-1])
	}
	return append(out, append(append([]string(nil), valid...), "x"))
}

// digest records a hash of every relation and change sequence.
func (tr *transcript) digest() {
	d := tr.f.d
	d.LockShared()
	h := sha256.New()
	for _, tbl := range db.AllTables {
		fmt.Fprintf(h, "== %s seq %d\n", tbl, d.SeqOf(tbl))
		if err := d.DumpTable(tbl, h); err != nil {
			tr.t.Fatalf("dump %s: %v", tbl, err)
		}
	}
	fmt.Fprintf(h, "== curseq %d\n", d.CurSeq())
	d.UnlockShared()
	fmt.Fprintf(&tr.out, "  D %x\n", h.Sum(nil)[:8])
}

func (tr *transcript) step(name string, args []string) {
	q, ok := Lookup(name)
	if !ok {
		tr.t.Fatalf("no handle %s", name)
	}
	for _, v := range variants(q, args) {
		tr.vector(name, v)
		if q.Kind != Retrieve {
			tr.digest()
		}
	}
}

func recordTranscript(t *testing.T) []byte {
	f := newFixture(t)
	f.mustRun(t, f.priv, "add_machine", "athena-po-1.mit.edu", "VAX")
	for _, login := range []string{"alice", "bob", "admin1"} {
		f.addUser(t, login)
	}
	f.mustRun(t, f.priv, "add_member_to_list", AdminList, "USER", "admin1")
	tr := &transcript{t: t, f: f}
	tr.callers = []*Context{{DB: f.d, App: "test"}, f.userCtx("bob"), f.userCtx("admin1"), f.priv}

	steps := (&snapOracle{rng: rand.New(rand.NewSource(1)), logins: []string{"alice"}}).round(0)
	split := 0
	for split < len(steps) && steps[split].name != "delete_server_host_info" {
		split++
	}
	fmt.Fprintf(&tr.out, "# build\n")
	for _, s := range steps[:split] {
		tr.step(s.name, s.args)
	}

	fmt.Fprintf(&tr.out, "# retrievals\n")
	var names []string
	for _, q := range All() {
		names = append(names, q.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		q, _ := Lookup(name)
		if q.Kind != Retrieve {
			continue
		}
		args := make([]string, len(q.Args))
		for i, a := range q.Args {
			v, ok := transcriptValid[name+"."+a]
			if !ok {
				v, ok = transcriptValid[a]
			}
			if !ok {
				t.Fatalf("%s: no valid value for argument %q", name, a)
			}
			args[i] = v
		}
		tr.step(name, args)
	}
	for _, name := range names {
		tr.vector("_help", []string{name})
	}

	fmt.Fprintf(&tr.out, "# teardown\n")
	for _, s := range steps[split:] {
		tr.step(s.name, s.args)
	}
	return tr.out.Bytes()
}

// TestGoldenTranscript replays the recorded transcript.
func TestGoldenTranscript(t *testing.T) {
	got := recordTranscript(t)
	want, err := os.ReadFile(transcriptFile)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(transcriptFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transcriptFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s (%d bytes); review it and run again", transcriptFile, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gb, wb := transcriptBlocks(got), transcriptBlocks(want)
	if len(gb) != len(wb) {
		t.Errorf("the transcript has %d requests, the recording %d", len(gb), len(wb))
	}
	shown := 0
	for i := 0; i < len(gb) && i < len(wb) && shown < 20; i++ {
		if gb[i] != wb[i] {
			t.Errorf("request %d differs:\nwant:\n%s\ngot:\n%s", i+1, wb[i], gb[i])
			shown++
		}
	}
}

// transcriptBlocks splits a transcript into one block per request.
func transcriptBlocks(b []byte) []string {
	var out []string
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if strings.HasPrefix(line, ">") || strings.HasPrefix(line, "#") || len(out) == 0 {
			out = append(out, "")
		}
		out[len(out)-1] += line
	}
	return out
}
