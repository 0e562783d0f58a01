package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"moira/internal/dcm"
)

// op is one unit of measured work: a client call, or (change_pass) the
// untimed churn plus one timed DCM pass.
type op struct {
	class opClass
	query string
	args  []string

	// Checks on a read's reply.
	want     int    // tuples the reply must hold
	keyField int    // point reads: the tuple field that must equal key
	key      string // "" skips the key check
	shell    string // "" skips the shell check; else the value field 2 must hold

	churn [][]string // change_pass: queries run through Direct before the pass
}

type opClass uint8

const (
	opRead opClass = iota
	opReadAfterWrite
	opWrite
	opPass
)

// encode renders an op as the determinism test compares it.
func (o *op) encode() string {
	var b strings.Builder
	b.WriteString(o.query)
	for _, a := range o.args {
		b.WriteByte(' ')
		b.WriteString(a)
	}
	for _, q := range o.churn {
		b.WriteString(" | ")
		b.WriteString(strings.Join(q, " "))
	}
	return b.String()
}

// Shapes drawn in shuffled blocks, so every block — and therefore any
// prefix of the stream a timed run happens to reach — holds the same
// mix whatever the seed. A binomial draw per op would let the write
// share of mixed_rw swing ±7% between seeds and take the per-op
// allocation and throughput figures with it.
type shape uint8

const (
	shLogin    shape = iota // get_user_by_login, exact
	shUID                   // get_user_by_uid
	shListInfo              // get_list_info on the user's namesake list
	shPrefix                // get_user_by_login "abc*"
	shMembers               // get_members_of_list on a mailing list
	shListsOf               // get_lists_of_member USER login
	shWrite                 // update_user_shell
)

const mixedBlock = 20 // mixed_rw: one write in every block of 20 ops (5%)

const defaultShell = "/bin/csh" // what workload.Populate gives every user

var shells = []string{"/bin/sh", "/bin/tcsh", "/bin/bash"}

// stream generates a workload's op sequence. It is a pure function of
// (spec, facts, seed): the clock never influences which op comes next.
type stream struct {
	sp   spec
	f    *facts
	rng  *rand.Rand
	warm bool

	block   []shape
	written string            // mixed_rw: login the previous op wrote
	shellOf map[string]string // mixed_rw: shells this benchmark has written
	added   int               // change_pass: users added so far
	lastAdd string            // change_pass: most recent added login
}

// newStream starts the measured sequence for seed, or — with warm — the
// separate sequence every set-up runs first. The two never share draws,
// so the measured sequence does not depend on how long warm-up was.
func newStream(sp spec, f *facts, seed int64, warm bool) *stream {
	if warm {
		seed ^= 0x5eed0ff5e7
	}
	return &stream{sp: sp, f: f, rng: rand.New(rand.NewSource(seed)), warm: warm,
		shellOf: map[string]string{}}
}

func (s *stream) user() userFact { return s.f.users[s.rng.Intn(len(s.f.users))] }

func (s *stream) nextShape() shape {
	if len(s.block) == 0 {
		switch s.sp.name {
		case "query_point":
			s.block = []shape{shLogin, shUID, shListInfo}
		case "query_range":
			s.block = []shape{shPrefix, shMembers, shListsOf}
		default: // mixed_rw
			s.block = make([]shape, mixedBlock)
			for i := range s.block {
				s.block[i] = shape(i % 2) // shLogin, shUID
			}
			s.block[0] = shWrite
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		if s.block[0] == shWrite {
			// Shapes pop from the end: keep the write off the block's last
			// slot, so the read that pays for it lands in the same block.
			j := 1 + s.rng.Intn(len(s.block)-1)
			s.block[0], s.block[j] = s.block[j], s.block[0]
		}
	}
	sh := s.block[len(s.block)-1]
	s.block = s.block[:len(s.block)-1]
	return sh
}

func (s *stream) next() *op {
	if s.sp.pass {
		return s.nextPass()
	}
	sh := s.nextShape()
	if s.written != "" {
		// The read right after a write goes back for the row just
		// written: it pays the snapshot rebuild and proves the write.
		login := s.written
		s.written = ""
		return &op{class: opReadAfterWrite, query: "get_user_by_login", args: []string{login},
			want: 1, key: login, shell: s.shellOf[login]}
	}
	u := s.user()
	switch sh {
	case shLogin:
		return &op{query: "get_user_by_login", args: []string{u.login}, want: 1, key: u.login, shell: s.expectShell(u.login)}
	case shUID:
		return &op{query: "get_user_by_uid", args: []string{u.uid}, want: 1, keyField: 1, key: u.uid, shell: s.expectShell(u.login)}
	case shListInfo:
		return &op{query: "get_list_info", args: []string{u.login}, want: 1, key: u.login}
	case shPrefix:
		p := u.login[:3]
		return &op{query: "get_user_by_login", args: []string{p + "*"}, want: s.f.prefixCount(p)}
	case shMembers:
		l := s.f.lists[s.rng.Intn(len(s.f.lists))]
		return &op{query: "get_members_of_list", args: []string{l.name}, want: l.members}
	case shListsOf:
		return &op{query: "get_lists_of_member", args: []string{"USER", u.login}, want: u.lists}
	default: // shWrite
		shell := shells[s.rng.Intn(len(shells))]
		s.shellOf[u.login] = shell
		s.written = u.login
		return &op{class: opWrite, query: "update_user_shell", args: []string{u.login, shell}}
	}
}

// blockDone reports whether the op just drawn completed a block of the
// mix. Batches end only there, so every batch — and the run — holds
// whole blocks and per-op counts do not depend on where the clock
// happened to stop it.
func (s *stream) blockDone() bool { return len(s.block) == 0 }

// expectShell is the shell a read of login must return. Only mixed_rw
// writes shells; elsewhere every user still has the populated default.
func (s *stream) expectShell(login string) string {
	if sh, ok := s.shellOf[login]; ok {
		return sh
	}
	return defaultShell
}

// churnPerPass is 0.1% of change_pass's 10,000 users.
const churnPerPass = 10

func (s *stream) nextPass() *op {
	o := &op{class: opPass, query: "dcm_pass"}
	prefix := "churn"
	if s.warm {
		prefix = "warm" // the two streams must never add the same login
	}
	for j := 0; j < churnPerPass; j++ {
		pick := s.user().login
		switch j % 3 {
		case 0:
			s.added++
			s.lastAdd = fmt.Sprintf("%s%06d", prefix, s.added)
			o.churn = append(o.churn, []string{"add_user", s.lastAdd, "-1", "/bin/csh", "Churn", "User", "", "1", "", "STAFF"})
		case 1:
			o.churn = append(o.churn, []string{"update_user_shell", pick, shells[s.rng.Intn(len(shells))]})
		default:
			o.churn = append(o.churn, []string{"update_user_status", pick, "1"})
		}
	}
	return o
}

// prepare runs the untimed part of an op: change_pass's churn through
// the direct glue library, then a virtual day so every service is due.
func (w *world) prepare(o *op) error {
	if o.class != opPass {
		return nil
	}
	dc := w.sys.Direct("mrbench")
	for _, q := range o.churn {
		if err := dc.Query(q[0], q[1:], nil); err != nil {
			return fmt.Errorf("churn %s: %w", strings.Join(q, " "), err)
		}
	}
	w.clk.Advance(25 * time.Hour)
	return nil
}

// exec runs the timed part of an op and checks its output; a non-nil
// error is a failed op.
func (w *world) exec(o *op) error {
	if o.class == opPass {
		st, err := w.sys.RunDCM()
		if err != nil {
			return err
		}
		w.lastPass = st
		return checkPass(st)
	}
	if o.class == opWrite {
		return w.c.Query(o.query, o.args, nil)
	}
	got := 0
	var bad error
	err := w.c.Query(o.query, o.args, func(t []string) error {
		got++
		if o.key != "" && t[o.keyField] != o.key {
			bad = fmt.Errorf("tuple key %q, want %q", t[o.keyField], o.key)
		}
		if o.shell != "" && t[2] != o.shell {
			bad = fmt.Errorf("%s: shell %q, want %q", t[0], t[2], o.shell)
		}
		return nil
	})
	switch {
	case err != nil:
		return err
	case bad != nil:
		return bad
	case got != o.want:
		return fmt.Errorf("%d tuples, want %d", got, o.want)
	}
	return nil
}

// checkPass holds a churn pass to the steady-state contract: it
// generated, every push landed, and no service fell back to a rebuild.
func checkPass(st *dcm.CycleStats) error {
	switch {
	case st.Generated == 0:
		return fmt.Errorf("pass generated nothing")
	case st.HostHardFails != 0:
		return fmt.Errorf("pass dropped %d hosts", st.HostHardFails)
	case st.Fallbacks != 0:
		return fmt.Errorf("pass fell back to %d full rebuilds", st.Fallbacks)
	case st.HostsUpdated == 0:
		return fmt.Errorf("pass updated no host")
	}
	return nil
}

// checkHesiod is change_pass's end-of-run check: a user the churn added
// must resolve on the hesiod host the passes pushed to.
func (w *world) checkHesiod(login string) error {
	if login == "" {
		return nil
	}
	vals, ok := w.sys.Hesiod.Resolve(login + ".passwd")
	if !ok || len(vals) == 0 || !strings.HasPrefix(vals[0], login+":") {
		return fmt.Errorf("hesiod does not answer for churn user %s (%v)", login, vals)
	}
	return nil
}
