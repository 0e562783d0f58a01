// Package mailhub simulates the central mail hub (athena.mit.edu): the
// consumer of the /usr/lib/aliases and /etc/passwd files Moira
// propagates. It parses sendmail-format aliases, performs recursive
// alias resolution the way sendmail would, and implements the controlled
// aliases switchover of section 5.8.2 — the new file is staged by the
// DCM and only activated by the hub's own command, with the mail spool
// disabled during the swap.
package mailhub

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"moira/internal/update"
)

// RouteFunc hands one fully resolved address to the delivery layer (the
// post office registry). It reports whether the address was off-site.
type RouteFunc func(addr string, from, subject, body string) (remote bool, err error)

// Hub is the simulated mail hub state.
type Hub struct {
	// reload admits one stage_aliases at a time, so what a run plans
	// against is what it commits over.
	reload sync.Mutex

	mu       sync.RWMutex
	aliases  map[string][]string
	aliasID  string                           // install ID aliases reflect; "" = unknown
	passwd   update.LineTable[string, string] // login -> full passwd line
	spoolUp  bool
	swaps    int
	spoolLog []string // records spool disable/enable ordering
	route    RouteFunc
	deferred int // messages refused while the spool was down
}

// NewHub creates a hub with an empty aliases file and the spool running.
func NewHub() *Hub {
	return &Hub{
		aliases: make(map[string][]string),
		passwd:  update.LineTable[string, string]{Rows: make(map[string]string)},
		spoolUp: true,
	}
}

// ParseAliases parses a sendmail aliases file: "name: addr, addr, ..."
// entries, '#' comments, and continuation lines beginning with
// whitespace.
func ParseAliases(data []byte) (map[string][]string, error) {
	out := make(map[string][]string)
	if _, err := parseAliasLines(update.TextOf(data), update.Range{Lo: 0, Hi: len(data)}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Kinds of aliases line.
const (
	aliasSkip  = iota // blank or comment
	aliasCont         // continuation: more addresses for the entry above
	aliasEntry        // "name: addr, ..."
)

// aliasLine trims a raw aliases line and classifies it.
func aliasLine(raw string) (string, int) {
	line := strings.TrimRight(raw, " \t\r")
	switch {
	case line == "" || strings.HasPrefix(strings.TrimSpace(line), "#"):
		return line, aliasSkip
	case line[0] == ' ' || line[0] == '\t':
		return line, aliasCont
	}
	return line, aliasEntry
}

// parseAliasLines parses the entries of data in r into out, a repeated
// name accumulating addresses, and reports whether no name repeated.
func parseAliasLines(data update.Text, r update.Range, out map[string][]string) (unique bool, err error) {
	unique = true
	current := ""
	err = update.Lines(data, r, func(raw string, off int) error {
		line, kind := aliasLine(raw)
		switch kind {
		case aliasSkip:
			return nil
		case aliasCont:
			if current == "" {
				return fmt.Errorf("mailhub: line %d: continuation without entry", data.LineNo(off))
			}
			out[current] = append(out[current], splitAddrs(line)...)
			return nil
		}
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			return fmt.Errorf("mailhub: line %d: malformed alias %q", data.LineNo(off), line)
		}
		current = strings.TrimSpace(name)
		if _, dup := out[current]; dup {
			unique = false
		}
		out[current] = append(out[current], splitAddrs(rest)...)
		return nil
	})
	return unique, err
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		a = strings.TrimSpace(a)
		if a != "" {
			out = append(out, a)
		}
	}
	return out
}

// aliasPlan is a parsed and validated aliases reload: keep what is
// held, replace it with all, or patch it (drop gone, then add put).
type aliasPlan struct {
	keep bool
	id   string
	all  map[string][]string
	gone map[string]bool
	put  map[string][]string
}

// errWhole stops an aliases patch the edits cannot express exactly.
var errWhole = errors.New("parse whole")

// planAliases plans the aliases reload from fv, or, with no view, from
// data as read from disk, by the Action of the tag held. Only a whole
// parse reads data whole.
func (h *Hub) planAliases(fv *update.File, data update.Text) (aliasPlan, error) {
	id := ""
	if fv != nil {
		id = fv.NewID
		switch fv.Action(h.aliasID) {
		case update.Keep:
			return aliasPlan{keep: true}, nil
		case update.Patch:
			if p, err := h.patchAliases(fv); err != errWhole {
				return p, err
			}
		}
	}
	all := make(map[string][]string)
	unique, err := parseAliasLines(data, update.Range{Lo: 0, Hi: data.Len()}, all)
	if !unique {
		id = "" // a repeated name is never patched
	}
	return aliasPlan{id: id, all: all}, err
}

// patchAliases plans fv's edits against the held aliases, which reflect
// fv.Old with no name repeated. The unit is an entry with its
// continuation lines, so every edit must hold whole entries on both
// sides: it may not begin with a continuation, nor be followed by one.
func (h *Hub) patchAliases(fv *update.File) (aliasPlan, error) {
	p := aliasPlan{id: fv.NewID, gone: map[string]bool{}, put: map[string][]string{}}
	for _, e := range fv.Edits {
		if !wholeEntries(fv.Old, e.Old) || !wholeEntries(fv.New, e.New) {
			return p, errWhole
		}
		gone := map[string][]string{}
		old := fv.Old.Sub(e.Old) // read whole: nothing keeps the old lines
		if _, err := parseAliasLines(old, update.Range{Lo: 0, Hi: old.Len()}, gone); err != nil {
			return p, errWhole // the held aliases do not reflect fv.Old after all
		}
		for name := range gone {
			p.gone[name] = true
		}
	}
	for _, e := range fv.Edits {
		unique, err := parseAliasLines(fv.New, e.New, p.put)
		if err != nil {
			return p, err
		}
		if !unique {
			return p, errWhole
		}
	}
	for name := range p.put {
		if _, held := h.aliases[name]; held && !p.gone[name] {
			return p, errWhole
		}
	}
	return p, nil
}

// wholeEntries reports whether r holds whole aliases entries of b: the
// first line in it that is not blank or a comment, and the first such
// line after it, are not continuations.
func wholeEntries(b update.Text, r update.Range) bool {
	first := func(lo, hi int) (kind int) {
		b.Lines(update.Range{Lo: lo, Hi: hi}, func(raw []byte, _ int) error {
			if _, kind = aliasLine(string(raw)); kind != aliasSkip {
				return errWhole // found it: stop
			}
			return nil
		})
		return kind
	}
	return first(r.Lo, r.Hi) != aliasCont && first(r.Hi, b.Len()) != aliasCont
}

// commitAliases applies an aliases plan; the caller holds h.mu.
func (h *Hub) commitAliases(p aliasPlan) {
	switch {
	case p.keep:
		return
	case p.all != nil:
		h.aliases = p.all
	default:
		for name := range p.gone {
			delete(h.aliases, name)
		}
		for name, addrs := range p.put {
			h.aliases[name] = addrs
		}
	}
	h.aliasID = p.id
}

// parsePasswd keys a passwd line by its login; a line with no ':' holds
// no entry.
func parsePasswd(line string) (string, string, bool, error) {
	line = strings.TrimSpace(line)
	login, _, ok := strings.Cut(line, ":")
	return login, line, !ok, nil
}

// Load replaces the hub's aliases table.
func (h *Hub) Load(aliases map[string][]string) {
	h.reload.Lock()
	defer h.reload.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.aliases, h.aliasID = aliases, ""
}

// LoadPasswd replaces the hub's passwd table (for its finger server).
func (h *Hub) LoadPasswd(data []byte) {
	h.reload.Lock()
	defer h.reload.Unlock()
	p, _ := h.passwd.Plan(nil, update.TextOf(data), parsePasswd) // parsePasswd never fails
	h.mu.Lock()
	defer h.mu.Unlock()
	h.passwd.Commit(p)
}

// Finger returns the passwd line for a login, as the hub's finger
// server would ("so that the finger server on the mailhub will know
// about everybody").
func (h *Hub) Finger(login string) (string, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	line, ok := h.passwd.Rows[login]
	return line, ok
}

// NumAliases reports the number of alias entries loaded.
func (h *Hub) NumAliases() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.aliases)
}

// Resolve expands an address through the aliases table, recursively,
// returning the final delivery addresses sorted and deduplicated. An
// address with no alias entry resolves to itself (a remote or local
// mailbox).
func (h *Hub) Resolve(addr string) []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	seen := make(map[string]bool)
	final := make(map[string]bool)
	var walk func(a string, depth int)
	walk = func(a string, depth int) {
		if depth > 16 || seen[a] {
			return
		}
		seen[a] = true
		targets, ok := h.aliases[a]
		if !ok {
			final[a] = true
			return
		}
		for _, t := range targets {
			walk(t, depth+1)
		}
	}
	walk(addr, 0)
	out := make([]string, 0, len(final))
	for a := range final {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// SetRoute installs the delivery hop used by Deliver.
func (h *Hub) SetRoute(fn RouteFunc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.route = fn
}

// DeliveryResult summarizes one Deliver call.
type DeliveryResult struct {
	Local  []string // addresses handed to post offices
	Remote []string // off-site addresses (would go out via SMTP)
	Failed []string
}

// Deliver accepts a message for an address, resolves it through the
// aliases table (recursively, as sendmail would), and hands each final
// address to the routing layer. Mail arriving while the spool is down —
// the aliases switchover window — is refused for retry, which is exactly
// why the paper insists the spool be disabled during the swap.
func (h *Hub) Deliver(addr, from, subject, body string) (*DeliveryResult, error) {
	h.mu.RLock()
	up := h.spoolUp
	route := h.route
	h.mu.RUnlock()
	if !up {
		h.mu.Lock()
		h.deferred++
		h.mu.Unlock()
		return nil, fmt.Errorf("mailhub: spool is down; try again")
	}
	res := &DeliveryResult{}
	for _, final := range h.Resolve(addr) {
		if route == nil {
			res.Failed = append(res.Failed, final)
			continue
		}
		remote, err := route(final, from, subject, body)
		switch {
		case err != nil:
			res.Failed = append(res.Failed, final)
		case remote:
			res.Remote = append(res.Remote, final)
		default:
			res.Local = append(res.Local, final)
		}
	}
	return res, nil
}

// Deferred reports how many messages were refused during switchovers.
func (h *Hub) Deferred() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.deferred
}

// SpoolUp reports whether the mail spool is accepting mail.
func (h *Hub) SpoolUp() bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.spoolUp
}

// Swaps reports how many aliases switchovers have completed.
func (h *Hub) Swaps() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.swaps
}

// SpoolLog returns the ordered record of spool state changes.
func (h *Hub) SpoolLog() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, len(h.spoolLog))
	copy(out, h.spoolLog)
	return out
}

// AttachToAgent registers the hub's commands on its update agent:
//
//	stage_aliases <destDir>: the controlled switchover. The DCM leaves
//	the new aliases at <destDir>/aliases.moira_update and installs the
//	passwd file normally; this command disables the spool, swaps the
//	aliases file in, reloads, and re-enables the spool.
func AttachToAgent(a *update.Agent, h *Hub) {
	a.RegisterCommand("stage_aliases", func(ag *update.Agent, in *update.Install, args []string) error {
		if len(args) != 1 {
			return fmt.Errorf("stage_aliases: want 1 arg, got %d", len(args))
		}
		return h.stage(ag, in, args[0])
	})
}

// stage runs the switchover. Both files are parsed and validated before
// the spool goes down, so a bad aliases file never disturbs mail.
func (h *Hub) stage(ag *update.Agent, in *update.Install, destDir string) error {
	h.reload.Lock()
	defer h.reload.Unlock()
	staged := destDir + "/aliases.moira_update"
	fv, ok := in.File(destDir + "/aliases") // extracted to the staging name
	var data update.Text
	if ok {
		data = fv.New
	} else {
		b, err := ag.ReadHostFile(staged)
		if err != nil {
			return err
		}
		data = update.TextOf(b)
	}
	aliases, err := h.planAliases(fv, data)
	if err != nil {
		return err
	}
	// The passwd file was installed by the script before this command
	// ran; load it if present.
	pfv, pw, perr := in.Read(ag, destDir+"/passwd")
	var passwd update.TablePlan[string, string]
	if perr == nil {
		passwd, _ = h.passwd.Plan(pfv, pw, parsePasswd) // parsePasswd never fails
	}

	h.mu.Lock()
	h.spoolUp = false
	h.spoolLog = append(h.spoolLog, "spool-down")
	h.mu.Unlock()

	if err := ag.RenameHostFile(staged, destDir+"/aliases"); err != nil {
		h.mu.Lock()
		h.spoolUp = true
		h.spoolLog = append(h.spoolLog, "spool-up")
		h.mu.Unlock()
		return err
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	h.commitAliases(aliases)
	h.swaps++
	h.spoolUp = true
	h.spoolLog = append(h.spoolLog, "swap", "spool-up")
	if perr == nil {
		h.passwd.Commit(passwd)
	}
	return nil
}

// Verify reports the first way the hub's tables differ from a
// from-scratch parse of the aliases and passwd files installed under
// destDir on ag's host.
func (h *Hub) Verify(ag *update.Agent, destDir string) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	data, err := ag.ReadHostFile(destDir + "/aliases")
	if err != nil {
		return err
	}
	aliases, err := ParseAliases(data)
	if err != nil {
		return err
	}
	if len(aliases) != len(h.aliases) {
		return fmt.Errorf("mailhub: %d aliases held, %d installed", len(h.aliases), len(aliases))
	}
	for name, want := range aliases {
		if got, ok := h.aliases[name]; !ok || !slices.Equal(got, want) {
			return fmt.Errorf("mailhub: alias %s is %v, installed %v", name, got, want)
		}
	}
	var passwd update.LineTable[string, string]
	if data, err := ag.ReadHostFile(destDir + "/passwd"); err == nil {
		p, _ := passwd.Plan(nil, update.TextOf(data), parsePasswd)
		passwd.Commit(p)
	}
	if len(passwd.Rows) != len(h.passwd.Rows) {
		return fmt.Errorf("mailhub: %d passwd lines held, %d installed", len(h.passwd.Rows), len(passwd.Rows))
	}
	for login, want := range passwd.Rows {
		if got := h.passwd.Rows[login]; got != want {
			return fmt.Errorf("mailhub: passwd %s is %q, installed %q", login, got, want)
		}
	}
	return nil
}
