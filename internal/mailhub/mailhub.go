// Package mailhub simulates the central mail hub (athena.mit.edu): the
// consumer of the /usr/lib/aliases and /etc/passwd files Moira
// propagates. It parses sendmail-format aliases, performs recursive
// alias resolution the way sendmail would, and implements the controlled
// aliases switchover of section 5.8.2 — the new file is staged by the
// DCM and only activated by the hub's own command, with the mail spool
// disabled during the swap.
package mailhub

import (
	"fmt"
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
	aliases  update.LineTable[string, []string] // name -> addresses
	passwd   update.LineTable[string, string]   // login -> full passwd line
	spoolUp  bool
	swaps    int
	spoolLog []string // records spool disable/enable ordering
	route    RouteFunc
	deferred int // messages refused while the spool was down
}

// NewHub creates a hub with an empty aliases file and the spool running.
func NewHub() *Hub {
	return &Hub{
		aliases: update.LineTable[string, []string]{Rows: make(map[string][]string)},
		passwd:  update.LineTable[string, string]{Rows: make(map[string]string)},
		spoolUp: true,
	}
}

// ParseAliases parses a sendmail aliases file: "name: addr, addr, ..."
// entries, '#' comments, and continuation lines beginning with
// whitespace.
func ParseAliases(data []byte) (map[string][]string, error) {
	var t update.LineTable[string, []string]
	p, err := t.Plan(nil, update.TextOf(data), aliasesParser)
	if err != nil {
		return nil, fmt.Errorf("mailhub: %w", err)
	}
	t.Commit(p)
	return t.Rows, nil
}

// aliasesParser reads an aliases file: an entry is a "name: addr, ..."
// line and the lines after it that begin with whitespace, and a name
// that starts two entries accumulates the addresses of both.
var aliasesParser = update.Parser[string, []string]{Key: aliasKey, Fold: foldAlias}

func aliasKey(raw string, _ *string) (string, update.LineKind, error) {
	line := strings.TrimRight(raw, " \t\r")
	switch {
	case line == "" || strings.HasPrefix(strings.TrimSpace(line), "#"):
		return "", update.Skip, nil
	case line[0] == ' ' || line[0] == '\t':
		return "", update.Continues, nil
	}
	name, _, ok := strings.Cut(line, ":")
	if !ok {
		return "", 0, fmt.Errorf("malformed alias %q", line)
	}
	return strings.TrimSpace(name), update.Starts, nil
}

func foldAlias(addrs []string, line string) ([]string, error) {
	if line[0] != ' ' && line[0] != '\t' {
		_, line, _ = strings.Cut(line, ":")
	}
	return append(addrs, splitAddrs(line)...), nil
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

// passwdParser keys a passwd line by its login; a line with no ':' holds
// no entry.
var passwdParser = update.Parser[string, string]{
	Key: func(line string, _ *string) (string, update.LineKind, error) {
		login, _, ok := strings.Cut(strings.TrimSpace(line), ":")
		if !ok {
			return "", update.Skip, nil
		}
		return login, update.Starts, nil
	},
	Fold: func(_, line string) (string, error) { return strings.TrimSpace(line), nil },
}

// Load replaces the hub's aliases table.
func (h *Hub) Load(aliases map[string][]string) {
	h.reload.Lock()
	defer h.reload.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.aliases = update.LineTable[string, []string]{Rows: aliases}
}

// LoadPasswd replaces the hub's passwd table (for its finger server).
func (h *Hub) LoadPasswd(data []byte) {
	h.reload.Lock()
	defer h.reload.Unlock()
	p, _ := h.passwd.Plan(nil, update.TextOf(data), passwdParser) // a passwd line always parses
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
	return len(h.aliases.Rows)
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
		targets, ok := h.aliases.Rows[a]
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
	if !ok {
		b, err := ag.ReadHostFile(staged)
		if err != nil {
			return err
		}
		data = update.TextOf(b)
	}
	aliases, err := h.aliases.Plan(fv, data, aliasesParser)
	if err != nil {
		return fmt.Errorf("mailhub: aliases %w", err)
	}
	// The passwd file was installed by the script before this command
	// ran; load it if present.
	pfv, pw, perr := in.Read(ag, destDir+"/passwd")
	var passwd update.TablePlan[string, string]
	if perr == nil {
		passwd, _ = h.passwd.Plan(pfv, pw, passwdParser) // a passwd line always parses
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
	h.aliases.Commit(aliases)
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
// destDir on ag's host (no passwd file: no passwd lines).
func (h *Hub) Verify(ag *update.Agent, destDir string) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	data, err := ag.ReadHostFile(destDir + "/aliases")
	if err != nil {
		return err
	}
	if err := h.aliases.Verify(update.TextOf(data), aliasesParser); err != nil {
		return fmt.Errorf("mailhub: aliases: %w", err)
	}
	data, _ = ag.ReadHostFile(destDir + "/passwd")
	if err := h.passwd.Verify(update.TextOf(data), passwdParser); err != nil {
		return fmt.Errorf("mailhub: passwd: %w", err)
	}
	return nil
}
