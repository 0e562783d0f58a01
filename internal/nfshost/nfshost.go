// Package nfshost simulates an Athena NFS file server host: the consumer
// of the credentials, quotas, and directories files the DCM propagates.
// Its installer command reproduces the shell script of section 5.8.2 —
// "mkdir <username>, chown, chgrp, chmod — using directories file;
// setquota <quota> — using quotas file" — against the host's private
// file tree, and keeps queryable state for quotas and credentials.
package nfshost

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"moira/internal/update"
)

// Credential is one parsed line of the credentials file.
type Credential struct {
	Login string
	UID   int
	GIDs  []int
}

// Locker records a directory created by the installer.
type Locker struct {
	Path  string
	UID   int
	GID   int
	Type  string
	Inits bool // HOMEDIR lockers get the default init files
}

// Host is the simulated NFS server state.
type Host struct {
	Name string

	// reload admits one install_nfs at a time, so what a run plans
	// against is what it commits over.
	reload sync.Mutex

	mu          sync.RWMutex
	credentials update.LineTable[string, Credential] // by login
	parts       map[string]*partition
	lockers     map[string]Locker // by path
	installs    int
}

// partition is the installed state of one exported partition: its
// quotas (uid -> quota), and the install ID of the dirs file whose
// lockers exist (lockers are only ever added).
type partition struct {
	quotas update.LineTable[int, int]
	dirsID string
}

// NewHost creates an empty NFS host simulation.
func NewHost(name string) *Host {
	return &Host{
		Name:    name,
		parts:   make(map[string]*partition),
		lockers: make(map[string]Locker),
	}
}

// ParseCredentials parses the credentials file: one
// login:uid:gid[:gid...] entry per line.
func ParseCredentials(data []byte) (map[string]Credential, error) {
	var t update.LineTable[string, Credential]
	p, err := t.Plan(nil, update.TextOf(data), credentialsParser)
	if err != nil {
		return nil, fmt.Errorf("nfshost: credentials %w", err)
	}
	t.Commit(p)
	return t.Rows, nil
}

// credentialsParser keys a credentials line by its login.
var credentialsParser = update.Parser[string, Credential]{Key: credentialKey, Fold: parseCredential}

func credentialKey(line string, _ *string) (string, update.LineKind, error) {
	line = strings.TrimSpace(line)
	login, _, ok := strings.Cut(line, ":")
	switch {
	case line == "":
		return "", update.Skip, nil
	case !ok:
		return "", 0, fmt.Errorf("malformed: %q", line)
	}
	return login, update.Starts, nil
}

func parseCredential(_ Credential, line string) (Credential, error) {
	login, rest, _ := strings.Cut(strings.TrimSpace(line), ":")
	field, rest, more := strings.Cut(rest, ":")
	uid, err := strconv.Atoi(field)
	if err != nil {
		return Credential{}, fmt.Errorf("bad uid %q", field)
	}
	c := Credential{Login: login, UID: uid}
	for more {
		field, rest, more = strings.Cut(rest, ":")
		gid, err := strconv.Atoi(field)
		if err != nil {
			return Credential{}, fmt.Errorf("bad gid %q", field)
		}
		c.GIDs = append(c.GIDs, gid)
	}
	return c, nil
}

// quotasParser keys a quotas line ("uid quota") by its uid.
var quotasParser = update.Parser[int, int]{
	Key: func(line string, _ *int) (int, update.LineKind, error) {
		uid, _, kind, err := parseQuota(line)
		return uid, kind, err
	},
	Fold: func(_ int, line string) (int, error) {
		_, quota, _, err := parseQuota(line)
		return quota, err
	},
}

func parseQuota(line string) (uid, quota int, kind update.LineKind, err error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return 0, 0, update.Skip, nil
	}
	u, q, _ := strings.Cut(line, " ")
	uid, err1 := strconv.Atoi(u)
	quota, err2 := strconv.Atoi(strings.TrimSpace(q))
	if err1 != nil || err2 != nil {
		return 0, 0, 0, fmt.Errorf("malformed: %q", line)
	}
	return uid, quota, update.Starts, nil
}

// parseDir parses one "path uid gid type" directories line.
func parseDir(line []byte) (l Locker, skip bool, err error) {
	fields := strings.Fields(string(line)) // a locker keeps only its own line
	switch {
	case len(fields) == 0:
		return Locker{}, true, nil
	case len(fields) != 4:
		return Locker{}, false, fmt.Errorf("malformed: %q", line)
	}
	uid, err1 := strconv.Atoi(fields[1])
	gid, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil {
		return Locker{}, false, fmt.Errorf("bad ids: %q", line)
	}
	return Locker{Path: fields[0], UID: uid, GID: gid, Type: fields[3], Inits: fields[3] == "HOMEDIR"}, false, nil
}

// CredentialOf looks up a login in the installed credentials file.
func (h *Host) CredentialOf(login string) (Credential, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	c, ok := h.credentials.Rows[login]
	return c, ok
}

// NumCredentials reports the credential count.
func (h *Host) NumCredentials() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.credentials.Rows)
}

// QuotaOf returns the quota for a uid on a partition.
func (h *Host) QuotaOf(partition string, uid int) (int, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	p := h.parts[partition]
	if p == nil {
		return 0, false
	}
	q, ok := p.quotas.Rows[uid]
	return q, ok
}

// LockerAt returns the locker created at path, if any.
func (h *Host) LockerAt(path string) (Locker, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	l, ok := h.lockers[path]
	return l, ok
}

// NumLockers reports how many directories have been created.
func (h *Host) NumLockers() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.lockers)
}

// Installs reports how many install_nfs runs completed.
func (h *Host) Installs() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.installs
}

// AttachToAgent registers "install_nfs <destDir> <partition>" on the
// host's update agent. It loads the credentials file, applies the
// partition's quotas file, and creates the lockers named by the
// directories file — creating real directories under the agent root,
// with HOMEDIR lockers receiving the default init files.
func AttachToAgent(a *update.Agent, h *Host) {
	a.RegisterCommand("install_nfs", func(ag *update.Agent, in *update.Install, args []string) error {
		if len(args) != 2 {
			return fmt.Errorf("install_nfs: want 2 args, got %d", len(args))
		}
		return h.install(ag, in, args[0], args[1])
	})
}

// install runs install_nfs for one partition. Every file is parsed and
// validated before anything changes: a bad line in any of them leaves
// the host's state and its file tree as they were. Each file reloads by
// its Action, so the credentials file, shared by every partition's run
// of one push, is parsed by the first run at most.
func (h *Host) install(ag *update.Agent, in *update.Install, destDir, partName string) error {
	base := strings.ReplaceAll(strings.TrimPrefix(partName, "/"), "/", "_")
	h.reload.Lock()
	defer h.reload.Unlock()
	part := h.parts[partName]
	if part == nil {
		part = &partition{}
	}

	fv, data, err := in.Read(ag, destDir+"/credentials")
	if err != nil {
		return err
	}
	creds, err := h.credentials.Plan(fv, data, credentialsParser)
	if err != nil {
		return fmt.Errorf("install_nfs: credentials %w", err)
	}
	if fv, data, err = in.Read(ag, destDir+"/"+base+".quotas"); err != nil {
		return err
	}
	quotas, err := part.quotas.Plan(fv, data, quotasParser)
	if err != nil {
		return fmt.Errorf("install_nfs: quotas %w", err)
	}
	if fv, data, err = in.Read(ag, destDir+"/"+base+".dirs"); err != nil {
		return err
	}
	lockers, dirsID, err := h.planLockers(fv, data, part.dirsID)
	if err != nil {
		return fmt.Errorf("install_nfs: dirs %w", err)
	}

	for _, l := range lockers {
		if err := createLocker(ag, l); err != nil {
			return err
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.credentials.Commit(creds)
	part.quotas.Commit(quotas)
	part.dirsID = dirsID
	h.parts[partName] = part
	for _, l := range lockers {
		h.lockers[l.Path] = l
	}
	h.installs++
	return nil
}

// planLockers lists the lockers a dirs file names that do not exist yet
// — every line of the file, or, when the lockers of the push's old side
// already exist, only its new lines — and the ID the partition's dirs
// then reflect. Updates never clobber lockers. It reads data line by
// line, whole or only the edits.
func (h *Host) planLockers(fv *update.File, data update.Text, dirsID string) ([]Locker, string, error) {
	id, ranges := "", []update.Range{{Lo: 0, Hi: data.Len()}}
	if fv != nil {
		id = fv.NewID
		switch fv.Action(dirsID) {
		case update.Keep:
			return nil, id, nil
		case update.Patch:
			ranges = ranges[:0]
			for _, e := range fv.Edits {
				ranges = append(ranges, e.New)
			}
		}
	}
	var lockers []Locker
	planned := map[string]bool{}
	for _, r := range ranges {
		err := data.Lines(r, func(line []byte, off int) error {
			l, skip, err := parseDir(line)
			if err != nil {
				return fmt.Errorf("line %d: %w", data.LineNo(off), err)
			}
			if _, exists := h.lockers[l.Path]; skip || exists || planned[l.Path] {
				return nil
			}
			planned[l.Path] = true
			lockers = append(lockers, l)
			return nil
		})
		if err != nil {
			return nil, "", err
		}
	}
	return lockers, id, nil
}

// createLocker makes a locker's directory in the host tree: HOMEDIR
// lockers get the default init files, the rest a placeholder.
func createLocker(ag *update.Agent, l Locker) error {
	if l.Inits {
		if err := ag.WriteHostFile(l.Path+"/.cshrc", defaultCshrc); err != nil {
			return err
		}
		return ag.WriteHostFile(l.Path+"/.login", defaultLogin)
	}
	return ag.WriteHostFile(l.Path+"/.keep", nil)
}

// Verify reports the first way the host's state differs from a
// from-scratch parse of what is installed under destDir on ag's host:
// credentials and every partition's quotas must match exactly, and
// every locker a dirs file names must exist.
func (h *Host) Verify(ag *update.Agent, destDir string) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	data, err := ag.ReadHostFile(destDir + "/credentials")
	if err != nil {
		return err
	}
	if err := h.credentials.Verify(update.TextOf(data), credentialsParser); err != nil {
		return fmt.Errorf("nfshost %s: credentials: %w", h.Name, err)
	}
	for name, p := range h.parts {
		base := destDir + "/" + strings.ReplaceAll(strings.TrimPrefix(name, "/"), "/", "_")
		if data, err = ag.ReadHostFile(base + ".quotas"); err != nil {
			return err
		}
		if err := p.quotas.Verify(update.TextOf(data), quotasParser); err != nil {
			return fmt.Errorf("nfshost %s: %s: quotas: %w", h.Name, name, err)
		}
		if data, err = ag.ReadHostFile(base + ".dirs"); err != nil {
			return err
		}
		missing, _, err := h.planLockers(nil, update.TextOf(data), "")
		if err != nil {
			return err
		}
		if len(missing) > 0 {
			return fmt.Errorf("nfshost %s: %s: locker %s never created", h.Name, name, missing[0].Path)
		}
	}
	return nil
}

var (
	defaultCshrc = []byte("# Athena default .cshrc\nsource /usr/athena/lib/init/cshrc\n")
	defaultLogin = []byte("# Athena default .login\nsource /usr/athena/lib/init/login\n")
)
