// Package zephyr is a from-scratch simulation of the Athena notification
// service, sufficient for the two ways Moira touches it: the DCM sends
// failure notices to class MOIRA instance DCM, and Moira propagates
// access control lists for restricted classes to the zephyr servers
// (section 5.8.2, service ZEPHYR).
//
// The broker delivers notices to subscribers by (class, instance), with
// "*" as the wildcard instance, and enforces per-class transmit and
// subscribe ACLs reloaded from the *.acl files the DCM installs.
package zephyr

import (
	"fmt"
	"strings"
	"sync"

	"moira/internal/clock"
	"moira/internal/mrerr"
	"moira/internal/update"
)

// Notice is one zephyrgram.
type Notice struct {
	Class    string
	Instance string
	Sender   string
	Message  string
	Time     int64
}

// aclParser reads an ACL file in the format the DCM installs: one
// principal a line, blank lines skipped. A row is a principal.
var aclParser = update.Parser[string, struct{}]{
	Key: func(line string, _ *string) (string, update.LineKind, error) {
		if line = strings.TrimSpace(line); line == "" {
			return "", update.Skip, nil
		}
		return line, update.Starts, nil
	},
	Fold: func(struct{}, string) (struct{}, error) { return struct{}{}, nil },
}

// Subscription is a live subscription; receive from C.
type Subscription struct {
	C      chan Notice
	broker *Broker
	key    subKey
	idx    int
}

type subKey struct {
	class    string
	instance string
}

// Broker is the in-process zephyr server.
type Broker struct {
	clk clock.Clock

	// reload admits one reload at a time, so a reload's plans, made
	// against the ACLs it reads, are what it commits over.
	reload sync.Mutex

	mu   sync.Mutex
	subs map[subKey][]*Subscription
	// acls holds the ACL files the last reload named, by file name
	// (<class>.<function>.acl). A function with no file is
	// unrestricted; an empty file denies everyone.
	acls map[string]*update.LineTable[string, struct{}]
	// Log keeps every accepted notice, for inspection by tests and the
	// dcm's operators.
	log []Notice
}

// NewBroker creates a broker; clk may be nil for the system clock.
func NewBroker(clk clock.Clock) *Broker {
	if clk == nil {
		clk = clock.System
	}
	return &Broker{clk: clk, subs: make(map[subKey][]*Subscription)}
}

// allows applies zephyr ACL matching to function fn ("xmt" or "sub") of
// class: with no ACL file the function is unrestricted; otherwise the
// principal must be listed, or a wildcard entry ("*", "*.*@*") must.
// The iws and iui files are held but not enforced: the original
// servers' instance controls are out of scope here.
func (b *Broker) allows(class, fn, principal string) bool {
	t := b.acls[class+"."+fn+".acl"]
	if t == nil {
		return true
	}
	_, listed := t.Rows[principal]
	_, anyone := t.Rows["*"]
	_, all := t.Rows["*.*@*"]
	return listed || anyone || all
}

// reloadACLs makes the broker hold exactly files, ACL file names under
// dir on ag's host: each is planned from the push's view (kept, patched
// or parsed whole; read from disk when the push did not extract it), and
// all are committed or, on any error, none. A path the view holds was
// resolved by its extract, one read from disk by ReadHostFile: both
// through Agent.HostPath.
func (b *Broker) reloadACLs(ag *update.Agent, in *update.Install, dir string, files []string) error {
	b.reload.Lock()
	defer b.reload.Unlock()
	acls := make(map[string]*update.LineTable[string, struct{}], len(files))
	plans := make([]update.TablePlan[string, struct{}], len(files))
	for i, name := range files {
		if !strings.HasSuffix(name, ".acl") || strings.ContainsRune(name, '/') || acls[name] != nil {
			return fmt.Errorf("%s: not one ACL file of %s", name, dir)
		}
		t := b.acls[name] // only reloads write b.acls
		if t == nil {
			t = &update.LineTable[string, struct{}]{}
		}
		fv, data, err := in.Read(ag, dir+"/"+name)
		if err == nil {
			plans[i], err = t.Plan(fv, data, aclParser)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		acls[name] = t
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, name := range files {
		acls[name].Commit(plans[i])
	}
	b.acls = acls
	return nil
}

// Verify reports the first way the broker's ACLs differ from a
// from-scratch load of files, ACL file names under dir on ag's host: it
// must hold those files and no other, each as a whole parse gives it.
func (b *Broker) Verify(ag *update.Agent, dir string, files []string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.acls) != len(files) {
		return fmt.Errorf("zephyr: %d ACL files held, want %d", len(b.acls), len(files))
	}
	for _, name := range files {
		t := b.acls[name]
		if t == nil {
			return fmt.Errorf("zephyr: %s not held", name)
		}
		data, err := ag.ReadHostFile(dir + "/" + name)
		if err != nil {
			return err
		}
		if err := t.Verify(update.TextOf(data), aclParser); err != nil {
			return fmt.Errorf("zephyr: %s: %w", name, err)
		}
	}
	return nil
}

// Subscribe registers interest in (class, instance); instance "*"
// receives every instance of the class. It fails with MR_PERM if the
// class's subscribe ACL excludes the principal.
func (b *Broker) Subscribe(class, instance, principal string) (*Subscription, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.allows(class, "sub", principal) {
		return nil, mrerr.MrPerm
	}
	key := subKey{class, instance}
	sub := &Subscription{C: make(chan Notice, 64), broker: b, key: key}
	sub.idx = len(b.subs[key])
	b.subs[key] = append(b.subs[key], sub)
	return sub, nil
}

// Cancel removes the subscription.
func (s *Subscription) Cancel() {
	b := s.broker
	b.mu.Lock()
	defer b.mu.Unlock()
	list := b.subs[s.key]
	for i, sub := range list {
		if sub == s {
			b.subs[s.key] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// Send transmits a notice. It fails with MR_PERM if the class's transmit
// ACL excludes the sender. Delivery is best-effort: subscribers with
// full channels miss the notice, as UDP zephyr would drop it.
func (b *Broker) Send(class, instance, sender, message string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.allows(class, "xmt", sender) {
		return mrerr.MrPerm
	}
	n := Notice{Class: class, Instance: instance, Sender: sender,
		Message: message, Time: b.clk.Now().Unix()}
	b.log = append(b.log, n)
	deliver := func(key subKey) {
		for _, sub := range b.subs[key] {
			select {
			case sub.C <- n:
			default:
			}
		}
	}
	deliver(subKey{class, instance})
	if instance != "*" {
		deliver(subKey{class, "*"})
	}
	return nil
}

// Log returns a copy of every accepted notice so far.
func (b *Broker) Log() []Notice {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Notice, len(b.log))
	copy(out, b.log)
	return out
}

// String renders a notice for operator logs.
func (n Notice) String() string {
	return fmt.Sprintf("[%d] %s/%s from %s: %s", n.Time, n.Class, n.Instance, n.Sender, n.Message)
}
