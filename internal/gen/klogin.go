package gen

import (
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/extract"
)

// kloginReads are the relations feeding the klogin extract, the columns
// it reads and the keys a changed row dirties.
var kloginReads = []extract.Read{
	on(db.THostAccess, func(h *db.HostAccess) db.HostAccess {
		return db.HostAccess{MachID: h.MachID, ACLType: h.ACLType, ACLID: h.ACLID}
	}, func(d *db.DB, h *db.HostAccess, add func(string)) {
		if mach, ok := db.Machines.ByID(d, h.MachID); ok {
			add("host:" + mach.Name)
		}
	}),
	on(db.TMachine, machineName, func(d *db.DB, mach *db.Machine, add func(string)) {
		if _, ok := db.HostAccesses.ByID(d, mach.MachID); ok {
			add("host:" + mach.Name)
		}
	}),
	on(db.TUsers, func(u *db.User) db.User {
		return db.User{Login: u.Login, Status: u.Status}
	}, func(d *db.DB, u *db.User, add func(string)) { hostsReaching(d, db.ACEUser, u.UsersID, add) }),
	on(db.TMembers, whole[db.Member], func(d *db.DB, m *db.Member, add func(string)) {
		hostsReaching(d, db.ACEList, m.ListID, add)
	}),
}

// hostsReaching adds the keys of the hosts whose ACE expands to the
// member (mtype, mid).
func hostsReaching(d *db.DB, mtype string, mid int, add func(string)) {
	reach := reaches(d, mtype, mid)
	db.HostAccesses.Each(d, func(h *db.HostAccess) bool {
		if mach, ok := db.Machines.ByID(d, h.MachID); ok && reach(h.ACLType, h.ACLID) {
			add("host:" + mach.Name)
		}
		return true
	})
}

// KLogin generates per-host /.klogin files from the HOSTACCESS relation
// (section 7.0.7: "This will be used to load the /.klogin file on that
// machine"). Each named principal — the ACE user, or the recursive
// expansion of the ACE list — gets one `principal.@REALM` line granting
// root access on that host. The paper defines the relation and its
// queries but describes no generator; this completes the pipeline the
// schema was built for. The key space is "host:<machine>": each host
// owns its one file outright.
func KLogin(realm string) *Incremental {
	emit := func(d *db.DB, m *extract.Model, key string) { kloginEmit(d, m, key, realm) }
	return &Incremental{
		ReadList: kloginReads,
		BuildFn: func(d *db.DB) (*extract.Model, error) {
			m := extract.NewModel()
			db.HostAccesses.Each(d, func(h *db.HostAccess) bool {
				if mach, ok := db.Machines.ByID(d, h.MachID); ok {
					emit(d, m, "host:"+mach.Name)
				}
				return true
			})
			return m, nil
		},
		EmitFn: emit,
	}
}

// kloginEmit renders one host's .klogin into the model.
func kloginEmit(d *db.DB, m *extract.Model, key, realm string) {
	_, name, _ := strings.Cut(key, ":")
	mach, ok := db.Machines.Get(d, name)
	if !ok {
		return
	}
	h, ok := db.HostAccesses.ByID(d, mach.MachID)
	if !ok {
		return
	}
	var b strings.Builder
	line := func(usersID int) {
		if u, ok := db.Users.ByID(d, usersID); ok && u.Status == db.UserActive {
			b.WriteString(u.Login + ".@" + realm + "\n")
		}
	}
	switch h.ACLType {
	case db.ACEUser:
		line(h.ACLID)
	case db.ACEList:
		for _, mem := range acl.ExpandMembers(d, h.ACLID) {
			if mem.MemberType == db.ACEUser {
				line(mem.MemberID)
			}
		}
	}
	m.Emit(mach.Name+"/.klogin", "", key, []byte(b.String()))
}

// KLoginInstallScript installs the .klogin file at the host root.
func KLoginInstallScript(target, destDir string) []string {
	return []string{
		"extract .klogin " + destDir + "/.klogin",
		"install " + destDir + "/.klogin",
	}
}
