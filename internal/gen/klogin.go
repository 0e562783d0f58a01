package gen

import (
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/extract"
)

var kloginTables = []string{
	db.THostAccess, db.TMachine, db.TUsers, db.TList, db.TMembers,
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
		TablesList: kloginTables,
		BuildFn: func(d *db.DB) (*extract.Model, error) {
			m := extract.NewModel()
			d.EachHostAccess(func(h *db.HostAccess) bool {
				if mach, ok := d.MachineByID(h.MachID); ok {
					emit(d, m, "host:"+mach.Name)
				}
				return true
			})
			return m, nil
		},
		DepsFn: kloginDeps,
		EmitFn: emit,
	}
}

// kloginEmit renders one host's .klogin into the model.
func kloginEmit(d *db.DB, m *extract.Model, key, realm string) {
	_, name, _ := strings.Cut(key, ":")
	mach, ok := d.MachineByName(name)
	if !ok {
		return
	}
	h, ok := d.HostAccessOf(mach.MachID)
	if !ok {
		return
	}
	var b strings.Builder
	line := func(usersID int) {
		if u, ok := d.UserByID(usersID); ok && u.Status == db.UserActive {
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

// kloginDeps maps one journal record to the klogin keys it dirties. The
// files are a handful of lines each, so anything that can change which
// principals an ACE expands to re-emits every host rather than chasing
// the membership closure.
func kloginDeps(d *db.DB, rec *db.JournalRecord) ([]string, bool) {
	switch rec.Query {
	case "add_server_host_access", "update_server_host_access", "delete_server_host_access":
		return []string{"host:" + canonMachine(d, rec.Args[0])}, true

	case "update_user", "update_user_status", "register_user", "delete_user",
		"add_member_to_list", "delete_member_from_list", "delete_list":
		return []string{"host:*"}, true

	case "add_user", "update_user_shell", "update_finger_by_login",
		"set_pobox", "set_pobox_pop", "delete_pobox",
		"add_list", "update_list", "add_machine",
		"add_cluster", "update_cluster", "delete_cluster",
		"add_machine_to_cluster", "delete_machine_from_cluster",
		"add_cluster_data", "delete_cluster_data",
		"add_filesys", "update_filesys", "delete_filesys",
		"add_nfsphys", "update_nfsphys", "delete_nfsphys", "adjust_nfsphys_allocation",
		"add_nfs_quota", "update_nfs_quota", "delete_nfs_quota",
		"add_service", "delete_service", "add_printcap", "delete_printcap",
		"add_alias", "delete_alias",
		"add_zephyr_class", "update_zephyr_class", "delete_zephyr_class",
		"add_server_info", "update_server_info", "delete_server_info",
		"reset_server_error", "set_server_internal_flags",
		"add_server_host_info", "update_server_host_info", "delete_server_host_info",
		"reset_server_host_error", "set_server_host_override", "set_server_host_internal",
		"add_value", "update_value", "delete_value":
		return nil, true
	}
	// Machine renames and deletions move the per-host bundle paths.
	return nil, false
}

// KLoginInstallScript installs the .klogin file at the host root.
func KLoginInstallScript(target, destDir string) []string {
	return []string{
		"extract .klogin " + destDir + "/.klogin",
		"install " + destDir + "/.klogin",
	}
}
