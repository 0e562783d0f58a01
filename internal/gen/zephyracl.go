package gen

import (
	"strings"

	"moira/internal/acl"
	"moira/internal/db"
	"moira/internal/extract"
)

// zephyrReads are the relations feeding the zephyr extract, the columns
// it reads and the keys a changed row dirties: an ACL file renders the
// logins and strings its ACE expands to.
var zephyrReads = []extract.Read{
	on(db.TZephyr, func(z *db.ZephyrClass) db.ZephyrClass {
		c := *z
		c.Mod = db.ModInfo{}
		return c
	}, func(_ *db.DB, z *db.ZephyrClass, add func(string)) { add("class:" + z.Class) }),
	on(db.TUsers, func(u *db.User) string { return u.Login }, func(d *db.DB, u *db.User, add func(string)) {
		classesReaching(d, db.ACEUser, u.UsersID, add)
	}),
	on(db.TMembers, whole[db.Member], func(d *db.DB, m *db.Member, add func(string)) {
		classesReaching(d, db.ACEList, m.ListID, add)
	}),
	on(db.TStrings, whole[db.StringRec], func(d *db.DB, s *db.StringRec, add func(string)) {
		classesReaching(d, db.ACEString, s.StringID, add)
	}),
}

// classesReaching adds the keys of the classes with an ACE that expands
// to the member (mtype, mid).
func classesReaching(d *db.DB, mtype string, mid int, add func(string)) {
	reach := reaches(d, mtype, mid)
	db.ZephyrClasses.Each(d, func(z *db.ZephyrClass) bool {
		if reach(z.XmtType, z.XmtID) || reach(z.SubType, z.SubID) ||
			reach(z.IwsType, z.IwsID) || reach(z.IuiType, z.IuiID) {
			add("class:" + z.Class)
		}
		return true
	})
}

// ZephyrIncremental generates the access control list files for
// controlled zephyr classes (section 5.8.2, service ZEPHYR): for each
// existing ACE (even if it is empty) the membership is output, one entry
// per line, with recursive lists expanded. All zephyr servers receive
// the same tar. The key space is simply "class:<class>": each class owns
// its (up to four) ACL files outright.
var ZephyrIncremental = &Incremental{
	ReadList: zephyrReads,
	BuildFn:  zephyrBuild,
	EmitFn:   zephyrEmit,
}

// zephyrBuild enumerates the whole key domain and emits each key.
func zephyrBuild(d *db.DB) (*extract.Model, error) {
	m := extract.NewModel()
	db.ZephyrClasses.Each(d, func(z *db.ZephyrClass) bool {
		zephyrEmit(d, m, "class:"+z.Class)
		return true
	})
	return m, nil
}

// zephyrEmit renders one class's ACL files into the model.
func zephyrEmit(d *db.DB, m *extract.Model, key string) {
	_, name, ok := strings.Cut(key, ":")
	if !ok {
		return
	}
	z, ok := db.ZephyrClasses.Get(d, name)
	if !ok {
		return
	}
	renderACE := func(aceType string, aceID int) ([]byte, bool) {
		switch aceType {
		case db.ACEUser:
			if u, ok := db.Users.ByID(d, aceID); ok {
				return []byte(u.Login + "\n"), true
			}
			return []byte{}, true
		case db.ACEList:
			var b strings.Builder
			for _, mem := range acl.ExpandMembers(d, aceID) {
				switch mem.MemberType {
				case db.ACEUser:
					if u, ok := db.Users.ByID(d, mem.MemberID); ok {
						b.WriteString(u.Login + "\n")
					}
				case db.ACEString:
					if s, ok := db.Strings.ByID(d, mem.MemberID); ok {
						b.WriteString(s.String + "\n")
					}
				}
			}
			return []byte(b.String()), true
		default:
			return nil, false // NONE: no ACL file, function unrestricted
		}
	}
	for _, fn := range []struct {
		suffix string
		typ    string
		id     int
	}{
		{"xmt", z.XmtType, z.XmtID},
		{"sub", z.SubType, z.SubID},
		{"iws", z.IwsType, z.IwsID},
		{"iui", z.IuiType, z.IuiID},
	} {
		if data, ok := renderACE(fn.typ, fn.id); ok {
			m.Emit(z.Class+"."+fn.suffix+".acl", "", key, data)
		}
	}
}

// ZephyrInstallScript extracts every ACL file and reloads the server
// from exactly those files: a class function whose file left the bundle
// is unrestricted again. The DCM passes aclFiles from the bundle's
// member names (update.Bundle.Members).
func ZephyrInstallScript(target, destDir string, aclFiles []string) []string {
	var script []string
	for _, f := range aclFiles {
		script = append(script,
			"extract "+f+" "+destDir+"/"+f,
			"install "+destDir+"/"+f,
		)
	}
	return append(script, "exec reload_zephyr_acls "+strings.Join(append([]string{destDir}, aclFiles...), " "))
}
