// Package workload builds deterministic synthetic Athena populations:
// the stand-in for MIT's production data that the paper's deployment
// numbers describe (section 5.1: 10,000 active users, 20 NFS locker
// servers, one hesiod file set, one mail hub, a handful of zephyr
// classes). The same generator, scaled down, seeds the examples and
// integration tests.
package workload

import (
	"fmt"
	"math/rand"

	"moira/internal/db"
)

// Config sizes a population. The zero value is useless; start from
// Default10K or Scaled.
type Config struct {
	Seed int64

	Users          int // active users
	POServers      int // post office machines
	NFSServers     int // NFS locker servers
	PartsPerServer int // exported partitions per NFS server
	HesiodServers  int
	ZephyrServers  int
	ZephyrClasses  int
	Workstations   int
	Clusters       int
	Printers       int
	NetServices    int
	MailLists      int
	AvgListSize    int
}

// Default10K is the paper-scale deployment of section 5.1.
func Default10K() Config {
	return Scaled(10000)
}

// Scaled builds a configuration proportional to the user count, pinned
// to the paper's absolute server counts at 10k users.
func Scaled(users int) Config {
	frac := func(n int) int {
		v := n * users / 10000
		if v < 1 {
			v = 1
		}
		return v
	}
	return Config{
		Seed:           42,
		Users:          users,
		POServers:      2,
		NFSServers:     frac(20),
		PartsPerServer: 1,
		HesiodServers:  1,
		ZephyrServers:  3,
		ZephyrClasses:  6,
		Workstations:   frac(1000),
		Clusters:       frac(12),
		Printers:       frac(40),
		NetServices:    200,
		MailLists:      frac(1200),
		AvgListSize:    8,
	}
}

// Stats reports what Populate created.
type Stats struct {
	Users, Lists, Members, Machines, Clusters int
	Filesystems, Quotas, Printers, Services   int
	ServerHosts                               int
}

// Hosts returned by Populate for wiring up agents in tests and benches.
type Hosts struct {
	Hesiod  []string
	NFS     []string
	POs     []string
	Mailhub string
	Zephyr  []string
}

var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
	"ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
	"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
	"ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
	"ta", "te", "ti", "to", "tu", "va", "ve", "vi", "vo", "vu",
	"za", "ze", "zi", "zo", "zu", "ga", "ge", "gi", "go", "gu",
}

var firstNames = []string{
	"Harmon", "Angela", "Gerhard", "Martin", "Peter", "Jean", "Mark",
	"Michael", "Bill", "Ken", "Laura", "Susan", "David", "Karen",
	"James", "Mary", "Robert", "Linda", "John", "Barbara",
}

var lastNames = []string{
	"Fowler", "Barba", "Messmer", "Zimmermann", "Delaney", "Levine",
	"Rosenstein", "Gretzinger", "Diaz", "Sommerfeld", "Raeburn",
	"Smith", "Jones", "Chen", "Garcia", "Miller", "Davis", "Wilson",
	"Anderson", "Taylor",
}

type namer struct {
	rng  *rand.Rand
	used map[string]bool
}

func (n *namer) login() string {
	for {
		k := 2 + n.rng.Intn(2)
		s := ""
		for i := 0; i < k; i++ {
			s += syllables[n.rng.Intn(len(syllables))]
		}
		if n.rng.Intn(3) == 0 {
			s += fmt.Sprintf("%d", n.rng.Intn(10))
		}
		if !n.used[s] {
			n.used[s] = true
			return s
		}
	}
}

// classes a synthetic student may be in; must match the bootstrap TYPE
// aliases.
var classes = []string{"1988", "1989", "1990", "1991", "1992", "1993", "G", "STAFF", "FACULTY"}

// Populate fills a bootstrapped database with the synthetic population
// and the DCM service/serverhost records for HESIOD, NFS, SMTP, and
// ZEPHYR. It performs direct inserts under one exclusive hold — the
// moral equivalent of the registrar-tape bulk load.
func Populate(d *db.DB, cfg Config) (*Stats, *Hosts, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nm := &namer{rng: rng, used: map[string]bool{"root": true, "moira": true}}
	stats := &Stats{}
	hosts := &Hosts{}

	d.LockExclusive()
	defer d.UnlockExclusive()

	mod := db.ModInfo{Time: d.Now(), By: "root", With: "workload"}

	newMachine := func(name, typ string) (int, error) {
		id, err := d.AllocID("mach_id")
		if err != nil {
			return 0, err
		}
		if err := db.Machines.Insert(d, &db.Machine{MachID: id, Name: name, Type: typ, Mod: mod}); err != nil {
			return 0, err
		}
		stats.Machines++
		return id, nil
	}

	// --- infrastructure machines ---
	var poIDs []int
	for i := 1; i <= cfg.POServers; i++ {
		name := fmt.Sprintf("ATHENA-PO-%d.MIT.EDU", i)
		id, err := newMachine(name, "VAX")
		if err != nil {
			return nil, nil, err
		}
		poIDs = append(poIDs, id)
		hosts.POs = append(hosts.POs, name)
	}
	var nfsSrvs []*nfsSrv
	for i := 1; i <= cfg.NFSServers; i++ {
		name := fmt.Sprintf("FS-%02d.MIT.EDU", i)
		id, err := newMachine(name, "VAX")
		if err != nil {
			return nil, nil, err
		}
		srv := &nfsSrv{machID: id, name: name}
		for p := 0; p < cfg.PartsPerServer; p++ {
			pid, err := d.AllocID("nfsphys_id")
			if err != nil {
				return nil, nil, err
			}
			part := &db.NFSPhys{
				NFSPhysID: pid, MachID: id,
				Dir:    fmt.Sprintf("/u%d", p+1),
				Device: fmt.Sprintf("ra%dc", p),
				Status: 1 | 2 | 4, // student+faculty+staff lockers
				Size:   400000,
				Mod:    mod,
			}
			if err := db.Partitions.Insert(d, part); err != nil {
				return nil, nil, err
			}
			srv.parts = append(srv.parts, part)
		}
		nfsSrvs = append(nfsSrvs, srv)
		hosts.NFS = append(hosts.NFS, name)
	}
	var hesiodIDs []int
	for i := 1; i <= cfg.HesiodServers; i++ {
		name := fmt.Sprintf("HESIOD-%d.MIT.EDU", i)
		if i == 1 {
			name = "SUOMI.MIT.EDU" // the paper's target host
		}
		id, err := newMachine(name, "RT")
		if err != nil {
			return nil, nil, err
		}
		hesiodIDs = append(hesiodIDs, id)
		hosts.Hesiod = append(hosts.Hesiod, name)
	}
	mailhubID, err := newMachine("ATHENA.MIT.EDU", "VAX")
	if err != nil {
		return nil, nil, err
	}
	hosts.Mailhub = "ATHENA.MIT.EDU"
	var zephyrIDs []int
	for i := 1; i <= cfg.ZephyrServers; i++ {
		name := fmt.Sprintf("Z-%d.MIT.EDU", i)
		id, err := newMachine(name, "VAX")
		if err != nil {
			return nil, nil, err
		}
		zephyrIDs = append(zephyrIDs, id)
		hosts.Zephyr = append(hosts.Zephyr, name)
	}

	// --- clusters and workstations ---
	var cluIDs []int
	for i := 0; i < cfg.Clusters; i++ {
		cid, err := d.AllocID("clu_id")
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("bldg%d-vs", i+1)
		if err := db.Clusters.Insert(d, &db.Cluster{CluID: cid, Name: name,
			Desc:     fmt.Sprintf("building %d vaxstations", i+1),
			Location: fmt.Sprintf("Bldg %d", i+1), Mod: mod}); err != nil {
			return nil, nil, err
		}
		for _, svc := range []db.SvcData{
			{CluID: cid, ServLabel: "zephyr", ServCluster: fmt.Sprintf("z-%d.mit.edu", i%cfg.ZephyrServers+1)},
			{CluID: cid, ServLabel: "lpr", ServCluster: fmt.Sprintf("printer-%d", i+1)},
		} {
			if err := db.Svc.Insert(d, &svc); err != nil {
				return nil, nil, err
			}
		}
		cluIDs = append(cluIDs, cid)
		stats.Clusters++
	}
	for i := 0; i < cfg.Workstations; i++ {
		name := fmt.Sprintf("W%04d.MIT.EDU", i+1)
		id, err := newMachine(name, []string{"VAX", "RT"}[rng.Intn(2)])
		if err != nil {
			return nil, nil, err
		}
		if len(cluIDs) > 0 {
			if err := db.MCMaps.Insert(d, &db.MCMap{MachID: id, CluID: cluIDs[i%len(cluIDs)]}); err != nil {
				return nil, nil, err
			}
			// A few machines sit in two clusters, exercising the
			// pseudo-cluster path in the hesiod generator.
			if i%97 == 0 && len(cluIDs) > 1 {
				if err := db.MCMaps.Insert(d, &db.MCMap{MachID: id, CluID: cluIDs[(i+1)%len(cluIDs)]}); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	// --- users, their groups, home filesystems, quotas, poboxes ---
	defQuota, err := d.GetValue("def_quota")
	if err != nil {
		return nil, nil, err
	}
	poCount := make([]int, len(poIDs))
	var userIDs []int
	for i := 0; i < cfg.Users; i++ {
		login := nm.login()
		uid, err := d.AllocID("uid")
		if err != nil {
			return nil, nil, err
		}
		usersID, err := d.AllocID("users_id")
		if err != nil {
			return nil, nil, err
		}
		first := firstNames[rng.Intn(len(firstNames))]
		last := lastNames[rng.Intn(len(lastNames))]
		po := i % len(poIDs)
		poCount[po]++
		u := &db.User{
			UsersID: usersID, Login: login, UID: uid, Shell: "/bin/csh",
			Last: last, First: first, Status: db.UserActive,
			MITID:   fmt.Sprintf("xx%011d", rng.Int63n(1e11)),
			MITYear: classes[rng.Intn(len(classes))],
			Mod:     mod, Fullname: first + " " + last, FMod: mod,
			PoType: db.PoboxPOP, PopID: poIDs[po], PMod: mod,
		}
		if err := db.Users.Insert(d, u); err != nil {
			return nil, nil, err
		}
		userIDs = append(userIDs, usersID)
		stats.Users++

		// Namesake group.
		gid, err := d.AllocID("gid")
		if err != nil {
			return nil, nil, err
		}
		lid, err := d.AllocID("list_id")
		if err != nil {
			return nil, nil, err
		}
		if err := db.Lists.Insert(d, &db.List{ListID: lid, Name: login, Active: true,
			Group: true, GID: gid, Desc: "group of user " + login,
			ACLType: db.ACEUser, ACLID: usersID, Mod: mod}); err != nil {
			return nil, nil, err
		}
		if err := d.AddMember(lid, db.ACEUser, usersID); err != nil {
			return nil, nil, err
		}
		stats.Lists++
		stats.Members++

		// Home filesystem on a round-robin partition.
		srv := nfsSrvs[i%len(nfsSrvs)]
		part := srv.parts[(i/len(nfsSrvs))%len(srv.parts)]
		fid, err := d.AllocID("filsys_id")
		if err != nil {
			return nil, nil, err
		}
		if err := db.Filesystems.Insert(d, &db.Filesys{
			FilsysID: fid, Label: login, PhysID: part.NFSPhysID,
			Type: db.FSTypeNFS, MachID: srv.machID,
			Name: part.Dir + "/" + login, Mount: "/mit/" + login,
			Access: "w", Owner: usersID, Owners: lid, CreateFlg: true,
			LockerType: db.LockerHomedir, Mod: mod,
		}); err != nil {
			return nil, nil, err
		}
		if err := db.Quotas.Insert(d, &db.NFSQuota{UsersID: usersID, FilsysID: fid,
			PhysID: part.NFSPhysID, Quota: defQuota, Mod: mod}); err != nil {
			return nil, nil, err
		}
		part.Allocated += defQuota
		stats.Filesystems++
		stats.Quotas++
	}

	// --- mailing lists ---
	for i := 0; i < cfg.MailLists && len(userIDs) > 0; i++ {
		name := fmt.Sprintf("%s-%s", nm.login(), []string{"users", "discuss", "announce", "staff"}[rng.Intn(4)])
		lid, err := d.AllocID("list_id")
		if err != nil {
			return nil, nil, err
		}
		owner := userIDs[rng.Intn(len(userIDs))]
		l := &db.List{
			ListID: lid, Name: name, Active: true,
			Public:   rng.Intn(3) != 0,
			Hidden:   rng.Intn(20) == 0,
			Maillist: true,
			Group:    rng.Intn(10) == 0,
			GID:      -1,
			Desc:     "mailing list " + name,
			ACLType:  db.ACEUser, ACLID: owner, Mod: mod,
		}
		if l.Group {
			if l.GID, err = d.AllocID("gid"); err != nil {
				return nil, nil, err
			}
		}
		if err := db.Lists.Insert(d, l); err != nil {
			return nil, nil, err
		}
		stats.Lists++
		n := 2 + rng.Intn(cfg.AvgListSize*2)
		for j := 0; j < n; j++ {
			uid := userIDs[rng.Intn(len(userIDs))]
			if err := d.AddMember(lid, db.ACEUser, uid); err == nil {
				stats.Members++
			}
		}
		// Occasional external (string) members, as in the paper's
		// video-users example.
		if rng.Intn(4) == 0 {
			sid, err := d.InternString(nm.login() + "@media-lab.mit.edu")
			if err != nil {
				return nil, nil, err
			}
			if err := d.AddMember(lid, db.ACEString, sid); err == nil {
				stats.Members++
			}
		}
	}

	// --- printers and network services ---
	for i := 0; i < cfg.Printers; i++ {
		name := fmt.Sprintf("ln03-%d", i+1)
		spool := zephyrIDs[0]
		if len(hesiodIDs) > 0 {
			spool = hesiodIDs[i%len(hesiodIDs)]
		}
		if err := db.Printcaps.Insert(d, &db.Printcap{Name: name, MachID: spool,
			Dir: "/usr/spool/printer/" + name, RP: name, Mod: mod}); err != nil {
			return nil, nil, err
		}
		stats.Printers++
	}
	protos := []string{"TCP", "UDP"}
	for i := 0; i < cfg.NetServices; i++ {
		name := fmt.Sprintf("svc%03d", i+1)
		if err := db.Services.Insert(d, &db.Service{Name: name,
			Protocol: protos[rng.Intn(2)], Port: 1000 + i, Desc: "synthetic service", Mod: mod}); err != nil {
			return nil, nil, err
		}
		stats.Services++
	}
	for _, std := range []struct {
		name  string
		proto string
		port  int
	}{{"smtp", "TCP", 25}, {"qotd", "TCP", 17}, {"rpc_ns", "UDP", 32767}} {
		if err := db.Services.Insert(d, &db.Service{Name: std.name, Protocol: std.proto,
			Port: std.port, Desc: std.name, Mod: mod}); err != nil {
			return nil, nil, err
		}
		stats.Services++
	}

	// --- zephyr classes ---
	// Transmit control goes to a small operators list (roughly a dozen
	// principals, like the paper's ~100-byte ACL files).
	adminList, _ := d.ListByName("dbadmin")
	opsID, err := d.AllocID("list_id")
	if err != nil {
		return nil, nil, err
	}
	if err := db.Lists.Insert(d, &db.List{ListID: opsID, Name: "zephyr-operators",
		Active: true, Desc: "zephyr class operators",
		ACLType: db.ACEList, ACLID: adminList.ListID, Mod: mod}); err != nil {
		return nil, nil, err
	}
	stats.Lists++
	for i := 0; i < 12 && i < len(userIDs); i++ {
		if err := d.AddMember(opsID, db.ACEUser, userIDs[i*37%len(userIDs)]); err == nil {
			stats.Members++
		}
	}
	for i := 0; i < cfg.ZephyrClasses; i++ {
		class := fmt.Sprintf("CLASS-%d", i+1)
		if i == 0 {
			class = "MOIRA"
		}
		z := &db.ZephyrClass{Class: class,
			XmtType: db.ACEList, XmtID: opsID,
			SubType: db.ACENone, IwsType: db.ACENone, IuiType: db.ACENone,
			Mod: mod}
		if err := db.ZephyrClasses.Insert(d, z); err != nil {
			return nil, nil, err
		}
	}

	// --- DCM service records (section 5.1.G intervals) ---
	type svcDef struct {
		name     string
		interval int // minutes
		target   string
		dest     string
		typ      string
		hostIDs  []int
	}
	defs := []svcDef{
		{"HESIOD", 360, "/tmp/hesiod.out", "/etc/athena/hesiod", db.ServiceReplicated, hesiodIDs},
		{"NFS", 720, "/tmp/nfs.out", "/etc/athena/nfs", db.ServiceUnique, machIDsOf(nfsSrvs)},
		{"SMTP", 1440, "/tmp/mail.out", "/usr/lib", db.ServiceUnique, []int{mailhubID}},
		{"ZEPHYR", 1440, "/tmp/zephyr.out", "/etc/athena/zephyr", db.ServiceReplicated, zephyrIDs},
		{"POP", 720, "/tmp/po.out", "/etc/athena/po", db.ServiceUnique, poIDs},
		// Pseudo-services with no generator modules: they appear in the
		// hesiod sloc data (as ATHENA_MESSAGE, GMOTD, and LOCAL did) but
		// the DCM skips them.
		{"ATHENA_MESSAGE", 0, "", "", db.ServiceUnique, []int{mailhubID}},
		{"GMOTD", 0, "", "", db.ServiceUnique, []int{mailhubID}},
		{"LOCAL", 0, "", "", db.ServiceUnique, hesiodIDs},
		{"WRITE", 0, "", "", db.ServiceReplicated, zephyrIDs},
	}
	for _, def := range defs {
		if err := db.Servers.Insert(d, &db.Server{
			Name: def.name, UpdateInt: def.interval, TargetFile: def.target,
			Script: def.dest, Type: def.typ,
			Enable:  def.name != "POP" && def.interval > 0,
			ACLType: db.ACEList, ACLID: adminList.ListID, Mod: mod,
		}); err != nil {
			return nil, nil, err
		}
		for i, machID := range def.hostIDs {
			sh := &db.ServerHost{Service: def.name, MachID: machID, Enable: true, Mod: mod}
			if def.name == "POP" {
				sh.Value1 = poCount[i]
				sh.Value2 = cfg.Users
			}
			if err := db.ServerHosts.Insert(d, sh); err != nil {
				return nil, nil, err
			}
			stats.ServerHosts++
		}
	}
	return stats, hosts, nil
}

func machIDsOf(srvs []*nfsSrv) []int {
	out := make([]int, len(srvs))
	for i, s := range srvs {
		out[i] = s.machID
	}
	return out
}

// nfsSrv must be package-scoped for machIDsOf's signature.
type nfsSrv struct {
	machID int
	name   string
	parts  []*db.NFSPhys
}
