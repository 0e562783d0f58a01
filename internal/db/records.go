// Package db is the Moira database: the authoritative store at the core
// of the system. The paper used RTI INGRES but stresses that "Moira does
// not depend on any special feature of INGRES"; this package is the
// equivalent relational store built from scratch — typed relations with
// indexes, per-table modification statistics (TBLSTATS), a journal of
// successful changes, and the colon-escaped ASCII backup format used by
// mrbackup/mrrestore.
//
// Concurrency follows the original architecture: the Moira server is a
// single process with one database backend, so one lock serializes
// queries. The query dispatcher in internal/queries takes the lock
// (shared for retrievals, exclusive for updates) around each query; the
// accessor methods here document that the caller holds it.
package db

// User status values (section 6, USERS.status).
const (
	UserRegisterable    = 0 // not registered, but registerable
	UserActive          = 1 // active account
	UserHalfRegistered  = 2
	UserDeleted         = 3 // marked for deletion
	UserNotRegisterable = 4
)

// Pobox types.
const (
	PoboxNone = "NONE"
	PoboxPOP  = "POP"
	PoboxSMTP = "SMTP"
)

// ACE (access control entity) types. RUser/RList are the recursive forms
// accepted by get_ace_use and get_lists_of_member.
const (
	ACEUser   = "USER"
	ACEList   = "LIST"
	ACENone   = "NONE"
	ACERUser  = "RUSER"
	ACERList  = "RLIST"
	ACEString = "STRING"
	ACERStr   = "RSTRING"
)

// Service types for the SERVERS relation.
const (
	ServiceUnique     = "UNIQUE"
	ServiceReplicated = "REPLICAT"
)

// Filesystem types.
const (
	FSTypeNFS = "NFS"
	FSTypeRVD = "RVD"
	FSTypeERR = "ERR"
)

// Locker types.
const (
	LockerSystem  = "SYSTEM"
	LockerHomedir = "HOMEDIR"
	LockerProject = "PROJECT"
	LockerCourse  = "COURSE"
	LockerOther   = "OTHER"
)

// ModInfo is the modification audit triple every relation carries.
type ModInfo struct {
	Time int64  // unix seconds
	By   string // login of the modifier
	With string // application used
}

// User is a row of the USERS relation, including the finger and pobox
// sub-records that the paper folds into the same table.
type User struct {
	UsersID int
	Login   string
	UID     int
	Shell   string
	Last    string
	First   string
	Middle  string
	Status  int
	MITID   string // crypt-hashed MIT ID
	MITYear string // academic class
	Mod     ModInfo

	// Finger record.
	Fullname    string
	Nickname    string
	HomeAddr    string
	HomePhone   string
	OfficeAddr  string
	OfficePhone string
	MITDept     string
	MITAffil    string
	FMod        ModInfo

	// Post office box.
	PoType string // POP, SMTP, or NONE
	PopID  int    // machine id of POP server (type POP)
	BoxID  int    // string id of the address (type SMTP)
	PMod   ModInfo
}

// columns lists u's columns in dump order (fields, escape.go). Every row
// type has one such method, and it is the row's backup format.
func (u *User) columns(f *fields) {
	f.int(&u.UsersID).str(&u.Login).int(&u.UID).str(&u.Shell, &u.Last, &u.First, &u.Middle).
		int(&u.Status).str(&u.MITID, &u.MITYear).mod(&u.Mod).
		str(&u.Fullname, &u.Nickname, &u.HomeAddr, &u.HomePhone, &u.OfficeAddr, &u.OfficePhone, &u.MITDept, &u.MITAffil).
		mod(&u.FMod).str(&u.PoType).int(&u.PopID, &u.BoxID).mod(&u.PMod)
}

// Machine is a row of the MACHINE relation.
type Machine struct {
	MachID int
	Name   string // canonical (upper case) hostname
	Type   string // e.g. VAX, RT
	Mod    ModInfo
}

func (m *Machine) columns(f *fields) { f.int(&m.MachID).str(&m.Name, &m.Type).mod(&m.Mod) }

// Cluster is a row of the CLUSTER relation.
type Cluster struct {
	CluID    int
	Name     string
	Desc     string
	Location string
	Mod      ModInfo
}

func (c *Cluster) columns(f *fields) { f.int(&c.CluID).str(&c.Name, &c.Desc, &c.Location).mod(&c.Mod) }

// MCMap assigns a machine to a cluster.
type MCMap struct {
	MachID int
	CluID  int
}

func (m *MCMap) columns(f *fields) { f.int(&m.MachID, &m.CluID) }

// SvcData is a row of the SVC relation: per-cluster service data.
type SvcData struct {
	CluID       int
	ServLabel   string
	ServCluster string
}

func (s *SvcData) columns(f *fields) { f.int(&s.CluID).str(&s.ServLabel, &s.ServCluster) }

// List is a row of the LIST relation.
type List struct {
	ListID   int
	Name     string
	Active   bool
	Public   bool
	Hidden   bool
	Maillist bool
	Group    bool
	GID      int
	Desc     string
	ACLType  string // USER, LIST, or NONE
	ACLID    int
	Mod      ModInfo
}

func (l *List) columns(f *fields) {
	f.int(&l.ListID).str(&l.Name).bool(&l.Active, &l.Public, &l.Hidden, &l.Maillist, &l.Group).
		int(&l.GID).str(&l.Desc, &l.ACLType).int(&l.ACLID).mod(&l.Mod)
}

// Member is a row of the MEMBERS relation.
type Member struct {
	ListID     int
	MemberType string // USER, LIST, STRING
	MemberID   int
}

func (m *Member) columns(f *fields) { f.int(&m.ListID).str(&m.MemberType).int(&m.MemberID) }

// Server is a row of the SERVERS relation: per-service DCM state.
type Server struct {
	Name       string // upper case service name
	UpdateInt  int    // minutes
	TargetFile string
	Script     string
	DFGen      int64  // unix time of last file generation
	DFCheck    int64  // unix time of last regeneration check
	Type       string // UNIQUE or REPLICAT
	Enable     bool
	InProgress bool
	HardError  int
	ErrMsg     string
	ACLType    string
	ACLID      int
	Mod        ModInfo
}

func (s *Server) columns(f *fields) {
	f.str(&s.Name).int(&s.UpdateInt).str(&s.TargetFile, &s.Script).int64(&s.DFGen, &s.DFCheck).
		str(&s.Type).bool(&s.Enable, &s.InProgress).int(&s.HardError).str(&s.ErrMsg, &s.ACLType).
		int(&s.ACLID).mod(&s.Mod)
}

// ServerHost is a row of the SERVERHOSTS relation: per-host DCM state.
type ServerHost struct {
	Service     string
	MachID      int
	Enable      bool
	Override    bool
	Success     bool
	InProgress  bool
	HostError   int
	HostErrMsg  string
	LastTry     int64
	LastSuccess int64
	Value1      int
	Value2      int
	Value3      string
	Mod         ModInfo
}

func (sh *ServerHost) columns(f *fields) {
	f.str(&sh.Service).int(&sh.MachID).bool(&sh.Enable, &sh.Override, &sh.Success, &sh.InProgress).
		int(&sh.HostError).str(&sh.HostErrMsg).int64(&sh.LastTry, &sh.LastSuccess).
		int(&sh.Value1, &sh.Value2).str(&sh.Value3).mod(&sh.Mod)
}

// Filesys is a row of the FILESYS relation.
type Filesys struct {
	FilsysID   int
	Label      string
	Order      int
	PhysID     int // nfsphys id for NFS filesystems
	Type       string
	MachID     int
	Name       string // server-side name (directory or packname)
	Mount      string // default mount point
	Access     string // r or w
	Comments   string
	Owner      int // users_id
	Owners     int // list_id
	CreateFlg  bool
	LockerType string
	Mod        ModInfo
}

func (fs *Filesys) columns(f *fields) {
	f.int(&fs.FilsysID).str(&fs.Label).int(&fs.Order, &fs.PhysID).str(&fs.Type).int(&fs.MachID).
		str(&fs.Name, &fs.Mount, &fs.Access, &fs.Comments).int(&fs.Owner, &fs.Owners).
		bool(&fs.CreateFlg).str(&fs.LockerType).mod(&fs.Mod)
}

// NFSPhys is a row of the NFSPHYS relation: an exported server partition.
type NFSPhys struct {
	NFSPhysID int
	MachID    int
	Dir       string
	Device    string
	Status    int // bit field, see util.FS* flags
	Allocated int // quota units allocated
	Size      int // capacity in quota units
	Mod       ModInfo
}

func (p *NFSPhys) columns(f *fields) {
	f.int(&p.NFSPhysID, &p.MachID).str(&p.Dir, &p.Device).int(&p.Status, &p.Allocated, &p.Size).mod(&p.Mod)
}

// NFSQuota is a row of the NFSQUOTA relation.
type NFSQuota struct {
	UsersID  int
	FilsysID int
	PhysID   int
	Quota    int
	Mod      ModInfo
}

func (q *NFSQuota) columns(f *fields) {
	f.int(&q.UsersID, &q.FilsysID, &q.PhysID, &q.Quota).mod(&q.Mod)
}

// ZephyrClass is a row of the ZEPHYR relation: four ACEs per class.
type ZephyrClass struct {
	Class   string
	XmtType string
	XmtID   int
	SubType string
	SubID   int
	IwsType string
	IwsID   int
	IuiType string
	IuiID   int
	Mod     ModInfo
}

func (z *ZephyrClass) columns(f *fields) {
	f.str(&z.Class, &z.XmtType).int(&z.XmtID).str(&z.SubType).int(&z.SubID).
		str(&z.IwsType).int(&z.IwsID).str(&z.IuiType).int(&z.IuiID).mod(&z.Mod)
}

// HostAccess is a row of the HOSTACCESS relation.
type HostAccess struct {
	MachID  int
	ACLType string
	ACLID   int
	Mod     ModInfo
}

func (h *HostAccess) columns(f *fields) { f.int(&h.MachID).str(&h.ACLType).int(&h.ACLID).mod(&h.Mod) }

// StringRec is a row of the STRINGS relation.
type StringRec struct {
	StringID int
	String   string
}

func (s *StringRec) columns(f *fields) { f.int(&s.StringID).str(&s.String) }

// Service is a row of the SERVICES relation (/etc/services data).
type Service struct {
	Name     string
	Protocol string // TCP or UDP
	Port     int
	Desc     string
	Mod      ModInfo
}

func (s *Service) columns(f *fields) {
	f.str(&s.Name, &s.Protocol).int(&s.Port).str(&s.Desc).mod(&s.Mod)
}

// Printcap is a row of the PRINTCAP relation.
type Printcap struct {
	Name     string
	MachID   int
	Dir      string
	RP       string
	Comments string
	Mod      ModInfo
}

func (p *Printcap) columns(f *fields) {
	f.str(&p.Name).int(&p.MachID).str(&p.Dir, &p.RP, &p.Comments).mod(&p.Mod)
}

// CapACL is a row of the CAPACLS relation: query capability -> list.
type CapACL struct {
	Capability string // usually the long query name
	Tag        string // four character short name
	ListID     int
}

func (c *CapACL) columns(f *fields) { f.str(&c.Capability, &c.Tag).int(&c.ListID) }

// Alias is a row of the ALIAS relation.
type Alias struct {
	Name  string
	Type  string // TYPE, PRINTER, SERVICE, FILESYS, TYPEDATA
	Trans string
}

func (a *Alias) columns(f *fields) { f.str(&a.Name, &a.Type, &a.Trans) }

// TblStat is a row of the TBLSTATS relation.
type TblStat struct {
	Table     string
	ModTime   int64
	Appends   int
	Updates   int
	Deletes   int
	Retrieves int // obsolete; kept for compatibility with the dump format
}

func (s *TblStat) columns(f *fields) {
	f.str(&s.Table).int64(&s.ModTime).int(&s.Retrieves, &s.Appends, &s.Updates, &s.Deletes)
}
