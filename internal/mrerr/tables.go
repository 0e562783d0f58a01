package mrerr

// The Moira error tables. Codes and messages follow section 7.1 of the
// paper. Four tables are registered: "mr" (server and query errors),
// "mrc" (client library / connection errors), "ukr" (Kerberos simulation
// errors), and "upd" (server-update protocol errors).

// mrTable holds the server-side and query errors.
var mrTable = Register("mr", []string{
	/* 0 */ "success (placeholder; code 0 of the table is never used)",
	/* 1 */ "An argument contains too many characters", // MR_ARG_TOO_LONG
	/* 2 */ "Incorrect number of arguments", // MR_ARGS
	/* 3 */ "Database deadlock; try again later", // MR_DEADLOCK
	/* 4 */ "An unexpected error occurred in the underlying DBMS", // MR_DBMS_ERR
	/* 5 */ "Internal consistency failure", // MR_INTERNAL
	/* 6 */ "Unknown query specified", // MR_NO_HANDLE
	/* 7 */ "Server ran out of memory", // MR_NO_MEM
	/* 8 */ "Insufficient permission to perform requested database access", // MR_PERM
	/* 9 */ "No records in database match query", // MR_NO_MATCH
	/* 10 */ "Illegal character in argument", // MR_BAD_CHAR
	/* 11 */ "Record already exists", // MR_EXISTS
	/* 12 */ "String could not be parsed as an integer", // MR_INTEGER
	/* 13 */ "Cannot allocate new ID", // MR_NO_ID
	/* 14 */ "Arguments not unique", // MR_NOT_UNIQUE
	/* 15 */ "Object is in use", // MR_IN_USE
	/* 16 */ "No such access control entity", // MR_ACE
	/* 17 */ "Specified class is not known", // MR_BAD_CLASS
	/* 18 */ "Invalid group ID", // MR_BAD_GROUP
	/* 19 */ "Unknown cluster", // MR_CLUSTER
	/* 20 */ "Invalid date", // MR_DATE
	/* 21 */ "Named file system does not exist", // MR_FILESYS
	/* 22 */ "Named file system already exists", // MR_FILESYS_EXISTS
	/* 23 */ "Invalid filesys access", // MR_FILESYS_ACCESS
	/* 24 */ "Invalid filesys type", // MR_FSTYPE
	/* 25 */ "No such list", // MR_LIST
	/* 26 */ "Unknown machine", // MR_MACHINE
	/* 27 */ "Specified directory not exported", // MR_NFS
	/* 28 */ "Machine/device pair not in nfsphys relation", // MR_NFSPHYS
	/* 29 */ "Cannot find space for filesys", // MR_NO_FILESYS
	/* 30 */ "No such user", // MR_USER
	/* 31 */ "Unknown service", // MR_SERVICE
	/* 32 */ "Invalid type", // MR_TYPE
	/* 33 */ "Wildcards not allowed here", // MR_WILDCARD
	/* 34 */ "There is more data to come", // MR_MORE_DATA
	/* 35 */ "No change to database since last file generation", // MR_NO_CHANGE
	/* 36 */ "User not authenticated; query requires authentication", // MR_NO_AUTH
	/* 37 */ "Protocol version skew between client and server", // MR_VERSION_MISMATCH
	/* 38 */ "Unknown major request in protocol", // MR_UNKNOWN_PROC
	/* 39 */ "Data control manager is disabled", // MR_DCM_DISABLED
	/* 40 */ "Query not permitted over unauthenticated connection", // (reserved)
	/* 41 */ "The server is shutting down", // MR_DOWN
	/* 42 */ "Server has too many connections; try again later", // MR_BUSY
	/* 43 */ "Server is a read-only replica; send updates to the primary", // MR_READONLY
	/* 44 */ "Replica has not caught up to the requested journal position", // MR_STALE
	/* 45 */ "Commit was not acknowledged by any replica before the deadline", // MR_NOT_REPLICATED
})

// Server and query error codes, exported as Go constants. The names keep
// the MR_ prefix spelling from the paper in their comments.
var (
	MrArgTooLong      = mrTable.Code(1)  // MR_ARG_TOO_LONG
	MrArgs            = mrTable.Code(2)  // MR_ARGS
	MrDeadlock        = mrTable.Code(3)  // MR_DEADLOCK
	MrDBMSErr         = mrTable.Code(4)  // MR_INGRES_ERR in the paper
	MrInternal        = mrTable.Code(5)  // MR_INTERNAL
	MrNoHandle        = mrTable.Code(6)  // MR_NO_HANDLE
	MrNoMem           = mrTable.Code(7)  // MR_NO_MEM
	MrPerm            = mrTable.Code(8)  // MR_PERM
	MrNoMatch         = mrTable.Code(9)  // MR_NO_MATCH
	MrBadChar         = mrTable.Code(10) // MR_BAD_CHAR
	MrExists          = mrTable.Code(11) // MR_EXISTS
	MrInteger         = mrTable.Code(12) // MR_INTEGER
	MrNoID            = mrTable.Code(13) // MR_NO_ID
	MrNotUnique       = mrTable.Code(14) // MR_NOT_UNIQUE
	MrInUse           = mrTable.Code(15) // MR_IN_USE
	MrACE             = mrTable.Code(16) // MR_ACE
	MrBadClass        = mrTable.Code(17) // MR_BAD_CLASS
	MrBadGroup        = mrTable.Code(18) // MR_BAD_GROUP
	MrCluster         = mrTable.Code(19) // MR_CLUSTER
	MrDate            = mrTable.Code(20) // MR_DATE
	MrFilesys         = mrTable.Code(21) // MR_FILESYS
	MrFilesysExists   = mrTable.Code(22) // MR_FILESYS_EXISTS
	MrFilesysAccess   = mrTable.Code(23) // MR_FILESYS_ACCESS
	MrFSType          = mrTable.Code(24) // MR_FSTYPE
	MrList            = mrTable.Code(25) // MR_LIST
	MrMachine         = mrTable.Code(26) // MR_MACHINE
	MrNFS             = mrTable.Code(27) // MR_NFS
	MrNFSPhys         = mrTable.Code(28) // MR_NFSPHYS
	MrNoFilesys       = mrTable.Code(29) // MR_NO_FILESYS
	MrUser            = mrTable.Code(30) // MR_USER
	MrService         = mrTable.Code(31) // MR_SERVICE
	MrType            = mrTable.Code(32) // MR_TYPE
	MrWildcard        = mrTable.Code(33) // MR_WILDCARD
	MrMoreData        = mrTable.Code(34) // MR_MORE_DATA
	MrNoChange        = mrTable.Code(35) // MR_NO_CHANGE
	MrNoAuth          = mrTable.Code(36)
	MrVersionMismatch = mrTable.Code(37) // MR_VERSION_*
	MrUnknownProc     = mrTable.Code(38)
	MrDCMDisabled     = mrTable.Code(39)
	MrDown            = mrTable.Code(41)
	MrBusy            = mrTable.Code(42) // MR_BUSY
	MrReadonly        = mrTable.Code(43) // MR_READONLY
	MrStale           = mrTable.Code(44) // MR_STALE
	MrNotReplicated   = mrTable.Code(45) // MR_NOT_REPLICATED
)

// mrcTable holds the client library / connection errors.
var mrcTable = Register("mrc", []string{
	/* 0 */ "success (placeholder)",
	/* 1 */ "Not connected to Moira server", // MR_NOT_CONNECTED
	/* 2 */ "Already connected to Moira server", // MR_ALREADY_CONNECTED
	/* 3 */ "Connection aborted while sending or receiving data", // MR_ABORTED
	/* 4 */ "Connection to Moira server refused",
	/* 5 */ "Connection to Moira server timed out",
	/* 6 */ "Reply from server could not be parsed",
	/* 7 */ "Query callback raised an error",
})

// Client library error codes.
var (
	MrNotConnected     = mrcTable.Code(1) // MR_NOT_CONNECTED
	MrAlreadyConnected = mrcTable.Code(2) // MR_ALREADY_CONNECTED
	MrAborted          = mrcTable.Code(3) // MR_ABORTED
	MrConnRefused      = mrcTable.Code(4)
	MrConnTimeout      = mrcTable.Code(5)
	MrBadReply         = mrcTable.Code(6)
	MrCallbackErr      = mrcTable.Code(7)
)

// krbTable holds the Kerberos-simulation errors.
var krbTable = Register("ukrb", []string{
	/* 0 */ "success (placeholder)",
	/* 1 */ "Principal unknown to Kerberos",
	/* 2 */ "Incorrect password",
	/* 3 */ "Ticket expired",
	/* 4 */ "Can't find ticket or ticket file",
	/* 5 */ "Authenticator could not be decoded",
	/* 6 */ "Replay detected: authenticator already used",
	/* 7 */ "Clock skew too great between client and server",
	/* 8 */ "Principal already exists in Kerberos database",
	/* 9 */ "Service key (srvtab) not found",
	/* 10 */ "Ticket not valid for requested service",
})

// Kerberos simulation error codes.
var (
	KrbUnknownPrincipal = krbTable.Code(1)
	KrbBadPassword      = krbTable.Code(2)
	KrbTicketExpired    = krbTable.Code(3)
	KrbNoTicket         = krbTable.Code(4)
	KrbBadAuthenticator = krbTable.Code(5)
	KrbReplay           = krbTable.Code(6)
	KrbClockSkew        = krbTable.Code(7)
	KrbPrincipalExists  = krbTable.Code(8)
	KrbNoSrvtab         = krbTable.Code(9)
	KrbWrongService     = krbTable.Code(10)
)

// updTable holds the Moira-to-server update protocol errors.
var updTable = Register("upd", []string{
	/* 0 */ "success (placeholder)",
	/* 1 */ "Checksum mismatch on transferred file",
	/* 2 */ "Update agent refused authentication",
	/* 3 */ "Installation script returned failure",
	/* 4 */ "Update timed out",
	/* 5 */ "Target host unreachable",
	/* 6 */ "No file staged for installation",
	/* 7 */ "Atomic rename of data file failed",
	/* 8 */ "No previous file to revert to",
	/* 9 */ "Unknown instruction in installation script",
	/* 10 */ "Update already in progress on this host",
	/* 11 */ "Target file is not the base the pushed edits apply to",
})

// Update protocol error codes.
var (
	UpdChecksum     = updTable.Code(1)
	UpdAuthFailed   = updTable.Code(2)
	UpdScriptError  = updTable.Code(3)
	UpdTimeout      = updTable.Code(4)
	UpdUnreachable  = updTable.Code(5)
	UpdNoFile       = updTable.Code(6)
	UpdRename       = updTable.Code(7)
	UpdNoRevert     = updTable.Code(8)
	UpdBadInstr     = updTable.Code(9)
	UpdBusy         = updTable.Code(10)
	UpdBaseMismatch = updTable.Code(11)
)

// regTable holds the user-registration protocol errors (section 5.10).
var regTable = Register("ureg", []string{
	/* 0 */ "success (placeholder)",
	/* 1 */ "User not found in registration database", // NOT_FOUND
	/* 2 */ "User is already registered", // ALREADY_REGISTERED
	/* 3 */ "Login name already taken", // LOGIN_TAKEN
	/* 4 */ "Registration authenticator invalid",
	/* 5 */ "User is not in the half-registered state",
	/* 6 */ "Chosen login name is badly formed",
	/* 7 */ "Unknown registration request",
})

// Registration protocol error codes.
var (
	RegNotFound          = regTable.Code(1)
	RegAlreadyRegistered = regTable.Code(2)
	RegLoginTaken        = regTable.Code(3)
	RegBadAuth           = regTable.Code(4)
	RegNotHalfRegistered = regTable.Code(5)
	RegBadLogin          = regTable.Code(6)
	RegUnknownRequest    = regTable.Code(7)
)
