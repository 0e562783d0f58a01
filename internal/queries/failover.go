package queries

// The failover discovery handle. `_whois` reports the serving node's
// cluster identity — role, election epoch, applied journal position,
// and the current primary's addresses — so clients (DialFailover) and
// operators (moirastat -repl) can find the primary without an external
// coordinator. It is a retrieve served even by a read-only or fenced
// node: discovery must keep working exactly when the cluster is
// degraded.

import "time"

// WhoisInfo is the node identity reported by the _whois handle,
// supplied by the server via Context.Whois.
type WhoisInfo struct {
	Role  string // "primary", "replica", "fenced", or "standalone"
	Epoch int64  // election epoch the node currently honours
	Seg   int64  // journal position: current/next segment sequence
	Idx   int64  // journal position: records applied in Seg

	// Primary is the current primary's client (query) address as this
	// node believes it, "" when unknown; PrimaryRepl is its replication
	// address.
	Primary     string
	PrimaryRepl string

	// LeaseRemain is how much lease time remains from this node's view
	// (on the primary: until it must fence; on a replica: until it may
	// call an election). Negative or zero means expired or not tracked.
	LeaseRemain time.Duration

	// LastCause names what triggered the node's last role change:
	// "boot", "lease-expired", "operator", "deposed", "rejoin", or ""
	// when the role has never changed.
	LastCause string
}

func init() {
	register([]Query{
		{Name: "_whois", Short: "_who", Access: Anyone,
			Rows: Columns("role epoch:int primary primary_repl segment:int record:int lease_remaining_ms:int last_election_cause"),
			Do: func(r *Req) error {
				w := WhoisInfo{Role: "standalone"}
				if r.Whois != nil {
					w = r.Whois()
				}
				ms := max(w.LeaseRemain.Milliseconds(), 0)
				r.Row(txt(w.Role), dec(w.Epoch), txt(w.Primary), txt(w.PrimaryRepl), dec(w.Seg), dec(w.Idx), dec(ms), txt(w.LastCause))
				return nil
			}},
	})
}
