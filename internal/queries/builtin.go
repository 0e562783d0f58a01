package queries

// The built-in special queries (section 7.0.8): _help, _list_queries,
// and _list_users, plus the trigger_dcm pseudo-query used only for
// access checking of the Trigger_DCM protocol request.

import (
	"strings"

	"moira/internal/mrerr"
)

// TriggerDCMCapability is the pseudo-query name whose CAPACLS row governs
// the Trigger_DCM protocol request.
const TriggerDCMCapability = "trigger_dcm"

func init() {
	register([]Query{
		{Name: "_help", Short: "_hlp", In: []Arg{arg("query")}, Rows: Columns("help_message"), Access: Anyone,
			Do: func(r *Req) error {
				q, ok := Lookup(r.s[0])
				if !ok {
					return mrerr.MrNoHandle
				}
				msg := q.Short + " " + q.Name + " (" + q.Kind.String() + ")"
				if len(q.Args) > 0 {
					msg += " args: " + strings.Join(q.Args, ", ")
				}
				if q.Rows != nil {
					msg += " returns: " + strings.Join(q.Rows.names, ", ")
				}
				r.Row(txt(msg))
				return nil
			}},
		{Name: "_list_queries", Short: "_lqu", Rows: Columns("long_query_name short_query_name"), Access: Anyone,
			Do: func(r *Req) error {
				for _, q := range ordered {
					r.Row(txt(q.Name), txt(q.Short))
				}
				return nil
			}},
		{Name: "_list_users", Short: "_lus", IndexOrder: true, Access: Anyone,
			Rows: Columns("kerberos_principal host_address port_number:int connect_time:time client_number:int"),
			Do: func(r *Req) error {
				if r.Sessions != nil {
					for _, s := range r.Sessions() {
						r.Row(txt(s.Principal), txt(s.HostAddress), dec(s.Port), dec(s.ConnectTime), dec(s.ClientNum))
					}
				}
				return nil
			}},
		// trigger_dcm exists only as a capability anchor: executing it
		// through the normal Query request also works (for completeness)
		// and simply fires the server's DCM trigger.
		{Name: TriggerDCMCapability, Short: "tdcm", Kind: Update,
			Do: func(r *Req) error {
				if r.TriggerDCM != nil {
					r.TriggerDCM(r.TraceID)
				}
				return nil
			}},
	})
}
