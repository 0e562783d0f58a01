package queries

// The observability admin handles, served like any other query handle
// (the paper's idiom: everything goes through a predefined query).
// `_stats` returns the server's metric registry as (kind, name, value)
// tuples; `_spans` returns the span store's kept traces one span per
// tuple; `_health` runs the readiness probes in-band, so a client that
// can reach the RPC port can ask even without a -debug-addr. All are
// retrieves, so they run lock-free — none touches the database lock.

import (
	"strconv"

	"moira/internal/mrerr"
)

func init() {
	register(&Query{
		Name: "_stats", Short: "_sts", Kind: Retrieve,
		Returns: []string{"kind", "name", "value"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			if cx.Stats == nil {
				return mrerr.MrNoMatch
			}
			for _, ln := range cx.Stats.Snapshot().Lines() {
				if err := emit([]string{ln.Kind, ln.Name, ln.Value}); err != nil {
					return err
				}
			}
			return nil
		},
	})

	register(&Query{
		Name: "_spans", Short: "_spn", Kind: Retrieve,
		Args: []string{"trace_id"},
		Returns: []string{"trace_id", "span_id", "parent_span", "process",
			"name", "detail", "start_ns", "duration", "status"},
		Access: accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			if cx.Spans == nil {
				return mrerr.MrNoMatch
			}
			matched := false
			for _, tr := range cx.Spans() {
				if args[0] != "*" && tr.TraceID != args[0] {
					continue
				}
				matched = true
				for _, sp := range tr.Spans {
					err := emit([]string{
						sp.TraceID, sp.SpanID, sp.Parent, sp.Process,
						sp.Name, sp.Detail,
						strconv.FormatInt(sp.Start.UnixNano(), 10),
						sp.Duration.String(),
						strconv.FormatInt(int64(sp.Code), 10),
					})
					if err != nil {
						return err
					}
				}
			}
			if !matched {
				return mrerr.MrNoMatch
			}
			return nil
		},
	})

	register(&Query{
		Name: "_health", Short: "_hlt", Kind: Retrieve,
		Returns: []string{"probe", "ok", "detail"},
		Access:  accessAnyone,
		Handler: func(cx *Context, args []string, emit EmitFunc) error {
			if cx.Health == nil {
				return mrerr.MrNoMatch
			}
			for _, st := range cx.Health() {
				ok := "0"
				if st.OK {
					ok = "1"
				}
				if err := emit([]string{st.Name, ok, st.Detail}); err != nil {
					return err
				}
			}
			return nil
		},
	})
}
