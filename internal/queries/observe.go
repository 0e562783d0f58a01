package queries

// The observability admin handles, served like any other query handle
// (the paper's idiom: everything goes through a predefined query).
// `_stats` returns the server's metric registry as (kind, name, value)
// tuples; `_spans` returns the span store's kept traces one span per
// tuple; `_health` runs the readiness probes in-band, so a client that
// can reach the RPC port can ask even without a -debug-addr. All are
// retrieves, so they run lock-free — none touches the database lock.

func init() {
	register([]Query{
		{Name: "_stats", Short: "_sts", Rows: Columns("kind name value"), IndexOrder: true, Access: Anyone,
			Do: func(r *Req) error {
				if r.Stats != nil {
					for _, ln := range r.Stats.Snapshot().Lines() {
						r.Row(txt(ln.Kind), txt(ln.Name), txt(ln.Value))
					}
				}
				return nil
			}},
		{Name: "_spans", Short: "_spn", In: []Arg{arg("trace_id")}, IndexOrder: true, Access: Anyone,
			Rows: Columns("trace_id span_id parent_span process name detail start_ns:int duration status:int"),
			Do: func(r *Req) error {
				if r.Spans == nil {
					return nil
				}
				for _, tr := range r.Spans() {
					if r.s[0] != "*" && tr.TraceID != r.s[0] {
						continue
					}
					for _, sp := range tr.Spans {
						r.Row(txt(sp.TraceID), txt(sp.SpanID), txt(sp.Parent), txt(sp.Process), txt(sp.Name), txt(sp.Detail),
							dec(sp.Start.UnixNano()), txt(sp.Duration.String()), dec(int64(sp.Code)))
					}
				}
				return nil
			}},
		{Name: "_health", Short: "_hlt", Rows: Columns("probe ok:bool detail"), IndexOrder: true, Access: Anyone,
			Do: func(r *Req) error {
				if r.Health != nil {
					for _, st := range r.Health() {
						r.Row(txt(st.Name), bit(st.OK), txt(st.Detail))
					}
				}
				return nil
			}},
	})
}
