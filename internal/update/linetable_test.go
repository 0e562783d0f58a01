package update

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"
)

// The three shapes of table file a service reads, each value the
// entry's values in file order.
var (
	// oneLine: "key value"; a line is an entry, a later one replaces.
	oneLine = Parser[string, []string]{
		Key: func(line string, _ *string) (string, LineKind, error) {
			k, _, ok := strings.Cut(line, " ")
			switch {
			case line == "":
				return "", Skip, nil
			case !ok:
				return "", 0, errors.New("no value")
			}
			return k, Starts, nil
		},
		Fold: func(_ []string, line string) ([]string, error) {
			_, v, _ := strings.Cut(line, " ")
			return []string{v}, nil
		},
	}
	// indented: "key: value" starts an entry (the mail aliases' shape),
	// "\tvalue" continues it.
	indented = Parser[string, []string]{
		Key: func(line string, _ *string) (string, LineKind, error) {
			switch {
			case line == "":
				return "", Skip, nil
			case line[0] == '\t':
				return "", Continues, nil
			}
			k, _, ok := strings.Cut(line, ":")
			if !ok {
				return "", 0, errors.New("no colon")
			}
			return k, Starts, nil
		},
		Fold: func(vals []string, line string) ([]string, error) {
			if line[0] != '\t' {
				_, line, _ = strings.Cut(line, ":")
			}
			return append(vals, strings.TrimSpace(line)), nil
		},
	}
	// runs: "key value"; a line naming the key of the line above
	// continues its entry (hesiod's shape).
	runs = Parser[string, []string]{
		Key: func(line string, open *string) (string, LineKind, error) {
			k, _, ok := strings.Cut(line, " ")
			switch {
			case line == "":
				return "", Skip, nil
			case !ok:
				return "", 0, errors.New("no value")
			case open != nil && k == *open:
				return k, Continues, nil
			}
			return k, Starts, nil
		},
		Fold: func(vals []string, line string) ([]string, error) {
			_, v, _ := strings.Cut(line, " ")
			return append(vals, v), nil
		},
	}
)

// TestLineTable reloads a table of each shape from old to new through a
// push's view and checks how (kept, patched or parsed whole), the rows
// against a whole parse of new, the tag, and that a patch leaves the
// row of key same as it was; or, for a bad new file, the error and an
// unchanged table.
func TestLineTable(t *testing.T) {
	for _, c := range []struct {
		name     string
		p        Parser[string, []string]
		old, new string
		how      string // keep, patch or whole; or the error
		unknown  bool   // the table ends tagged unknown
		same     string // a key whose row a patch leaves as it was
	}{
		{name: "one-line re-push", p: oneLine, old: "a 1\nb 2\n", new: "a 1\nb 2\n", how: "keep", same: "a"},
		{name: "one-line patch", p: oneLine, old: "a 1\nb 2\nc 3\n", new: "a 1\nb 9\nc 3\nd 4\n", how: "patch", same: "a"},
		{name: "one-line repeated key", p: oneLine, old: "a 1\nb 2\n", new: "a 1\nb 2\na 3\n", how: "whole", unknown: true},
		{name: "one-line parse error", p: oneLine, old: "a 1\nb 2\n", new: "a 1\nb\n", how: "line 2: no value"},

		{name: "indented re-push", p: indented, old: "a: 1\n\t2\nb: 3\n", new: "a: 1\n\t2\nb: 3\n", how: "keep", same: "a"},
		{name: "indented patch inside an entry", p: indented, old: "a: 1\n\t2\nb: 3\n\t4\nc: 5\n", new: "a: 1\n\t2\nb: 7\n\t8\n\t9\nc: 5\n", how: "patch", same: "a"},
		{name: "indented edit starts mid-entry", p: indented, old: "a: 1\n\t2\nb: 3\n", new: "a: 1\n\t5\nb: 3\n", how: "whole"},
		{name: "indented edit followed by a continuation", p: indented, old: "a: 1\nb: 2\n\t3\n", new: "a: 1\nc: 2\n\t3\n", how: "whole"},
		{name: "indented continuation added", p: indented, old: "a: 1\nb: 2\n", new: "a: 1\n\t4\nb: 2\n", how: "whole"},
		{name: "indented repeated key", p: indented, old: "a: 1\nb: 2\n", new: "a: 1\nb: 2\na: 3\n", how: "whole", unknown: true},
		{name: "indented parse error", p: indented, old: "a: 1\n", new: "a: 1\n\nb\n", how: "line 3: no colon"},
		{name: "indented continuation without an entry", p: indented, old: "a: 1\n", new: "\t0\na: 1\n", how: "line 1: continuation without an entry"},

		{name: "runs re-push", p: runs, old: "a 1\nb 2\nb 3\n", new: "a 1\nb 2\nb 3\n", how: "keep", same: "b"},
		{name: "runs patch inside an entry", p: runs, old: "a 1\nb 2\nb 3\nc 4\n", new: "a 1\nb 5\nb 6\nb 7\nc 4\n", how: "patch", same: "c"},
		{name: "runs edit starts mid-entry", p: runs, old: "a 1\nb 2\nb 3\nc 4\n", new: "a 1\nb 2\nb 9\nc 4\n", how: "whole"},
		{name: "runs edit followed by a continuation", p: runs, old: "a 1\nb 2\nc 3\n", new: "a 1\nc 2\nc 3\n", how: "whole"},
		{name: "runs old edit followed by a continuation", p: runs, old: "a 1\nc 2\nc 3\n", new: "a 1\nb 2\nc 3\n", how: "whole"},
		{name: "runs key starts two entries", p: runs, old: "a 1\nb 2\n", new: "a 1\nb 2\na 3\n", how: "whole", unknown: true},
		{name: "runs parse error", p: runs, old: "a 1\nb 2\n", new: "a 1\nb 2\nc\n", how: "line 3: no value"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tab LineTable[string, []string]
			cold := viewOf(t, nil, []byte(c.old))
			p, err := tab.Plan(cold, cold.New, c.p)
			if err != nil {
				t.Fatal(err)
			}
			tab.Commit(p)
			before, id := maps.Clone(tab.Rows), tab.ID

			push := viewOf(t, []byte(c.old), []byte(c.new))
			plan, err := tab.Plan(push, push.New, c.p)
			if err != nil {
				if err.Error() != c.how {
					t.Fatalf("reload failed with %q, want %q", err, c.how)
				}
				if tab.ID != id || !reflect.DeepEqual(tab.Rows, before) {
					t.Errorf("a failed reload changed the table: %v tagged %q, was %v tagged %q", tab.Rows, tab.ID, before, id)
				}
				return
			}
			how := "patch"
			switch {
			case plan.keep:
				how = "keep"
			case plan.rows != nil:
				how = "whole"
			}
			if how != c.how {
				t.Errorf("reload was a %s, want %s", how, c.how)
			}
			tab.Commit(plan)

			var want LineTable[string, []string]
			p, err = want.Plan(nil, TextOf([]byte(c.new)), c.p)
			if err != nil {
				t.Fatal(err)
			}
			want.Commit(p)
			if !reflect.DeepEqual(tab.Rows, want.Rows) {
				t.Errorf("rows %v, a whole parse of the new file gives %v", tab.Rows, want.Rows)
			}
			if err := tab.Verify(TextOf([]byte(c.new)), c.p); err != nil {
				t.Errorf("Verify against the new file: %v", err)
			}
			if unknown := tab.ID == ""; unknown != c.unknown || !unknown && tab.ID != push.NewID {
				t.Errorf("table tagged %q, want unknown=%v", tab.ID, c.unknown)
			}
			if c.same != "" && &before[c.same][0] != &tab.Rows[c.same][0] {
				t.Errorf("row %s is %v, was parsed again", c.same, tab.Rows[c.same])
			}
		})
	}

	// Verify passes a table holding what the file gives, and reports a
	// row that differs, one the file lacks and one the table lacks.
	t.Run("verify", func(t *testing.T) {
		const file = "a: 1\n\t2\nb: 3\n"
		for _, c := range []struct {
			name string
			rows map[string][]string
			want string // "" or the error
		}{
			{"same rows", map[string][]string{"a": {"1", "2"}, "b": {"3"}}, ""},
			{"changed key", map[string][]string{"a": {"1"}, "b": {"3"}}, "a is [1] (held: true), the file gives [1 2]"},
			{"missing key", map[string][]string{"a": {"1", "2"}, "c": {"3"}}, "b is [] (held: false), the file gives [3]"},
			{"extra key", map[string][]string{"a": {"1", "2"}, "b": {"3"}, "c": {"4"}}, "3 rows held, the file gives 2"},
		} {
			tab := LineTable[string, []string]{Rows: c.rows}
			err := tab.Verify(TextOf([]byte(file)), indented)
			if got := fmt.Sprint(err); c.want == "" && err != nil || c.want != "" && got != c.want {
				t.Errorf("%s: Verify = %v, want %q", c.name, err, c.want)
			}
		}
		tab := LineTable[string, []string]{Rows: map[string][]string{}}
		if err := tab.Verify(TextOf([]byte("a: 1\nb\n")), indented); err == nil || err.Error() != "line 2: no colon" {
			t.Errorf("Verify of a file that does not parse = %v", err)
		}
	})
}
