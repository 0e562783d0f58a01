package update

import (
	"strings"
	"testing"
	"time"
)

// FuzzScriptFields: an instruction splits into the fields strings.Fields
// finds, Unicode white space and invalid UTF-8 included.
func FuzzScriptFields(f *testing.F) {
	for _, line := range []string{"", " ", "extract passwd.db /etc/passwd.db", "\texec  restart_hesiod\r\n", "a b c　", "x\x85y\xffz", "\u0085lead trail "} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, want := appendFields(nil, line), strings.Fields(line)
		if len(got) != len(want) {
			t.Fatalf("%q: fields %q, strings.Fields %q", line, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: fields %q, strings.Fields %q", line, got, want)
			}
		}
	})
}

// TestScriptAllocsIndependentOfLineCount: a push's script crosses the
// wire and runs without a copy of each line: the pusher writes the lines
// as they are, the agent keeps them as slices of one string and splits
// each instruction into a reused field slice. A push of 400 lines
// allocates what one of 10 does, both ends counted.
func TestScriptAllocsIndependentOfLineCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a := NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil)
	a.RegisterCommand("nop", func(*Agent, *Install, []string) error { return nil })
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	data, err := BuildTar(map[string][]byte{"m": []byte("v\n")})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBundle(data)
	if err := (&Push{Addr: addr.String(), Target: "/t.tar", Bundle: b, Timeout: 5 * time.Second}).Run(); err != nil {
		t.Fatal(err)
	}
	allocs := func(lines int) float64 {
		script := make([]string, lines)
		for i := range script {
			script[i] = "exec nop some argument"
		}
		p := &Push{Addr: addr.String(), Target: "/t.tar", Bundle: b, Held: b.Sum, Script: script, Timeout: 5 * time.Second}
		return testing.AllocsPerRun(20, func() {
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(400) // warm the pools and frame buffers
	small, large := allocs(10), allocs(400)
	t.Logf("push with a 10-line script: %.0f allocations; 400 lines: %.0f", small, large)
	if large-small > 20 {
		t.Errorf("390 more script lines cost %.0f allocations: the script path copies per line", large-small)
	}
}
