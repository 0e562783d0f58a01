package update_test

import (
	"fmt"
	"testing"
	"time"

	"moira/internal/extract"
	"moira/internal/gen"
	"moira/internal/update"
)

// TestOneLineEditRenderAndIndexIndependentOfBundleSize: a one-line
// change costs the DCM's render the bytes that changed and the agent's
// index the headers they touched, not the bundle: on a 1 MiB and on an
// 8 MiB bundle the render writes the same bytes (dcm.bytes.rendered
// counts them), under 1 KiB, and the agent reads the same headers
// (update.headers.read), one.
func TestOneLineEditRenderAndIndexIndependentOfBundleSize(t *testing.T) {
	measure := func(size int) (rendered int, headers int64) {
		m := extract.NewModel()
		line := func(i int) []byte {
			return []byte(fmt.Sprintf("user%07d:*:%07d:101:User%07d:/mit/user%07d:/bin/csh\n", i, i, i, i))
		}
		n := size / len(line(0))
		for i := 0; i < n; i++ {
			m.Emit("passwd", extract.K(i), fmt.Sprint("user:", i), line(i))
		}
		m.Emit("group", extract.K(0), "group", []byte("staff:*:101:\n"))
		m.Emit("shells", extract.K(0), "shells", []byte("/bin/csh\n/bin/bash\n"))
		s := gen.NewScratch()
		first, err := gen.FromModelInto(m, s)
		if err != nil {
			t.Fatal(err)
		}
		a := update.NewAgent("SUOMI.MIT.EDU", t.TempDir(), nil)
		addr, err := a.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		push := func(b *update.Bundle, held update.Sum) {
			t.Helper()
			p := &update.Push{Addr: addr.String(), Target: "/etc/athena/passwd.tar", Bundle: b, Held: held,
				Script: []string{"extract passwd /etc/passwd", "install /etc/passwd"}, Timeout: 10 * time.Second}
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
		}
		push(first.Bundles[""], update.Sum{})
		m.DeleteKey(fmt.Sprint("user:", n/2))
		m.Emit("passwd", extract.K(n/2), fmt.Sprint("user:", n/2), []byte("changed:*:1:101:Changed,,,:/mit/changed:/bin/bash\n"))
		second, err := gen.FromModelInto(m, s)
		if err != nil {
			t.Fatal(err)
		}
		read := a.Registry().Counter("update.headers.read")
		before := read.Value()
		push(second.Bundles[""], first.Bundles[""].Sum)
		return second.Rendered, read.Value() - before
	}
	r1, h1 := measure(1 << 20)
	r8, h8 := measure(8 << 20)
	t.Logf("one-line change: the render writes %d bytes and the agent reads %d headers on a 1 MiB bundle, %d and %d on an 8 MiB one", r1, h1, r8, h8)
	if r1 != r8 || r8 > 1<<10 {
		t.Errorf("a one-line change renders %d bytes on 1 MiB and %d on 8 MiB: want equal, under 1 KiB", r1, r8)
	}
	if h1 != h8 || h8 != 1 {
		t.Errorf("a one-line change reads %d headers on 1 MiB and %d on 8 MiB: want the one it touched", h1, h8)
	}
}
