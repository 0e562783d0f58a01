package extract

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestKOrdersLikeEmitOrder(t *testing.T) {
	// Numeric components zero-pad so lexical order equals numeric order.
	if K(9) >= K(10) || K(10) >= K(100) {
		t.Errorf("numeric keys out of order: %q %q %q", K(9), K(10), K(100))
	}
	// Mixed components order by component, not by concatenation: "a" as
	// a whole component sorts before "ab".
	keys := []string{K("ab", 1), K("a", 2), K("a", 10)}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	want := []string{K("a", 2), K("a", 10), K("ab", 1)}
	for i := range sorted {
		if sorted[i] != want[i] {
			t.Fatalf("sorted[%d] = %q, want %q", i, sorted[i], want[i])
		}
	}
}

func TestKPanicsOnUnsupportedType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("K(3.14) did not panic")
		}
	}()
	K(3.14)
}

func TestModelEmitRenderDelete(t *testing.T) {
	m := NewModel()
	m.Emit("f", K("b"), "user:b", []byte("bob\n"))
	m.Emit("f", K("a"), "user:a", []byte("alice\n"))
	if got := m.Bytes("f"); !bytes.Equal(got, []byte("alice\nbob\n")) {
		t.Errorf("render = %q, want entries in sort order", got)
	}

	// Deleting one key removes exactly its spans.
	m.DeleteKey("user:a")
	if got := m.Bytes("f"); !bytes.Equal(got, []byte("bob\n")) {
		t.Errorf("after delete = %q", got)
	}
	// Deleting the last key makes the file cease to exist, like a full
	// build that never emitted it.
	m.DeleteKey("user:b")
	if got := m.Bytes("f"); got != nil {
		t.Errorf("empty file still exists: %q", got)
	}
	if _, ok := m.Files()["f"]; ok {
		t.Error("Files() lists a deleted file")
	}
}

func TestModelKeySpansMultipleFiles(t *testing.T) {
	m := NewModel()
	m.Emit("passwd", K("u"), "user:u", []byte("u:pw\n"))
	m.Emit("uid", K(7), "user:u", []byte("7:u\n"))
	m.Emit("passwd", K("v"), "user:v", []byte("v:pw\n"))
	m.DeleteKey("user:u")
	if got := m.Bytes("passwd"); !bytes.Equal(got, []byte("v:pw\n")) {
		t.Errorf("passwd after delete = %q", got)
	}
	if got := m.Bytes("uid"); got != nil {
		t.Errorf("uid survived its only key: %q", got)
	}
}

func TestModelReEmitReplacesInPlace(t *testing.T) {
	m := NewModel()
	m.Emit("f", K("a"), "user:a", []byte("old\n"))
	m.Emit("f", K("a"), "user:a", []byte("new\n"))
	if got := m.Bytes("f"); !bytes.Equal(got, []byte("new\n")) {
		t.Errorf("re-emit = %q", got)
	}
	m.DeleteKey("user:a")
	if m.NumEntries() != 0 {
		t.Errorf("NumEntries = %d after deleting everything", m.NumEntries())
	}
}

func TestModelOwnershipTransfer(t *testing.T) {
	// A sort position re-emitted under a new logical key transfers
	// ownership: deleting the old key must not remove the span.
	m := NewModel()
	m.Emit("f", K("slot"), "old", []byte("v1\n"))
	m.Emit("f", K("slot"), "new", []byte("v2\n"))
	m.DeleteKey("old")
	if got := m.Bytes("f"); !bytes.Equal(got, []byte("v2\n")) {
		t.Errorf("after old-owner delete = %q", got)
	}
	m.DeleteKey("new")
	if got := m.Bytes("f"); got != nil {
		t.Errorf("after new-owner delete = %q", got)
	}
}

func TestModelPresenceEntryKeepsFileAlive(t *testing.T) {
	m := NewModel()
	m.Emit("f", "", "static", nil) // zero-length presence entry
	m.Emit("f", K("a"), "user:a", []byte("a\n"))
	m.DeleteKey("user:a")
	if got := m.Bytes("f"); got == nil || len(got) != 0 {
		t.Errorf("presence entry did not keep the file: %v", got)
	}
}

func TestKeysWithPrefix(t *testing.T) {
	m := NewModel()
	m.Emit("f", K("a"), "quota:fs1:a", []byte("x"))
	m.Emit("f", K("b"), "quota:fs1:b", []byte("x"))
	m.Emit("f", K("c"), "quota:fs2:c", []byte("x"))
	got := m.KeysWithPrefix("quota:fs1:")
	if len(got) != 2 || got[0] != "quota:fs1:a" || got[1] != "quota:fs1:b" {
		t.Errorf("KeysWithPrefix = %v", got)
	}
	if got := m.KeysWithPrefix("nothing:"); len(got) != 0 {
		t.Errorf("KeysWithPrefix(miss) = %v", got)
	}
}

func TestModelRenderCacheInvalidation(t *testing.T) {
	m := NewModel()
	m.Emit("f", K("a"), "a", []byte("1"))
	_ = m.Bytes("f") // flush the overlay
	m.Emit("f", K("b"), "b", []byte("2"))
	if got := m.Bytes("f"); !bytes.Equal(got, []byte("12")) {
		t.Errorf("stale render after emit: %q", got)
	}
	_ = m.Bytes("f")
	m.DeleteKey("a")
	if got := m.Bytes("f"); !bytes.Equal(got, []byte("2")) {
		t.Errorf("stale render after delete: %q", got)
	}
}

// FuzzModelPatch: after any batch of emits and deletes, every file
// renders exactly as a sorted map of its live entries would, however the
// overlay, the in-place merge and the append fast path interleave, and
// the old bytes with the changes the model reports, their inserted bytes
// written by CopyChanges, are the new ones. Each op is two bytes: its
// kind and file, and an argument.
func FuzzModelPatch(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 0, 3, 0, 3, 0, 2, 0})        // emit, render, append onto the flushed slice
	f.Add([]byte{0, 5, 2, 0, 1, 5, 2, 0, 0, 5, 2, 0})        // shrink to empty and come back
	f.Add([]byte{4, 9, 128, 9, 8, 3, 132, 9, 5, 0, 2, 0, 9}) // ownership moves, two files
	f.Fuzz(func(t *testing.T, ops []byte) {
		type ent struct{ key, data string }
		ref := map[string]map[string]ent{}
		m := NewModel()
		next := 0 // appended sort positions sort after every other one
		// The bytes and version of each file at the last check: the
		// changes the model reports since make the bytes it renders now.
		type seen struct {
			v    uint64
			data []byte
		}
		last := map[string]seen{}
		check := func() {
			var names []string
			for _, file := range []string{"f", "g"} {
				var sorts []string
				for s := range ref[file] {
					sorts = append(sorts, s)
				}
				sort.Strings(sorts)
				var want []byte
				for _, s := range sorts {
					want = append(want, ref[file][s].data...)
				}
				if len(sorts) > 0 {
					names = append(names, file)
				}
				// Written into a bundle first, so WriteFile merges the
				// overlay itself.
				var w bytes.Buffer
				if err := m.WriteFile(&w, file); err != nil || m.Size(file) != len(want) || !bytes.Equal(w.Bytes(), want) {
					t.Fatalf("%s: WriteFile %q, Size %d, want %q", file, w.Bytes(), m.Size(file), want)
				}
				if l, ok := last[file]; ok && len(sorts) > 0 {
					var patched []byte
					at := 0
					known := m.Changes(file, l.v, func(off, del, ins int) {
						if off < at || off+del > len(l.data) {
							t.Fatalf("%s: change %d-%d+%d out of order or bounds", file, off, del, ins)
						}
						patched = append(append(patched, l.data[at:off]...), make([]byte, ins)...)
						at = off + del
					})
					patched = append(patched, l.data[at:]...)
					if m.Version(file) == l.v && !bytes.Equal(l.data, want) {
						t.Fatalf("%s: bytes changed under one version", file)
					}
					if known {
						// Inserted bytes are the new ones at their place:
						// compare the lengths and every kept byte.
						if len(patched) != len(want) {
							t.Fatalf("%s: changes give %d bytes, want %d", file, len(patched), len(want))
						}
						for i := range want {
							if patched[i] != 0 && patched[i] != want[i] {
								t.Fatalf("%s: changes misplace byte %d", file, i)
							}
						}
						// CopyChanges fills the inserted bytes in.
						if !m.CopyChanges(patched, file, l.v) || !bytes.Equal(patched, want) {
							t.Fatalf("%s: kept bytes and CopyChanges give %q, want %q", file, patched, want)
						}
					}
				}
				last[file] = seen{m.Version(file), want}
				got := m.Bytes(file)
				if len(sorts) == 0 {
					if got != nil {
						t.Fatalf("%s: empty file renders %q", file, got)
					}
				} else if !bytes.Equal(got, want) {
					t.Fatalf("%s: render %q, want %q", file, got, want)
				}
			}
			if got := m.Names(); fmt.Sprint(got) != fmt.Sprint(names) {
				t.Fatalf("Names() = %v, want %v", got, names)
			}
		}
		emit := func(file, sortKey, key, data string) {
			if ref[file] == nil {
				ref[file] = map[string]ent{}
			}
			ref[file][sortKey] = ent{key, data}
			m.Emit(file, sortKey, key, []byte(data))
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			file := []string{"f", "g"}[op>>7]
			key := "k" + strconv.Itoa(int(op>>2)&7)
			data := strings.Repeat(string(rune('a'+arg%26)), arg%5)
			switch op & 3 {
			case 0:
				emit(file, K("p", arg%40), key, data)
			case 1:
				for file, es := range ref {
					for s, e := range es {
						if e.key == key {
							delete(es, s)
						}
					}
					if len(es) == 0 {
						delete(ref, file)
					}
				}
				m.DeleteKey(key)
			case 2:
				check()
			case 3:
				next++
				emit(file, K("q", next), key, data)
			}
		}
		check()
		n := 0
		for _, es := range ref {
			n += len(es)
		}
		if m.NumEntries() != n {
			t.Fatalf("NumEntries = %d, want %d", m.NumEntries(), n)
		}
	})
}

// TestModelPatchAllocsIndependentOfFileSize: a patch merges its overlay
// into the entry array in place and WriteFile renders entry by entry
// into the writer (the DCM's path into a bundle), so re-emitting 10 keys
// of a 100,000-entry file allocates what it does in a 10,000-entry file. (Copying the array on every flush, as a fresh
// merge does, costs 56 bytes an entry: 5.6 MB a patch at 100,000.)
func TestModelPatchAllocsIndependentOfFileSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// Map buckets, location records and the overlay of 10 keys: about
	// 4 KB measured at either size.
	const ceiling = 16 << 10
	measure := func(n int) float64 {
		m := NewModel()
		line := func(i int) []byte { return []byte(fmt.Sprintf("user%07d:*:%d:101::/home:/bin/sh\n", i, i)) }
		for i := 0; i < n; i++ {
			m.Emit("passwd", K(i), "user:"+strconv.Itoa(i), line(i))
		}
		if err := m.WriteFile(io.Discard, "passwd"); err != nil {
			t.Fatal(err)
		}
		// Ten keys across the file, each patch swapping which of two
		// positions they hold, so the file keeps its size.
		type key struct {
			name string
			at   [2]string
			data []byte
		}
		var keys []key
		for j := 0; j < 10; j++ {
			i := j*n/10 + 1
			keys = append(keys, key{"user:" + strconv.Itoa(i), [2]string{K(i), K(i) + "~"}, line(i)})
		}
		patch := func(round int) {
			for _, k := range keys {
				m.DeleteKey(k.name)
				m.Emit("passwd", k.at[round%2], k.name, k.data)
			}
			if err := m.WriteFile(io.Discard, "passwd"); err != nil {
				t.Fatal(err)
			}
		}
		patch(1)
		patch(0)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			patch(r + 1)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := measure(10_000), measure(100_000)
	t.Logf("10-key patch + render: %.0f B at 10,000 entries, %.0f B at 100,000", small, large)
	if large > small*1.1 || small > large*1.1 {
		t.Errorf("patch allocates %.0f B at 100,000 entries and %.0f B at 10,000: want within 10%%", large, small)
	}
	if large > ceiling || small > ceiling {
		t.Errorf("patch allocates %.0f / %.0f B, want under %d", small, large, ceiling)
	}
}
