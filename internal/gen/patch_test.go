package gen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"moira/internal/extract"
	"moira/internal/update"
)

// TestPatchedBundleMatchesRender: over a seeded churn of a model's
// files, every bundle FromModelInto makes by patching the one it held
// is, byte for byte, the bundle a fresh BuildTarFrom render of the same
// model makes, with that render's edits from the held bundle and its
// sum. The churn moves member sizes across 512-byte padding, grows a
// bundle past its array's capacity, empties a member (a zero-length
// entry keeps it) and holds a member whose name needs a PAX header.
func TestPatchedBundleMatchesRender(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runPatchedBundle(t, seed) })
	}
}

func runPatchedBundle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	long := "HOST-2/" + strings.Repeat("long-member-name.", 8) + "db"
	files := []string{"aliases", "passwd.db", "HOST-1/dirs", "HOST-1/quotas", "HOST-2/dirs", long}
	m := extract.NewModel()
	keys := map[string]bool{} // live keys, named file#n
	emit := func(file string, n int, size int) {
		key := fmt.Sprintf("%s#%d", file, n)
		m.DeleteKey(key)
		m.Emit(file, extract.K(n), key, bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, size))
		keys[key] = true
	}
	for _, f := range files {
		m.Emit(f, "", "presence:"+f, nil) // a member stays when its entries go
		for n := 0; n < 4; n++ {
			emit(f, n, rng.Intn(700))
		}
	}
	s := NewScratch()
	var patched, crossed, grew, emptied, pax int
	for step := 0; step < 200; step++ {
		// What the Scratch holds before the render: the reference edits
		// are a fresh render's from these.
		held := map[string]*rendered{}
		for _, b := range s.bundles {
			held[b.key] = &rendered{buf: bytes.Clone(b.buf), sum: b.sum, sizes: slices.Clone(b.sizes),
				versions: slices.Clone(b.versions), held: b.held}
		}
		res, err := FromModelInto(m, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range s.bundles {
			bu := res.Bundles[strings.TrimPrefix(b.key, "/")]
			sizes := make([]int, len(b.names))
			for i, name := range b.names {
				sizes[i] = m.Size(name)
			}
			want, offs, err := update.BuildTarFrom(nil, b.members, func(i int) int { return sizes[i] },
				func(w io.Writer, i int) error { return m.WriteFile(w, b.names[i]) })
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bu.Data, want) || bu.Sum != sha256.Sum256(want) {
				t.Fatalf("step %d, bundle %q: %d bytes, not the %d of a fresh render, or its sum is not theirs", step, b.key, len(bu.Data), len(want))
			}
			h := held[b.key]
			if h == nil || bu.Base != h.sum {
				continue
			}
			wantEdits, ok := bundleEdits(m, nil, h.versions, b.names, sizes, offs, want)
			if !ok {
				t.Fatalf("step %d, bundle %q: patched, but a fresh render has no edits from its base", step, b.key)
			}
			if !slices.EqualFunc(bu.Edits, wantEdits, func(a, b update.Splice) bool {
				return a.Off == b.Off && a.Len == b.Len && bytes.Equal(a.Data, b.Data)
			}) {
				t.Fatalf("step %d, bundle %q: %d edits, a fresh render's are %d", step, b.key, len(bu.Edits), len(wantEdits))
			}
			patched++
			if cap(bu.Data) != cap(h.buf) && len(bu.Data) > cap(h.buf) {
				grew++
			}
			for i, name := range b.names {
				if padded(sizes[i]) != padded(h.sizes[i]) {
					crossed++
				}
				if sizes[i] == 0 && h.sizes[i] > 0 {
					emptied++
				}
				if name == long && m.Version(name) != h.versions[i] {
					pax++
				}
			}
		}
		// Churn: a few entries change size, come or go; now and then a
		// member empties or one entry grows the bundle past its array.
		for k := 1 + rng.Intn(3); k > 0; k-- {
			f := files[rng.Intn(len(files))]
			switch n := rng.Intn(6); rng.Intn(10) {
			case 0:
				m.DeleteKey(fmt.Sprintf("%s#%d", f, n))
			case 1:
				for n := 0; n < 6; n++ {
					m.DeleteKey(fmt.Sprintf("%s#%d", f, n))
				}
			case 2:
				emit(f, n, 20_000+rng.Intn(60_000))
			default:
				emit(f, n, rng.Intn(700))
			}
		}
	}
	t.Logf("%d bundles patched: %d member sizes crossed padding, %d grew past capacity, %d members emptied, %d with the PAX member changing", patched, crossed, grew, emptied, pax)
	if patched < 300 || crossed == 0 || grew == 0 || emptied == 0 || pax == 0 {
		t.Errorf("the churn missed a case: %d patched, %d crossings, %d growths, %d emptied, %d PAX", patched, crossed, grew, emptied, pax)
	}
}
