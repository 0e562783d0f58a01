package update

import (
	"archive/tar"
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// tarEntry is one member of a test archive.
type tarEntry struct {
	name string
	typ  byte
	data []byte
}

// tarOf packs entries into an archive, in order.
func tarOf(t testing.TB, entries []tarEntry) []byte {
	var b bytes.Buffer
	tw := tar.NewWriter(&b)
	for _, e := range entries {
		hdr := &tar.Header{Name: e.name, Typeflag: e.typ, Mode: 0o644, Size: int64(len(e.data))}
		if e.typ != tar.TypeReg {
			hdr.Size, hdr.Linkname = 0, "target"
		}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(e.data[:hdr.Size]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// randEntries is 1 to 8 members: regular files of 0 to 1,500 bytes,
// now and then a directory or symlink, a name over 100 bytes (PAX) or a
// name that repeats.
func randEntries(rng *rand.Rand) []tarEntry {
	var es []tarEntry
	for n := 1 + rng.Intn(8); n > 0; n-- {
		es = append(es, randEntry(rng, len(es)))
	}
	return es
}

func randEntry(rng *rand.Rand, i int) tarEntry {
	e := tarEntry{name: fmt.Sprintf("m%02d.db", rng.Intn(20)), typ: tar.TypeReg, data: randBytes(rng.Int63(), rng.Intn(1500))}
	switch rng.Intn(10) {
	case 0:
		e.typ = tar.TypeDir
	case 1:
		e.typ = tar.TypeSymlink
	case 2:
		e.name = strings.Repeat("long/", 25) + e.name
	}
	return e
}

// edited is the archive old with edits applied, which are in old's
// offsets, in order; the edits in both archives' offsets.
func edited(old []byte, splices []Splice) ([]byte, []Edit) {
	var new []byte
	var edits []Edit
	at := 0
	for _, s := range splices {
		new = append(new, old[at:s.Off]...)
		edits = append(edits, Edit{Old: Range{s.Off, s.Off + s.Len}, New: Range{len(new), len(new) + len(s.Data)}})
		new = append(new, s.Data...)
		at = s.Off + s.Len
	}
	return append(new, old[at:]...), edits
}

// memberSplices is the edits that make the archive of entries new from
// the one of old, member by member as the DCM's edits are: each pair of
// members at one position differs by one edit between their common
// prefix and suffix, and members that come or go are one edit each.
func memberSplices(t testing.TB, old, new []tarEntry) []Splice {
	segs := func(es []tarEntry) ([][]byte, []int) {
		var out [][]byte
		var at []int
		off := 0
		for _, e := range es {
			b := tarOf(t, []tarEntry{e})
			b = b[:len(b)-1024] // less its trailer
			out, at = append(out, b), append(at, off)
			off += len(b)
		}
		return out, append(at, off)
	}
	os, oat := segs(old)
	ns, _ := segs(new)
	var out []Splice
	for i := 0; i < max(len(os), len(ns)); i++ {
		switch {
		case i >= len(ns):
			out = append(out, Splice{Off: oat[i], Len: len(os[i])})
		case i >= len(os):
			out = append(out, Splice{Off: oat[len(os)], Data: ns[i]})
		default:
			if e, ok := diffBundles(os[i], ns[i]); ok {
				e.Off += oat[i]
				out = append(out, e)
			}
		}
	}
	// Splices at one offset (members appended) join into one.
	joined := out[:0]
	for _, s := range out {
		if k := len(joined) - 1; k >= 0 && joined[k].Off+joined[k].Len == s.Off {
			joined[k].Len += s.Len
			joined[k].Data = append(joined[k].Data, s.Data...)
			continue
		}
		joined = append(joined, s)
	}
	return joined
}

// rawSplices is up to four random edits of b, at header fields, block
// boundaries, the trailer or anywhere: random bytes, zero blocks, a
// copy of a header block, or nothing (a deletion).
func rawSplices(rng *rand.Rand, b []byte) []Splice {
	var offs []int
	for n := 1 + rng.Intn(4); n > 0; n-- {
		var off int
		switch rng.Intn(4) {
		case 0:
			off = rng.Intn(len(b)/512+1)*512 + []int{0, 124, 148, 156}[rng.Intn(4)]
		case 1:
			off = len(b) - rng.Intn(1025)
		default:
			off = rng.Intn(len(b) + 1)
		}
		offs = append(offs, min(max(off, 0), len(b)))
	}
	slices.Sort(offs)
	var out []Splice
	at := 0
	for _, off := range offs {
		if off < at {
			continue
		}
		s := Splice{Off: off, Len: min(rng.Intn(3)*rng.Intn(600), len(b)-off)}
		switch rng.Intn(4) {
		case 0:
			s.Data = randBytes(rng.Int63(), rng.Intn(600))
		case 1:
			s.Data = make([]byte, 512*(1+rng.Intn(2)))
		case 2:
			h := rng.Intn(len(b)/512+1) * 512
			s.Data = bytes.Clone(b[min(h, len(b)):min(h+512, len(b))])
		}
		if s.Len > 0 || len(s.Data) > 0 {
			out = append(out, s)
			at = off + s.Len
		}
	}
	return out
}

// FuzzKeptIndex: the index indexFrom derives for an archive from the
// index of the archive it was made from and the edits that made it is
// the index a walk of all its headers builds: the same members in the
// same order, the same first member of each name. The edits are the
// DCM's kind (members changed, resized, renamed, added or dropped,
// member by member), or raw ones that hit headers and the trailer,
// forge members, or damage the archive.
func FuzzKeptIndex(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, []byte{byte(seed)})
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		oldEntries := randEntries(rng)
		old := tarOf(t, oldEntries)
		var splices []Splice
		if len(ops) > 0 && ops[0]%3 == 0 {
			splices = rawSplices(rng, old)
		} else {
			es := slices.Clone(oldEntries)
			for _, op := range ops[:min(len(ops), 64)] {
				i := int(op>>3) % len(es)
				switch op & 7 {
				case 0, 1: // new bytes, same size
					e := es[i]
					e.data = randBytes(rng.Int63(), len(e.data))
					es[i] = e
				case 2, 3: // resized
					e := es[i]
					e.data = randBytes(rng.Int63(), rng.Intn(1500))
					es[i] = e
				case 4: // renamed
					e := es[i]
					e.name += "x"
					es[i] = e
				case 5: // a member comes
					es = slices.Insert(es, i, randEntry(rng, i))
				case 6: // a member goes
					if len(es) > 1 {
						es = slices.Delete(es, i, i+1)
					}
				}
			}
			splices = memberSplices(t, oldEntries, es)
		}
		new, edits := edited(old, splices)
		oldIdx, _ := indexTar(bytes.NewReader(old), len(old))
		want, all := indexTar(bytes.NewReader(new), len(new))
		got, walked := indexFrom(oldIdx, edits, bytes.NewReader(new), len(new))
		if got == nil {
			t.Fatal("no index derived")
		}
		if !slices.Equal(got.members, want.members) {
			t.Fatalf("derived members\n%v\nwalked ones\n%v", got.members, want.members)
		}
		if len(got.byName) != len(want.byName) {
			t.Fatalf("derived index names %d members, the walk's %d", len(got.byName), len(want.byName))
		}
		for name, i := range want.byName {
			if j, ok := got.byName[name]; !ok || j != i {
				t.Fatalf("%q: derived first member %d, walked %d", name, j, i)
			}
		}
		if walked > all+len(edits) {
			t.Fatalf("derived index read %d headers; a whole walk reads %d", walked, all)
		}
	})
}
