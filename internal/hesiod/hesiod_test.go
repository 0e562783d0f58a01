package hesiod

import (
	"strings"
	"testing"
	"time"

	"moira/internal/update"
)

const sampleDB = `; lines for per-cluster info
babette.passwd HS UNSPECA "babette:*:6530:101:Harmon C Fowler,,,,:/mit/babette:/bin/csh"
6530.uid HS CNAME babette.passwd
HESIOD.sloc HS UNSPECA SUOMI.MIT.EDU
HESIOD.sloc HS UNSPECA KIWI.MIT.EDU
TOTO.cluster HS CNAME bldge40-rt.cluster
bldge40-rt.cluster HS UNSPECA "lpr e40"
`

func TestParseDB(t *testing.T) {
	recs, err := ParseDB(update.TextOf([]byte(sampleDB)))
	if err != nil {
		t.Fatal(err)
	}
	if r := recs["babette.passwd"]; r == nil || len(r.values) != 1 ||
		!strings.HasPrefix(r.values[0], "babette:*:6530") {
		t.Errorf("passwd record = %+v", recs["babette.passwd"])
	}
	if r := recs["6530.uid"]; r == nil || r.cname != "babette.passwd" {
		t.Errorf("uid record = %+v", recs["6530.uid"])
	}
	// Multiple UNSPECA records for one name accumulate.
	if r := recs["HESIOD.sloc"]; r == nil || len(r.values) != 2 {
		t.Errorf("sloc record = %+v", recs["HESIOD.sloc"])
	}
}

func TestParseDBErrors(t *testing.T) {
	for _, bad := range []string{
		"name IN UNSPECA \"x\"\n", // wrong class
		"name HS MX \"x\"\n",      // unknown type
		"justonefield\n",          // too few fields
	} {
		if _, err := ParseDB(update.TextOf([]byte(bad))); err == nil {
			t.Errorf("ParseDB(%q) succeeded", bad)
		}
	}
}

func TestResolveAndCNAMEChasing(t *testing.T) {
	s := NewServer()
	if err := s.LoadFiles(map[string][]byte{"all.db": []byte(sampleDB)}); err != nil {
		t.Fatal(err)
	}
	vals, ok := s.Resolve("6530.uid")
	if !ok || !strings.HasPrefix(vals[0], "babette:*:") {
		t.Errorf("CNAME chase = %v, %v", vals, ok)
	}
	vals, ok = s.Resolve("TOTO.cluster")
	if !ok || vals[0] != "lpr e40" {
		t.Errorf("cluster chase = %v, %v", vals, ok)
	}
	if _, ok := s.Resolve("ghost.passwd"); ok {
		t.Error("resolved a ghost")
	}
}

func TestCNAMELoopTerminates(t *testing.T) {
	s := NewServer()
	loop := "a.x HS CNAME b.x\nb.x HS CNAME a.x\n"
	if err := s.LoadFiles(map[string][]byte{"loop.db": []byte(loop)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Resolve("a.x"); ok {
		t.Error("CNAME loop resolved")
	}
}

func TestUDPServerLookup(t *testing.T) {
	s := NewServer()
	if err := s.LoadFiles(map[string][]byte{"all.db": []byte(sampleDB)}); err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	vals, err := Lookup(addr.String(), "babette.passwd", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || !strings.HasPrefix(vals[0], "babette:*:") {
		t.Errorf("lookup = %v", vals)
	}
	// Multi-value reply.
	vals, err = Lookup(addr.String(), "HESIOD.sloc", 2*time.Second)
	if err != nil || len(vals) != 2 {
		t.Errorf("sloc lookup = %v, %v", vals, err)
	}
	// Not found.
	if _, err := Lookup(addr.String(), "nobody.passwd", 2*time.Second); err == nil {
		t.Error("ghost lookup succeeded")
	}
}

func TestLoadFilesReplacesState(t *testing.T) {
	s := NewServer()
	s.LoadFiles(map[string][]byte{"a.db": []byte("one.x HS UNSPECA \"1\"\n")})
	s.LoadFiles(map[string][]byte{"b.db": []byte("two.x HS UNSPECA \"2\"\n")})
	if _, ok := s.Resolve("one.x"); ok {
		t.Error("stale record survived reload")
	}
	if _, ok := s.Resolve("two.x"); !ok {
		t.Error("fresh record missing")
	}
}
