package db

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

type trow struct {
	ID  int
	Val string
}

// TestTableAgainstMap drives a paged table and a plain map through the
// same random puts and deletes — ids dense, sparse and far apart — and
// requires the same contents, in ascending id order, with the table's
// own invariants intact.
func TestTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb table[trow]
	ref := map[int]*trow{}
	pick := func() int {
		switch rng.Intn(3) {
		case 0:
			return rng.Intn(200)
		case 1:
			return 4000 + rng.Intn(300)
		default:
			return rng.Intn(1 << 20)
		}
	}
	for op := 0; op < 20000; op++ {
		id := pick()
		if rng.Intn(3) == 0 {
			tb.del(id, int64(op))
			delete(ref, id)
		} else {
			r := &trow{ID: id, Val: fmt.Sprint(op)}
			tb.put(id, r, int64(op))
			ref[id] = r
		}
		if got, ok := tb.get(id); ok != (ref[id] != nil) || got != ref[id] {
			t.Fatalf("op %d: get(%d) = %v, %v; want %v", op, id, got, ok, ref[id])
		}
	}
	if tb.len() != len(ref) {
		t.Fatalf("len = %d, want %d", tb.len(), len(ref))
	}
	want := make([]int, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	sort.Ints(want)
	var got []int
	tb.each(func(r *trow) bool { got = append(got, r.ID); return true })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("each order diverged from sorted ids")
	}
	tb.audit("trow", func(r *trow) int { return r.ID }, func(table, item, format string, args ...any) {
		t.Errorf("audit: %s: %s", item, fmt.Sprintf(format, args...))
	})
	for _, id := range []int{-1, -1 << 40, 1 << 40} {
		if _, ok := tb.get(id); ok || validRowID(id) {
			t.Errorf("id %d should be out of range", id)
		}
	}
}

// TestTableFreezeSharesUntouchedPages is the copy-on-write contract in
// miniature: a generation shares with its predecessor exactly the pages
// no mutation has stamped since, never shares a row with the live
// table, and an older generation never changes.
func TestTableFreezeSharesUntouchedPages(t *testing.T) {
	var live table[trow]
	epoch := int64(0)
	for id := 0; id < 10*fanout; id++ {
		epoch++
		live.put(id, &trow{ID: id, Val: "v0"}, epoch)
	}
	copied := 0
	g1 := live.freeze(&table[trow]{}, -1, &copied)
	if copied != 10*fanout {
		t.Fatalf("first freeze copied %d rows, want all %d", copied, 10*fanout)
	}
	built := epoch

	// One in-place update, one delete, one insert on a brand-new page.
	epoch++
	r, _ := live.get(3*fanout + 1)
	r.Val = "v1"
	live.touch(r.ID, r, epoch)
	epoch++
	live.del(5*fanout, epoch)
	epoch++
	live.put(40*fanout, &trow{ID: 40 * fanout, Val: "new"}, epoch)

	copied = 0
	g2 := live.freeze(&g1, built, &copied)
	if want := fanout + (fanout - 1) + 1; copied != want {
		t.Fatalf("second freeze copied %d rows, want the three touched pages' %d", copied, want)
	}
	for pg := 0; pg < 10; pg++ {
		_, p1 := g1.locate(pg * fanout)
		_, p2 := g2.locate(pg * fanout)
		if touched := pg == 3 || pg == 5; (p1 == p2) == touched {
			t.Errorf("page %d: shared=%v, touched=%v", pg, p1 == p2, touched)
		}
	}
	if r, _ := g1.get(3*fanout + 1); r.Val != "v0" {
		t.Error("the older generation saw a later update")
	}
	if _, ok := g1.get(5 * fanout); !ok {
		t.Error("the older generation lost a row deleted later")
	}
	if r, _ := g2.get(3*fanout + 1); r.Val != "v1" {
		t.Error("the new generation missed the update")
	}
	if _, ok := g2.get(5 * fanout); ok {
		t.Error("the new generation kept a deleted row")
	}
	if _, ok := g2.get(40 * fanout); !ok || g2.len() != live.len() {
		t.Error("the new generation missed the insert")
	}
	live.each(func(lr *trow) bool {
		if fr, _ := g2.get(lr.ID); fr == lr || *fr != *lr {
			t.Errorf("row %d: frozen %p %+v, live %p %+v", lr.ID, fr, fr, lr, lr)
		}
		return true
	})

	// No writes: the generation is handed back whole.
	copied = 0
	g3 := live.freeze(&g2, epoch, &copied)
	if copied != 0 || &g3.root[0] != &g2.root[0] {
		t.Errorf("clean freeze copied %d rows or rebuilt the root", copied)
	}

	// A restamped table matches no earlier generation.
	live.restamp(epoch + 1)
	if live.freeze(&g3, epoch, &copied); copied != live.len() {
		t.Errorf("freeze after restamp copied %d rows, want all %d", copied, live.len())
	}
}

// TestFsckFindsCorruptedPage: a row sitting in a page its id does not
// select, and a page whose count is off, are both fsck findings.
func TestFsckFindsCorruptedPage(t *testing.T) {
	d := testDB()
	populate(t, d)
	if bad := d.Fsck(); len(bad) != 0 {
		t.Fatalf("fsck before corruption: %v", bad)
	}
	var victim *User
	d.EachUser(func(u *User) bool { victim = u; return false })
	_, p := d.users.locate(victim.UsersID)
	slot := victim.UsersID & slotMask
	p.rows[slot], p.rows[(slot+7)&slotMask] = nil, victim // moved within the page: counts still add up
	bad := d.Fsck()
	if !hasFinding(bad, TUsers, "page slot") {
		t.Errorf("fsck missed a row in the wrong slot: %v", bad)
	}
	p.rows[slot], p.rows[(slot+7)&slotMask] = victim, nil
	p.n++
	bad = d.Fsck()
	if !hasFinding(bad, TUsers, "page counts") {
		t.Errorf("fsck missed a wrong page count: %v", bad)
	}
	p.n--
	d.users.n++
	bad = d.Fsck()
	if !hasFinding(bad, TUsers, "relation counts") {
		t.Errorf("fsck missed NumUsers disagreeing with the pages: %v", bad)
	}
}

func hasFinding(bad []Inconsistency, table, problem string) bool {
	for _, b := range bad {
		if b.Table == table && strings.Contains(b.Problem, problem) {
			return true
		}
	}
	return false
}
